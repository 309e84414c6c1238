#!/usr/bin/env bash
# One-command verification: configure + build + ctest, mirroring what CI (and
# the tier-1 gate) runs.
#
#   scripts/check.sh                # plain RelWithDebInfo build + full ctest
#   scripts/check.sh asan           # AddressSanitizer build (build/check-asan)
#   scripts/check.sh tsan           # ThreadSanitizer build (build/check-tsan)
#   scripts/check.sh ubsan          # UndefinedBehaviorSanitizer build, with
#                                   # float-cast-overflow (build/check-ubsan):
#                                   # the jsvm, JSON, server, allocator,
#                                   # compartment, IR, passes and analysis
#                                   # suites
#   scripts/check.sh lint           # pkrusafe_lint over examples/ir/ + WRPKRU
#                                   # gadget scan of the built tools
#   scripts/check.sh crash          # end-to-end crash forensics: an enforced
#                                   # violation must leave a parseable report
#   scripts/check.sh faultstress    # multithreaded profiling-fault stress
#                                   # (mprotect backend) under ThreadSanitizer,
#                                   # the contended-lookup test 100x over
#   scripts/check.sh contprof       # continuous profiling: budget + delta +
#                                   # aggregator tests under ThreadSanitizer,
#                                   # then the overhead bench (BENCH_contprof)
#   scripts/check.sh fleet          # fleet transport: socket loop, frame
#                                   # codec/server, net-sink, demotion and
#                                   # artifact tests under ThreadSanitizer,
#                                   # the socket e2e, a live serve round
#                                   # trip (a socket producer and a frame
#                                   # log), then the producer-cost bench
#                                   # (BENCH_fleet, socket overhead <= 5%)
#   scripts/check.sh vpkey          # virtual-pkey cache: multidomain tests
#                                   # and the per-thread counter tests under
#                                   # ThreadSanitizer (pin/evict races),
#                                   # the 32-tenant sandbox on both backends,
#                                   # then the transition bench (BENCH_vpkey)
#   scripts/check.sh server         # multi-tenant sandbox server: socket
#                                   # loop + server + e2e tests under
#                                   # ThreadSanitizer (I/O thread vs worker
#                                   # pool vs sweep vs violator kill), a live
#                                   # pkrusafe_serve round trip over the
#                                   # socket with a starvation probe (two
#                                   # idle connections) and a runaway-script
#                                   # probe (step budget), then BENCH_server
#                                   # (1/8/32 tenants, recurring vs unique
#                                   # scripts, sim/mprotect/hardware; jsvm
#                                   # ns per step)
#   scripts/check.sh gateintegrity  # PKRU-flow lints over the corpus (clean
#                                   # modules prove, seeded violations fail),
#                                   # SARIF export, link-time check-binary
#                                   # and no TEXTREL in every built tool and
#                                   # bench
#   scripts/check.sh warnings       # fresh default (RelWithDebInfo) and
#                                   # Release builds (build/check-warnings,
#                                   # build/check-warnings-release); fails
#                                   # on any compiler `warning:` line
#   scripts/check.sh loc [BASE]     # lines added, removed and net in src/ +
#                                   # tools/ of the working tree against BASE
#                                   # (default HEAD), from git diff --numstat;
#                                   # stage new files first so they count
#   scripts/check.sh matrix         # plain + asan + tsan + ubsan + lint + crash
#                                   # + faultstress + contprof + vpkey
#                                   # + gateintegrity + warnings
#   scripts/check.sh -- -R telemetry   # extra args after -- go to ctest
#
# --asan/--tsan are accepted as aliases of asan/tsan.
set -euo pipefail

cd "$(dirname "$0")/.."

mode=plain
loc_base=HEAD
while [[ $# -gt 0 ]]; do
  case "$1" in
    asan|--asan) mode=asan; shift ;;
    tsan|--tsan) mode=tsan; shift ;;
    ubsan|--ubsan) mode=ubsan; shift ;;
    lint|--lint) mode=lint; shift ;;
    crash|--crash) mode=crash; shift ;;
    faultstress|--faultstress) mode=faultstress; shift ;;
    contprof|--contprof) mode=contprof; shift ;;
    fleet|--fleet) mode=fleet; shift ;;
    vpkey|--vpkey) mode=vpkey; shift ;;
    server|--server) mode=server; shift ;;
    gateintegrity|--gateintegrity) mode=gateintegrity; shift ;;
    warnings|--warnings) mode=warnings; shift ;;
    loc|--loc)
      mode=loc; shift
      if [[ $# -gt 0 && "$1" != "--" ]]; then loc_base="$1"; shift; fi ;;
    matrix) mode=matrix; shift ;;
    --) shift; break ;;
    *) echo "usage: $0 [asan|tsan|ubsan|lint|crash|faultstress|contprof|fleet|vpkey|server|gateintegrity|warnings|loc [BASE]|matrix] [-- <ctest args>]" >&2; exit 2 ;;
  esac
done

run_one() {
  local sanitize="$1" build_dir="$2"
  shift 2
  echo "== check: ${sanitize:-plain} (${build_dir}) =="
  cmake -B "$build_dir" -S . -DPKRUSAFE_SANITIZE="$sanitize"
  cmake --build "$build_dir" -j "$(nproc)"
  ctest --test-dir "$build_dir" --output-on-failure "$@"
}

run_ubsan() {
  echo "== check: ubsan (build/check-ubsan) =="
  # Undefined behavior in the code that does arithmetic on hostile input:
  # the jsvm (its integer % fast path casts doubles to integers), the JSON
  # parser and the server that feeds request lines to both. Then the
  # allocator and compartment pools, whose span tables are placed by chunk
  # arithmetic (a misaligned slot pointer is UB), with the vpkey layer that
  # re-tags those pools. The thread-cache tests are CentralFreeListTest's.
  # Last, the IR parser, the passes and the static analyses, which take
  # module text from the command line (pkrusafe_lint, profile_tool check).
  cmake -B build/check-ubsan -S . -DPKRUSAFE_SANITIZE=undefined
  cmake --build build/check-ubsan -j "$(nproc)" \
    --target jsvm_test support_test server_test pkalloc_test multidomain_test \
             ir_test analysis_test passes_test corpus_property_test
  ctest --test-dir build/check-ubsan --output-on-failure \
    -R '^(LexerTest|ScriptParserTest|CompilerTest|JsHeapTest|VmTest|ModNumbersTest|VerifierTest|ExploitTest|BytecodeGoldenTest|JsonTest|JsonWriterTest|SandboxServerProgramCacheTest|SandboxServerTest)\.|^([A-Za-z]+/)?(SpanTableTest|SpanListTest|FreeListHeap[A-Za-z]*Test|ArenaTest|CentralFreeListTest|MultiCompartment[A-Za-z]*Test|Vpkey[A-Za-z]*Test)\.|^(ParserTest|CallGraphTest|PointsToTest|LintTest|GadgetScanTest|PkruFlowTest|PkruStateTest|GateIntegrityTest|FindingsGoldenTest|SarifTest|StaticSharingTest|PassManagerTest|AllocIdPassTest|GateInsertionPassTest|ProfileApplyPassTest|GateLoweringPassTest|CorpusPropertyTest)\.'
}

run_lint() {
  echo "== check: lint (build) =="
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" \
    --target pkrusafe_lint pkrusafe_run profile_tool msrun
  local lint=build/tools/pkrusafe_lint
  for ir in examples/ir/*.ir; do
    echo "-- lint: $ir"
    "$lint" "$ir" --format=json
  done
  echo "-- gadget scan: built tools"
  "$lint" --scan=build/tools/pkrusafe_run --scan=build/tools/profile_tool \
          --scan=build/tools/msrun --scan-self
}

run_crash() {
  echo "== check: crash forensics (build) =="
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" \
    --target pkrusafe_run profile_tool integration_test
  # The in-tree fork-based e2e first.
  ctest --test-dir build --output-on-failure -R CrashForensicsTest

  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN

  echo "-- crash: enforced violation writes a postmortem report"
  local rc=0
  build/tools/pkrusafe_run examples/ir/callbacks.ir \
    --mode=enforce --backend=mprotect \
    --crash-report="$out/crash.json" >/dev/null 2>&1 || rc=$?
  # 128 + SIGSEGV: the violation must actually kill the process.
  if [[ "$rc" -ne 139 ]]; then
    echo "expected death by SIGSEGV (rc 139), got rc $rc" >&2
    exit 1
  fi
  grep -q '"reason":"mpk-violation"' "$out/crash.json"
  build/tools/profile_tool report "$out/crash.json" | grep -q "mpk-violation"

  echo "-- crash: sampler writes parseable JSONL rows"
  build/tools/pkrusafe_run examples/ir/telemetry_demo.ir \
    --mode=profile --sample-out="$out/samples.jsonl" --sample-ms=5 >/dev/null
  [[ -s "$out/samples.jsonl" ]]
  grep -q '"counters"' "$out/samples.jsonl"
  echo "crash forensics check OK"
}

run_faultstress() {
  echo "== check: faultstress (build/check-tsan) =="
  # The concurrency-sensitive fault-engine tests (per-thread single-step,
  # same-thread re-entrant faults, snapshot reclamation, AS-safe recording)
  # on the mprotect backend, under ThreadSanitizer. See docs/faults.md.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" --target mpk_test runtime_test
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'FaultConcurrency|FaultSignal|Churn|ProfileRecorder|ConcurrencyTest'
  # Four threads' provenance lookups contend for one lock: every fault must
  # still reach the profile, every time.
  ctest --test-dir build/check-tsan --output-on-failure --repeat until-fail:100 \
    -R 'ConcurrencyTest\.ProfilingFaultsFromManyThreadsAreAllRecorded'
  echo "faultstress check OK"
}

run_contprof() {
  echo "== check: contprof (build/check-tsan) =="
  # The always-on sampled-profiling path: fault-rate budget admission from
  # signal context, delta encode/decode, frame-log ingest, and the
  # fork-based end-to-end loop — all under ThreadSanitizer, since the budget
  # and the policy swap are lock-free fast paths. Then the overhead bench:
  # 1% sampled pages must stay within 10% of latched enforce throughput.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)"     --target mpk_test runtime_test aggregator_test telemetry_test integration_test
  ctest --test-dir build/check-tsan --output-on-failure     -R 'FaultRateBudget|ProfileDelta|SampledProfiling|Aggregator|Sampler|ContinuousProfiling'
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target bench_contprof
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_contprof
  grep -q '"bench":"contprof"' "$out/BENCH_contprof.json"
  echo "contprof check OK"
}

run_fleet() {
  echo "== check: fleet (build/check-tsan) =="
  # The fleet telemetry plane: the frame codec against adversarial input, the
  # bounded frame queue both sinks share, the socket loop and the frame
  # server on it, the reconnecting non-blocking sink, cold-site demotion and
  # delta validation in the aggregator,
  # provenance-checked artifacts, and the fork-based socket e2e — all under
  # ThreadSanitizer, since the sink is locked against a sampler thread and
  # the e2e races a producer against the serve loop.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target support_test telemetry_test aggregator_test runtime_test mpk_test integration_test
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'SocketLoop|FrameCodec|FrameQueue|FrameServer|NetSink|Aggregator|ProfileArtifact|ProfileDelta|LatchedPageSet|FleetE2e|Sampler'

  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target pkrusafe_run profile_tool bench_fleet
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN

  echo "-- fleet: live serve round trip (stream -> promote -> artifact)"
  # One producer on the socket, one writing a frame log that serve follows:
  # both are streams of their own, so neither's sequence is a replay.
  build/tools/profile_tool serve --module=examples/ir/interproc.ir --port=0 \
    --artifact="$out/fleet.artifact" --idle-exit-polls=40 "$out/fleet.psf" \
    > "$out/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out/serve.log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "serve never reported its port" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  build/tools/pkrusafe_run examples/ir/interproc.ir --mode=profile \
    --profile-stream="tcp://127.0.0.1:$port" --epoch=check >/dev/null
  build/tools/pkrusafe_run examples/ir/interproc.ir --mode=profile \
    --profile-stream="$out/fleet.psf" --epoch=check >/dev/null
  wait "$serve_pid"
  grep -q '^promote:' "$out/serve.log"
  grep -q '^ingested 4 frame(s) from 2 stream(s)' "$out/serve.log"
  grep -q '^rejected: 0 hash, 0 malformed, 0 sequence; frames: 0 resync' "$out/serve.log"
  [[ -s "$out/fleet.artifact" ]]
  # The exported artifact must load back into an enforcement run.
  build/tools/pkrusafe_run examples/ir/interproc.ir --mode=enforce \
    --profile="$out/fleet.artifact" --expected-epoch=check >/dev/null

  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_fleet
  python3 - "$out/BENCH_fleet.json" <<'PY'
import json, sys
bench = json.load(open(sys.argv[1]))
rows = {row["name"]: row["value"] for row in bench["results"]}
assert bench["bench"] == "fleet", bench["bench"]
assert rows["producer_socket_overhead_at_tick"] <= 5.0, rows
PY
  echo "fleet check OK"
}

run_vpkey() {
  echo "== check: vpkey (build/check-tsan) =="
  # The virtual-pkey cache's lock-free pin fast path races eviction by
  # design (hazard-pointer protocol, see src/multidomain/pin_registry.h), so
  # the multidomain suite — including the stress tests that hammer pins
  # against forced evictions and release/reuse of library entries — runs
  # under ThreadSanitizer, along with the publication protocol of the
  # lock-free library table and the page-key map's in-place re-tag racing
  # its readers, and the per-thread counters (src/support/per_thread.h)
  # that crossings, pins and thread-cache traffic are counted in. ctest -R
  # is case-sensitive: the pattern names the gtest suites, not the binary.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target multidomain_test support_test mpk_test pkalloc_test multidomain_sandbox
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'Vpkey|Multidomain|MultiCompartment|StableIndexArray|PerThread|OtherThreadsCachedAllocations|PageKeyMapRetag|example_multidomain'
  # The counting tests race slot writers against readers, and thread exit
  # against owner destruction: repeat them.
  ctest --test-dir build/check-tsan --output-on-failure --repeat until-fail:20 \
    -R 'PerThread|ConcurrentScopesAreCountedExactly|OtherThreadsCachedAllocations'
  echo "-- vpkey: 32 tenants past the 16-key hardware limit"
  build/check-tsan/examples/multidomain_sandbox --libraries=32 --backend=sim
  build/check-tsan/examples/multidomain_sandbox --libraries=32 --backend=mprotect
  # The transition bench. Only its re-tag rows are checked: a key miss must
  # not get slower with the number of live libraries, so the live:1024 /
  # live:64 re-tag ratio stays at or below 1.5 on every backend. The
  # resident enter+exit row is printed and recorded, not checked.
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target bench_vpkey
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_vpkey
  # Every bench records the machine it ran on (bench/bench_json.h).
  grep -q '"env":{' "$out/BENCH_vpkey.json"
  python3 - "$out/BENCH_vpkey.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["bench"] == "vpkey", doc["bench"]
ratios = {r["name"]: r["value"] for r in doc["results"]
          if r["name"].startswith("retag_live_ratio/")}
if not ratios:
    sys.exit("vpkey: no retag_live_ratio rows")
for name, value in sorted(ratios.items()):
    print(f"-- {name} = {value:.2f}x (limit 1.5)")
bad = [name for name, value in ratios.items() if value > 1.5]
if bad:
    sys.exit("vpkey: re-tag cost grows with live libraries: " + ", ".join(bad))
PY
  echo "vpkey check OK"
}

run_server() {
  echo "== check: server (build/check-tsan) =="
  # The multi-tenant sandbox server: the I/O thread, the worker pool, the
  # idle sweep, and a violator's kill all race each other by design, so the
  # socket loop, the server suite and the fork-based mprotect e2e run under
  # ThreadSanitizer, along with the multidomain lifecycle (ReleaseLibrary
  # quarantine) they lean on.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target support_test server_test multidomain_test integration_test
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'SocketLoop|SandboxServer|ServerE2e|MultiCompartment'

  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target pkrusafe_serve bench_server
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN

  echo "-- server: live round trip (serve -> violate -> survive)"
  build/tools/pkrusafe_serve --port=0 --workers=2 --duration-ms=4000 \
    --enable-vulnerability --crash-dir="$out" --stats > "$out/serve.log" 2>&1 &
  local serve_pid=$!
  local port=""
  for _ in $(seq 1 100); do
    port="$(sed -n 's/^serving on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$out/serve.log")"
    [[ -n "$port" ]] && break
    sleep 0.1
  done
  if [[ -z "$port" ]]; then
    echo "pkrusafe_serve never reported its port" >&2
    kill "$serve_pid" 2>/dev/null || true
    exit 1
  fi
  echo "-- server: two idle connections do not starve a third client"
  exec 4<>"/dev/tcp/127.0.0.1/$port" 5<>"/dev/tcp/127.0.0.1/$port"
  timeout 2 bash -c 'exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf "%s\n" "{\"tenant\":\"alice\",\"script\":\"1+2;\"}" >&3
    IFS= read -r reply <&3
    [[ "$reply" == *"\"ok\":true"* ]]' _ "$port"
  exec 4<&- 5<&-
  echo "-- server: a runaway script ends at the step budget; another client is served"
  exec 6<>"/dev/tcp/127.0.0.1/$port"
  printf '%s\n' '{"tenant":"spin","script":"while (true) { }"}' >&6
  timeout 2 bash -c 'exec 3<>"/dev/tcp/127.0.0.1/$1"
    printf "%s\n" "{\"tenant\":\"bob\",\"script\":\"print(2 + 2);\"}" >&3
    IFS= read -r reply <&3
    [[ "$reply" == *"\"ok\":true"* ]]' _ "$port"
  timeout 3 bash -c 'IFS= read -r reply <&6
    [[ "$reply" == *"\"ok\":false"* && "$reply" == *"step budget exceeded"* &&
       "$reply" == *"\"dead\":false"* ]]'
  exec 6<&-
  exec 3<>"/dev/tcp/127.0.0.1/$port"
  printf '%s\n' '{"tenant":"alice","script":"let x = 6 * 7; print(x);"}' >&3
  IFS= read -r reply <&3
  echo "$reply" | grep -q '"ok":true'
  printf '%s\n' '{"tenant":"evil","script":"__poke(secret_addr(), 1);"}' >&3
  IFS= read -r reply <&3
  echo "$reply" | grep -q '"dead":true'
  printf '%s\n' '{"tenant":"alice","script":"let y = 1; print(y);"}' >&3
  IFS= read -r reply <&3
  echo "$reply" | grep -q '"ok":true'
  exec 3<&- 3>&-
  wait "$serve_pid"
  grep -q '"server.violations":1' "$out/serve.log"
  grep -q '"server.compile_cache.hits":' "$out/serve.log"
  grep -q '"kind":"pkru_safe_crash_report"' "$out/crash-evil.json"

  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_server
  grep -q '"bench":"server"' "$out/BENCH_server.json"
  grep -q 'scripts:recurring/compile_cache_hit_ratio' "$out/BENCH_server.json"
  grep -q 'jsvm/shape:loop/ns_per_step' "$out/BENCH_server.json"
  echo "server check OK"
}

run_gateintegrity() {
  echo "== check: gateintegrity (build) =="
  # The static half: the PKRU-flow abstract interpreter must prove every
  # top-level corpus module gate-balanced (exit 0, even with notes escalated)
  # and reject every seeded violation module. The link-time half: check-binary
  # must find only sanctioned, registered wrpkru sites in every executable
  # under build/tools and build/bench (pkrusafe_run also cross-checked
  # against the explicit-gate module's IR inventory), and no built
  # executable may need text relocations (the gate registry is read-only and
  # PC-relative). Builds everything so no stale binary is read.
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)"
  local lint=build/tools/pkrusafe_lint
  for ir in examples/ir/*.ir; do
    echo "-- prove: $ir"
    "$lint" "$ir" --fail-on=error
  done
  for ir in examples/ir/violations/*.ir; do
    echo "-- reject: $ir"
    if "$lint" "$ir" >/dev/null; then
      echo "seeded violation $ir was not reported" >&2
      exit 1
    fi
  done
  echo "-- sarif: explicit_gates.ir"
  "$lint" examples/ir/explicit_gates.ir --format=sarif | grep -q '"version":"2.1.0"'
  echo "-- check-binary: pkrusafe_run vs IR gate inventory"
  "$lint" check-binary build/tools/pkrusafe_run examples/ir/explicit_gates.ir
  echo "-- check-binary + textrel: executables under build/tools and build/bench"
  local exe textrel=0
  for exe in build/tools/* build/bench/*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
    "$lint" check-binary "$exe"
    if readelf -d "$exe" | grep -q TEXTREL; then
      echo "text relocations in $exe" >&2
      textrel=1
    fi
  done
  if [[ "$textrel" -ne 0 ]]; then
    exit 1
  fi
  ctest --test-dir build --output-on-failure \
    -R 'PkruFlow|GateIntegrity|Sarif|GateAgreement|tool_lint_check_binary'
  echo "gateintegrity check OK"
}

run_warnings() {
  # Both optimisation levels: GCC's flow-based warnings (-Wrestrict,
  # -Wmaybe-uninitialized) fire at -O3 on code the default level passes.
  local type dir count
  for type in RelWithDebInfo Release; do
    dir=build/check-warnings
    [[ "$type" == Release ]] && dir=build/check-warnings-release
    echo "== check: warnings, $type ($dir) =="
    # From scratch, so every translation unit is compiled (and can warn) again.
    rm -rf "$dir"
    cmake -B "$dir" -S . -DPKRUSAFE_SANITIZE="" -DCMAKE_BUILD_TYPE="$type" > /dev/null
    cmake --build "$dir" -j "$(nproc)" 2>&1 | tee "$dir/build.log"
    count="$(grep -c 'warning:' "$dir/build.log" || true)"
    if [[ "$count" -ne 0 ]]; then
      grep 'warning:' "$dir/build.log" >&2
      echo "$count compiler warning line(s) at $type" >&2
      exit 1
    fi
  done
  echo "warnings check OK"
}

run_loc() {
  git diff --numstat "$1" -- src tools | awk -v base="$1" '
    { added += $1; removed += $2 }
    END { printf "src/ + tools/ vs %s: +%d -%d, net %+d\n", base, added, removed, added - removed }'
}

case "$mode" in
  plain) run_one "" build "$@" ;;
  asan)  run_one address build/check-asan "$@" ;;
  tsan)  run_one thread build/check-tsan "$@" ;;
  ubsan) run_ubsan ;;
  lint)  run_lint ;;
  crash) run_crash ;;
  faultstress) run_faultstress ;;
  contprof) run_contprof ;;
  fleet) run_fleet ;;
  vpkey) run_vpkey ;;
  server) run_server ;;
  gateintegrity) run_gateintegrity ;;
  warnings) run_warnings ;;
  loc) run_loc "$loc_base" ;;
  matrix)
    run_one "" build "$@"
    run_one address build/check-asan "$@"
    run_one thread build/check-tsan "$@"
    run_ubsan
    run_lint
    run_crash
    run_faultstress
    run_contprof
    run_fleet
    run_vpkey
    run_server
    run_gateintegrity
    run_warnings
    ;;
esac
