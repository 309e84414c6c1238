#!/usr/bin/env bash
# One-command verification: configure + build + ctest, mirroring what CI (and
# the tier-1 gate) runs.
#
#   scripts/check.sh                # plain RelWithDebInfo build + full ctest
#   scripts/check.sh asan           # AddressSanitizer build (build/check-asan)
#   scripts/check.sh tsan           # ThreadSanitizer build (build/check-tsan)
#   scripts/check.sh lint           # pkrusafe_lint over examples/ir/ + WRPKRU
#                                   # gadget scan of the built tools
#   scripts/check.sh crash          # end-to-end crash forensics: an enforced
#                                   # violation must leave a parseable report
#   scripts/check.sh faultstress    # multithreaded profiling-fault stress
#                                   # (mprotect backend) under ThreadSanitizer
#   scripts/check.sh contprof       # continuous profiling: budget + delta +
#                                   # aggregator tests under ThreadSanitizer,
#                                   # then the overhead bench (BENCH_contprof)
#   scripts/check.sh fleet          # fleet transport: frame codec/server,
#                                   # net-sink, demotion and artifact tests
#                                   # under ThreadSanitizer, the socket e2e,
#                                   # a live serve round trip, then the
#                                   # transport bench (BENCH_fleet)
#   scripts/check.sh vpkey          # virtual-pkey cache: multidomain tests
#                                   # under ThreadSanitizer (pin/evict races),
#                                   # the 32-tenant sandbox on both backends,
#                                   # then the transition bench (BENCH_vpkey)
#   scripts/check.sh server         # multi-tenant sandbox server: server +
#                                   # e2e tests under ThreadSanitizer (worker
#                                   # pool vs sweep vs violator kill), a live
#                                   # pkrusafe_serve round trip over the
#                                   # socket, then BENCH_server (1/8/32
#                                   # tenants on both backends)
#   scripts/check.sh gateintegrity  # PKRU-flow lints over the corpus (clean
#                                   # modules prove, seeded violations fail),
#                                   # SARIF export, link-time check-binary
#                                   # over the built tools, and no TEXTREL in
#                                   # any built tool or bench
#   scripts/check.sh matrix         # plain + asan + tsan + lint + crash
#                                   # + faultstress + contprof + vpkey
#                                   # + gateintegrity
#   scripts/check.sh -- -R telemetry   # extra args after -- go to ctest
#
# --asan/--tsan are accepted as aliases of asan/tsan.
set -euo pipefail

cd "$(dirname "$0")/.."

mode=plain
while [[ $# -gt 0 ]]; do
  case "$1" in
    asan|--asan) mode=asan; shift ;;
    tsan|--tsan) mode=tsan; shift ;;
    lint|--lint) mode=lint; shift ;;
    crash|--crash) mode=crash; shift ;;
    faultstress|--faultstress) mode=faultstress; shift ;;
    contprof|--contprof) mode=contprof; shift ;;
    fleet|--fleet) mode=fleet; shift ;;
    vpkey|--vpkey) mode=vpkey; shift ;;
    server|--server) mode=server; shift ;;
    gateintegrity|--gateintegrity) mode=gateintegrity; shift ;;
    matrix) mode=matrix; shift ;;
    --) shift; break ;;
    *) echo "usage: $0 [asan|tsan|lint|crash|faultstress|contprof|fleet|vpkey|server|gateintegrity|matrix] [-- <ctest args>]" >&2; exit 2 ;;
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
  echo "faultstress check OK"
}

run_contprof() {
  echo "== check: contprof (build/check-tsan) =="
  # The always-on sampled-profiling path: fault-rate budget admission from
  # signal context, delta encode/decode, aggregator stream tailing, and the
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
  # poll-based server, the reconnecting non-blocking sink, cold-site demotion
  # and network-delta validation in the aggregator, provenance-checked
  # artifacts, and the fork-based socket e2e — all under ThreadSanitizer,
  # since the sink is locked against a sampler thread and the e2e races a
  # producer against the serve loop.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target telemetry_test aggregator_test runtime_test mpk_test integration_test
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'FrameCodec|FrameServer|NetSink|Aggregator|ProfileArtifact|ProfileDelta|LatchedPageSet|FleetE2e|Sampler'

  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target pkrusafe_run profile_tool bench_fleet
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN

  echo "-- fleet: live serve round trip (stream -> promote -> artifact)"
  build/tools/profile_tool serve --module=examples/ir/interproc.ir --port=0 \
    --artifact="$out/fleet.artifact" --idle-exit-polls=40 \
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
  wait "$serve_pid"
  grep -q '^promote:' "$out/serve.log"
  [[ -s "$out/fleet.artifact" ]]
  # The exported artifact must load back into an enforcement run.
  build/tools/pkrusafe_run examples/ir/interproc.ir --mode=enforce \
    --artifact="$out/fleet.artifact" --expected-epoch=check >/dev/null

  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_fleet
  grep -q '"bench":"fleet"' "$out/BENCH_fleet.json"
  echo "fleet check OK"
}

run_vpkey() {
  echo "== check: vpkey (build/check-tsan) =="
  # The virtual-pkey cache's lock-free pin fast path races eviction by
  # design (hazard-pointer protocol, see src/multidomain/pin_registry.h), so
  # the multidomain suite — including the stress tests that hammer pins
  # against forced evictions and release/reuse of library entries — runs
  # under ThreadSanitizer, along with the publication protocol of the
  # lock-free library table. ctest -R is case-sensitive: the pattern names
  # the gtest suites, not the binary.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target multidomain_test support_test multidomain_sandbox
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'Vpkey|Multidomain|MultiCompartment|StableIndexArray|example_multidomain'
  echo "-- vpkey: 32 tenants past the 16-key hardware limit"
  build/check-tsan/examples/multidomain_sandbox --libraries=32 --backend=sim
  build/check-tsan/examples/multidomain_sandbox --libraries=32 --backend=mprotect \
    --policy=lfu
  # The resident-key transition bench: entering a cached compartment must
  # stay within 10% of the pre-virtualization (direct hardware key) cost.
  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target bench_vpkey
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN
  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_vpkey
  grep -q '"bench":"vpkey"' "$out/BENCH_vpkey.json"
  echo "vpkey check OK"
}

run_server() {
  echo "== check: server (build/check-tsan) =="
  # The multi-tenant sandbox server: the worker pool, the idle sweep, and a
  # violator's kill all race each other by design, so the server suite and
  # the fork-based mprotect e2e run under ThreadSanitizer, along with the
  # multidomain lifecycle (ReleaseLibrary quarantine) they lean on.
  cmake -B build/check-tsan -S . -DPKRUSAFE_SANITIZE=thread
  cmake --build build/check-tsan -j "$(nproc)" \
    --target server_test multidomain_test integration_test
  ctest --test-dir build/check-tsan --output-on-failure \
    -R 'SandboxServer|ServerE2e|MultiCompartment'

  cmake -B build -S . -DPKRUSAFE_SANITIZE=""
  cmake --build build -j "$(nproc)" --target pkrusafe_serve bench_server
  local out
  out="$(mktemp -d)"
  trap 'rm -rf "$out"' RETURN

  echo "-- server: live round trip (serve -> violate -> survive)"
  build/tools/pkrusafe_serve --port=0 --duration-ms=4000 --enable-vulnerability \
    --crash-dir="$out" --stats > "$out/serve.log" 2>&1 &
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
  grep -q '"violations":1' "$out/serve.log"
  grep -q '"kind":"pkru_safe_crash_report"' "$out/crash-evil.json"

  PKRUSAFE_BENCH_OUT_DIR="$out" build/bench/bench_server
  grep -q '"bench":"server"' "$out/BENCH_server.json"
  echo "server check OK"
}

run_gateintegrity() {
  echo "== check: gateintegrity (build) =="
  # The static half: the PKRU-flow abstract interpreter must prove every
  # top-level corpus module gate-balanced (exit 0, even with notes escalated)
  # and reject every seeded violation module. The link-time half: check-binary
  # must find only sanctioned, registered wrpkru sites in the built tools,
  # cross-checked against the explicit-gate module's IR inventory, and no
  # built executable may need text relocations (the gate registry is
  # read-only and PC-relative). Builds everything so no stale binary is read.
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
  echo "-- check-binary: built tools vs IR gate inventory"
  "$lint" check-binary build/tools/pkrusafe_run examples/ir/explicit_gates.ir
  "$lint" check-binary build/tools/msrun
  echo "-- textrel: executables under build/tools and build/bench"
  local exe textrel=0
  for exe in build/tools/* build/bench/*; do
    [[ -f "$exe" && -x "$exe" ]] || continue
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

case "$mode" in
  plain) run_one "" build "$@" ;;
  asan)  run_one address build/check-asan "$@" ;;
  tsan)  run_one thread build/check-tsan "$@" ;;
  lint)  run_lint ;;
  crash) run_crash ;;
  faultstress) run_faultstress ;;
  contprof) run_contprof ;;
  fleet) run_fleet ;;
  vpkey) run_vpkey ;;
  server) run_server ;;
  gateintegrity) run_gateintegrity ;;
  matrix)
    run_one "" build "$@"
    run_one address build/check-asan "$@"
    run_one thread build/check-tsan "$@"
    run_lint
    run_crash
    run_faultstress
    run_contprof
    run_fleet
    run_vpkey
    run_server
    run_gateintegrity
    ;;
esac
