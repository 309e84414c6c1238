#!/usr/bin/env bash
# CLI round trip of the profile artifact, the only profile file format:
# emit -> check -> merge -> enforce (alone and with --static), refusal of an
# artifact recorded against a different module, and the delta-stream path: a
# frame log from --profile-stream, drained by `profile_tool aggregate`.
#
#   profile_roundtrip.sh <pkrusafe_run> <profile_tool> <examples/ir dir>
set -euo pipefail

run="$1"
tool="$2"
ir="$3"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

step() { echo "-- $*"; }

step "emit two profiling runs as artifacts"
"$run" "$ir/interproc.ir" --mode=profile --emit-profile="$out/a.artifact" --epoch=run-a
"$run" "$ir/interproc.ir" --mode=profile --emit-profile="$out/b.artifact" --epoch=run-b
grep -q '^epoch run-a 1 1$' "$out/a.artifact"

step "check the artifact against its module"
"$tool" check "$ir/interproc.ir" "$out/a.artifact"

step "merge keeps the ir_hash and both epochs, in argument order"
"$tool" merge "$out/merged.artifact" "$out/a.artifact" "$out/b.artifact"
[[ "$(grep '^ir_hash ' "$out/merged.artifact")" == "$(grep '^ir_hash ' "$out/a.artifact")" ]]
[[ "$(grep '^epoch ' "$out/merged.artifact" | cut -d' ' -f2 | paste -sd,)" == "run-a,run-b" ]]
grep -q '^site 0:0:0 2$' "$out/merged.artifact"
if grep -q '^promoted ' "$out/merged.artifact"; then
  echo "merge wrote promoted lines" >&2
  exit 1
fi

step "enforce with the merged artifact"
"$run" "$ir/interproc.ir" --mode=enforce --profile="$out/merged.artifact" \
  --expected-epoch=run-b > "$out/enforce.log"
grep -q 'moved=1' "$out/enforce.log"

step "enforce with the merged artifact unioned with --static"
"$run" "$ir/interproc.ir" --mode=enforce --profile="$out/merged.artifact" --static

step "an artifact from another module is refused"
"$run" "$ir/linked_chain.ir" --mode=profile --emit-profile="$out/foreign.artifact"
if "$run" "$ir/interproc.ir" --mode=enforce --profile="$out/foreign.artifact"; then
  echo "enforce accepted a foreign artifact" >&2
  exit 1
fi
if "$tool" check "$ir/interproc.ir" "$out/foreign.artifact" > "$out/check.log"; then
  echo "check accepted a foreign artifact" >&2
  exit 1
fi
grep -q 'stale-profile-hash' "$out/check.log"
if "$tool" merge "$out/mixed.artifact" "$out/a.artifact" "$out/foreign.artifact"; then
  echo "merge accepted artifacts of different builds" >&2
  exit 1
fi
[[ ! -e "$out/mixed.artifact" ]]

step "stream a frame log, aggregate it into an artifact, check and enforce it"
"$run" "$ir/interproc.ir" --mode=profile --profile-stream="$out/s.psf" --epoch=check
"$tool" aggregate --module="$ir/interproc.ir" --out="$out/agg.artifact" "$out/s.psf" \
  > "$out/aggregate.log"
grep -q '^promote: 0:0:0 ' "$out/aggregate.log"
grep -q '^rejected: 0 hash, 0 malformed, 0 sequence; frames: 0 resync' "$out/aggregate.log"
diff "$out/agg.artifact" - <<'ARTIFACT'
# pkru-safe profile artifact v1
ir_hash 0xccde12e9952a3a39
epoch check 1 1
promoted 0:0:0 1
site 0:0:0 1
crc32 0x68027597
ARTIFACT
"$tool" check "$ir/interproc.ir" "$out/agg.artifact"
"$run" "$ir/interproc.ir" --mode=enforce --profile="$out/agg.artifact" \
  --expected-epoch=check > "$out/agg-enforce.log"
grep -q 'moved=1' "$out/agg-enforce.log"
echo "profile round trip OK"
