#!/usr/bin/env bash
# CLI round trip of the profile artifact, the only profile file format:
# emit -> check -> merge -> enforce (alone and with --static), and refusal of
# an artifact recorded against a different module.
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
echo "profile round trip OK"
