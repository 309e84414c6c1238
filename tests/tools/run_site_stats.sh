#!/usr/bin/env bash
# The per-site heap attribution dump from producer to consumer:
# `pkrusafe_run --site-stats=FILE` writes it after an enforcing run, and
# `profile_tool sites` reads it back and cross-checks every site that
# allocated from M_U against the module's static sharing analysis.
#
#   run_site_stats.sh <pkrusafe_run> <profile_tool> <module.ir>
set -euo pipefail

run="$1"
tool="$2"
module="$3"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

"$run" "$module" --mode=enforce --static --site-stats="$out/sites.json" | tee "$out/run.log"
grep -q '^wrote [1-9][0-9]* site record(s) to ' "$out/run.log"
"$tool" sites "$out/sites.json" --module="$module" | tee "$out/sites.log"
grep -q '^cross-check: 0 analyzer miss(es)' "$out/sites.log"
