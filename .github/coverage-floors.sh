#!/usr/bin/env bash
# Coverage floors, one table row per gate:
#
#   label | packages measured (-coverpkg) | floor % | packages whose tests count
#
# Every package holds the general 75% bar. The scheduler core sits above
# it: its §3/§3.4 analyses are the correctness root of every backend, so
# its floor is pinned at 90%. A row fails with "coverage below N% floor";
# all rows run before the script reports failure.
set -euo pipefail
cd "$(dirname "$0")/.."
profile=$(mktemp)
trap 'rm -f "$profile"' EXIT
fail=0
while IFS='|' read -r label pkgs floor tests; do
	# shellcheck disable=SC2086 # $tests is a space-separated package list
	go test -coverprofile="$profile" -coverpkg="$pkgs" $tests
	total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/,"",$3); print $3}')
	echo "$label coverage: ${total}%"
	awk -v t="$total" -v f="$floor" 'BEGIN { if (t+0 < f+0) { print "coverage below " f "% floor"; exit 1 } }' || fail=1
done <<'EOF'
internal/plan + internal/hyperplane|repro/internal/plan,repro/internal/hyperplane|75|. ./ps ./internal/plan ./internal/hyperplane ./internal/interp ./internal/cgen
internal/sched|repro/internal/sched|75|./internal/sched . ./ps ./internal/interp
internal/interp|repro/internal/interp|75|. ./ps ./internal/interp ./internal/cgen
internal/value|repro/internal/value|75|./internal/value . ./ps ./internal/interp
ps/serve|repro/ps/serve|75|./ps/serve
internal/core|repro/internal/core|90|./internal/core
internal/obs|repro/internal/obs|75|./internal/obs . ./ps ./internal/interp
EOF
exit $fail
