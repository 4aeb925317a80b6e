#!/usr/bin/env bash
# A/B comparison of two revisions with identical benchmark code:
#
#   bench/ab.sh <rev-a> <rev-b> [pairs]
#
# rev-a is the parent, rev-b the change. Both revisions are exported into a
# temporary directory and the *same* bench/ tree — rev-b's — is overlaid on
# each, so only the simulator differs. kbench is built once per side, then
# `pairs` (default 10) parent/change pairs run in alternating order (A then
# B, B then A, ...) on the pinned seed and on one unseen seed, 1009. Each
# run is one untraced pass per workload.
# The script prints, per workload and seed, both sides' medians and
# quartiles and B's win count for every end-to-end metric, with a verdict,
# plus digest_match for each side (see bench/README.md).
set -euo pipefail

if [ $# -lt 2 ]; then
	echo "usage: $0 <rev-a> <rev-b> [pairs]" >&2
	exit 2
fi
rev_a=$1 rev_b=$2 pairs=${3:-10}
unseen=1009
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/kbench-ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

for side in a b; do
	rev=$rev_a
	[ "$side" = b ] && rev=$rev_b
	mkdir -p "$work/$side/src" "$work/$side/reports"
	git -C "$root" archive "$rev" | tar -x -C "$work/$side/src"
	rm -rf "$work/$side/src/bench"
	git -C "$root" archive "$rev_b" bench | tar -x -C "$work/$side/src"
	(cd "$work/$side/src/bench" && go build -o "$work/$side/kbench" ./cmd/kbench)
	echo "ab: built $side at $rev" >&2
done

# One kbench run; a non-zero exit (a failed cell or a golden-digest
# mismatch, expected on the side whose simulation changed) is reported by
# the comparison, not fatal here.
run() {
	local side=$1 seed=$2 tag=$3
	(cd "$work/$side/src" && "$work/$side/kbench" -reps 1 -trace 0 -seed "$seed" \
		-out "$work/$side/out" -json "$work/$side/reports/$tag.json" >/dev/null) || true
}

pinned=$(sed -n 's/.*"default_seed": *\([0-9]*\).*/\1/p' "$work/b/src/bench/pinned.json")
for seed in "$pinned" "$unseen"; do
	for i in $(seq -w 1 "$pairs"); do
		tag=s$seed-p$i
		if [ $((10#$i % 2)) -eq 1 ]; then
			run a "$seed" "$tag"
			run b "$seed" "$tag"
		else
			run b "$seed" "$tag"
			run a "$seed" "$tag"
		fi
		echo "ab: seed $seed pair $i/$pairs done" >&2
	done
done
"$work/b/kbench" -compare "$work/a/reports" "$work/b/reports"
