#!/usr/bin/env bash
# Measures which statements the command-line surface reaches: builds every
# command and example with statement coverage over the whole module, runs
# them over kunserve-sim's output gates, the remaining figures, traced runs,
# every example spec, every tracegen arrival process and the examples, and
# prints the reached share, the unreached statements per package and the
# 20 largest unreached functions. Output files go to a temporary directory
# that is removed on exit.
#
# Usage: scripts/reach.sh   (about 3 minutes on 2 vCPUs; needs python3)
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin
export GOCOVERDIR=$tmp/cov
mkdir -p "$bin" "$GOCOVERDIR"

go build -cover -coverpkg=./... -o "$bin/" ./cmd/kunserve-sim ./cmd/tracegen ./cmd/costfit \
    ./examples/quickstart ./examples/burst_handling ./examples/extreme_burst ./examples/costmodel_fit

sim() { "$bin/kunserve-sim" "$@" > /dev/null; }

# Every output gate (TestGoldenGates' list), then a traced fig2.
while read -r name args; do
    case $name in '' | '#'*) continue ;; esac
    sim $args < /dev/null
done < cmd/kunserve-sim/testdata/gates.txt
sim -exp fig2 -json -parallel 1 -trace "$tmp/trace.json"
rm -f "$tmp/trace.json"

# The figures no gate runs, and traced runs of the whole surface.
for e in fig5 fig13 fig14 fig15 fig16 fig17 table1; do
    sim -exp "$e" -json
done
sim -exp all -json -trace /dev/null
sim -exp disagg -json -trace /dev/null

# Every example spec, the trace generator and the examples.
for s in examples/specs/*.json; do
    sim -exp all -json -spec "$s"
    "$bin/tracegen" -spec "$s" > /dev/null 2>&1
done
for a in poisson gamma weibull diurnal mmpp; do
    "$bin/tracegen" -arrival "$a" > /dev/null 2>&1
done
"$bin/costfit" > /dev/null
for e in quickstart burst_handling extreme_burst costmodel_fit; do
    "$bin/$e" > /dev/null
done

go tool covdata textfmt -i="$GOCOVERDIR" -o "$tmp/cover.txt"
go tool cover -func="$tmp/cover.txt" > "$tmp/funcs.txt"
python3 - "$tmp/cover.txt" "$tmp/funcs.txt" <<'EOF'
import collections, os, sys

# Coverage blocks: "path/file.go:l.c,l.c statements count", merged by block.
blocks = {}
for line in open(sys.argv[1]):
    if line.startswith("mode:"):
        continue
    pos, stmts, count = line.split()
    blocks[pos] = (int(stmts), max(int(count), blocks.get(pos, (0, 0))[1]))

# Function start lines from go tool cover -func: a block belongs to the
# last function starting at or above it in its file.
starts = collections.defaultdict(list)
for line in open(sys.argv[2]):
    fields = line.split()
    if fields[0] == "total:":
        continue
    path, lno = fields[0].rstrip(":").rsplit(":", 1)
    starts[os.path.basename(path), os.path.dirname(path)].append((int(lno), fields[1]))
for v in starts.values():
    v.sort()

total = reached = 0
pkg = collections.Counter()
pkg_total = collections.Counter()
fn = collections.Counter()
for pos, (stmts, count) in blocks.items():
    path, span = pos.split(":")
    line = int(span.split(".")[0])
    d = os.path.dirname(path)
    total += stmts
    pkg_total[d] += stmts
    if count > 0:
        reached += stmts
        continue
    pkg[d] += stmts
    name = "?"
    for lno, f in starts[os.path.basename(path), d]:
        if lno > line:
            break
        name = f
    fn[path, name] += stmts

print(f"reached {reached} of {total} statements ({100 * reached / total:.1f}%)")
print("\nunreached statements by package:")
for d, n in sorted(pkg.items(), key=lambda kv: (-kv[1], kv[0])):
    print(f"  {n:5d} of {pkg_total[d]:5d}  {d}")
print("\nlargest unreached functions:")
for (path, name), n in sorted(fn.items(), key=lambda kv: (-kv[1], kv[0]))[:20]:
    print(f"  {n:5d}  {path} {name}")
EOF
