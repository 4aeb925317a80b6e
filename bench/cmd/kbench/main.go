// Command kbench runs the simulator benchmark: every workload as several
// passes, each in a fresh child process, interleaved across workloads, plus
// a CPU-profiled pass per workload for the per-layer split. It prints every
// metric by name with its unit, checks the outputs, and exits non-zero when
// any cell fails or an output check does not hold. See bench/README.md.
package main

import (
	"os"

	"kunserve/bench"
)

func main() {
	os.Exit(bench.Main(os.Args[1:], os.Stdout, os.Stderr))
}
