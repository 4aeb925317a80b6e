// Package runner executes a matrix of serving-system simulations — (policy ×
// config × trace) cells — across a bounded worker pool. Every cell is a
// self-contained deterministic world (its own sim kernel, cluster, and
// collector), so cells are embarrassingly parallel, and because each worker
// writes into the cell's submission-order result slot, the output of
// Set.Execute is bit-identical to sequential execution regardless of worker
// count or scheduling. The experiments layer submits its figure runs here
// instead of looping; sweeps fan whole parameter grids into one Set.
package runner

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"kunserve/internal/cluster"
	"kunserve/internal/obs"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
)

// Cell is one point of the run matrix: a cluster configuration, a policy
// factory, and a trace to serve until Horizon.
type Cell struct {
	// Key identifies the cell in results and error messages
	// (e.g. "fig12/KunServe" or "load=0.75/vLLM (DP)").
	Key string
	// Cluster assembles the serving cluster. Its Policy field is
	// overwritten with a freshly built NewPolicy() instance, so stateful
	// policies are never shared across cells.
	Cluster cluster.Config
	// NewPolicy builds the cell's policy. It runs inside the worker, once.
	NewPolicy func() cluster.Policy
	// Trace is the workload. Cells may share one trace: it is only read
	// during execution.
	Trace *workload.Trace
	// Horizon bounds the simulation (trace end plus drain slack).
	Horizon sim.Time
}

// Result is one executed cell. Exactly one of Summary/Err is meaningful.
// Cluster is populated by Run but dropped by Set.Execute: a matrix keeps
// only summaries, releasing each cell's simulated world (kernel, event
// queue, request objects) as soon as it is scraped. Summaries do retain
// per-record latency slices for SLO recomputation, so a grid's footprint
// is O(cells x requests) floats — small next to the worlds themselves.
type Result struct {
	Key     string
	Cluster *cluster.Cluster
	Summary Summary
	Err     error
	// WallSeconds is the host wall-clock span of the cell's execution
	// (build, serve, summarize). Timing diagnostics only — it is never part
	// of a Summary, which must stay machine-independent.
	WallSeconds float64
}

// Run executes one cell synchronously: build the policy and cluster, serve
// the trace, summarize the collector. Panics inside the simulated world are
// recovered into the result error so one bad cell cannot take down a whole
// sweep.
func Run(c Cell) (res Result) {
	res.Key = c.Key
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			res.Cluster = nil
			res.Err = fmt.Errorf("runner: cell %q panicked: %v\n%s", c.Key, r, debug.Stack())
		}
		res.WallSeconds = time.Since(start).Seconds()
	}()
	cfg := c.Cluster
	if c.NewPolicy != nil {
		cfg.Policy = c.NewPolicy()
	}
	cl, err := cluster.New(cfg)
	if err != nil {
		res.Err = fmt.Errorf("runner: cell %q: %w", c.Key, err)
		return res
	}
	cl.Serve(c.Trace, c.Horizon)
	res.Cluster = cl
	res.Summary = Summarize(cl)
	res.Summary.Key = c.Key
	// Dispatch failures (no live group) degrade the cell to an error —
	// aggregated by Execute — instead of crashing the whole run set. The
	// summary above still reflects whatever the run did complete.
	if err := cl.Err(); err != nil {
		res.Err = fmt.Errorf("runner: cell %q: %w", c.Key, err)
	}
	return res
}

// DefaultReservoir is the per-distribution sample capacity of bounded
// metrics (cluster.Config.MetricsReservoir), which the cluster-scale sweep
// (experiments.ExperimentScale) runs with: large enough for stable tail
// percentiles (p99.9 of 4096 uniform samples), small enough that a
// thousand-cell sweep's metrics stay in the tens of megabytes.
const DefaultReservoir = 4096

// Set is an ordered collection of cells executed across a bounded worker
// pool. Build it with NewSet, Add cells, then Execute once.
type Set struct {
	parallel int
	cells    []Cell

	// Obs, when set before any Add, attaches a per-cell trace recorder to
	// every added cell (keyed by Cell.Key). Recorders register at Add time
	// — which is sequential — so the sink's run order, and therefore the
	// exported trace, is identical at any parallelism.
	Obs *obs.Sink
}

// NewSet creates a run set with the given worker bound; parallel < 1 selects
// GOMAXPROCS.
func NewSet(parallel int) *Set {
	if parallel < 1 {
		parallel = runtime.GOMAXPROCS(0)
	}
	return &Set{parallel: parallel}
}

// Add appends a cell to the matrix. Results come back in Add order.
func (s *Set) Add(c Cell) {
	if s.Obs != nil && c.Cluster.Tracer == nil {
		c.Cluster.Tracer = s.Obs.Recorder(c.Key)
	}
	s.cells = append(s.cells, c)
}

// Len returns the number of submitted cells.
func (s *Set) Len() int { return len(s.cells) }

// Parallel returns the worker bound.
func (s *Set) Parallel() int { return s.parallel }

// Execute runs every cell and returns the results in submission order plus
// the aggregate of all per-cell errors (errors.Join; nil when every cell
// succeeded). Results are identical whatever the worker count: each cell's
// simulation depends only on its own inputs, never on scheduling.
func (s *Set) Execute() ([]Result, error) {
	results := make([]Result, len(s.cells))
	workers := s.parallel
	if workers > len(s.cells) {
		workers = len(s.cells)
	}
	// runCell releases the simulated world as soon as it is summarized:
	// a 100-cell sweep must not pin 100 sim kernels.
	runCell := func(i int) {
		r := Run(s.cells[i])
		r.Cluster = nil
		results[i] = r
	}
	if workers <= 1 {
		for i := range s.cells {
			runCell(i)
		}
	} else {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					runCell(i)
				}
			}()
		}
		for i := range s.cells {
			idx <- i
		}
		close(idx)
		wg.Wait()
	}
	var errs []error
	for i := range results {
		if results[i].Err != nil {
			errs = append(errs, results[i].Err)
		}
	}
	return results, errors.Join(errs...)
}

// DeriveSeed maps a base seed and a cell key to a stable per-cell seed
// (FNV-1a over both, then a splitmix64 finalizer). Replicate sweeps use it to
// get independent, order-independent randomness per cell without hand-picked
// seed lists. The result is always positive so it never collides with the
// "use the default" zero value of config seeds.
func DeriveSeed(base int64, key string) int64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	h.Write(b[:])
	h.Write([]byte(key))
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	seed := int64(x >> 1) // clear the sign bit
	if seed == 0 {
		seed = 1
	}
	return seed
}
