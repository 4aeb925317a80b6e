package experiments

import (
	"reflect"
	"testing"
)

// dispatchFigures lists, in order, every figure `-exp all` runs that
// dispatches requests (table1 and fig15 serve no trace).
var dispatchFigures = []struct {
	name string
	run  func(Config) (any, error)
}{
	{"fig2", func(c Config) (any, error) { return Figure2(c) }},
	{"fig5", func(c Config) (any, error) { return Figure5(c) }},
	{"fig12+13", func(c Config) (any, error) { return RunAllSystems(c) }},
	{"fig14", func(c Config) (any, error) { return Figure14(c) }},
	{"fig16", func(c Config) (any, error) { return Figure16(c) }},
	{"fig17", func(c Config) (any, error) { return Figure17(c) }},
}

// The sublinear-dispatch contract at the experiment level: forcing the
// full candidate scan (the semantic oracle) reproduces the indexed
// dispatcher exactly — every dispatching figure of `-exp all`, down to
// each percentile, series, and per-record latency — for the default
// router and each router that carries an incremental index.
func TestScanDispatchMatchesIndexedDispatch(t *testing.T) {
	for _, router := range []string{"", "least-kv", "queue-depth"} {
		for _, fig := range dispatchFigures {
			cfg := Quick()
			cfg.Router = router
			indexed, err := fig.run(cfg)
			if err != nil {
				t.Fatalf("router %q, %s: %v", router, fig.name, err)
			}
			cfg.scanDispatch = true
			scanned, err := fig.run(cfg)
			if err != nil {
				t.Fatalf("router %q, %s with scan dispatch: %v", router, fig.name, err)
			}
			if !reflect.DeepEqual(indexed, scanned) {
				t.Errorf("router %q, %s: scan-dispatch run differs from indexed run", router, fig.name)
			}
		}
	}
}
