package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minRounds is the fewest passes per workload a time-bounded run makes, so
// every median has company.
const minRounds = 3

// executor runs one pass. Production runs each pass in a fresh child
// process; tests run passes in-process.
type executor func(p params, seed int64, traced bool) passResult

// runConfig selects what a kbench invocation measures.
type runConfig struct {
	workloads []params
	seed      int64
	reps      int
	// seconds, when positive, replaces reps: passes continue until this
	// many seconds per workload have elapsed.
	seconds float64
	// trace is 0 for untraced passes only, 1 for an untraced and a traced
	// pass each round, and -1 for untraced rounds plus one final traced
	// pass per workload.
	trace int
}

// report is kbench's JSON output.
type report struct {
	Host      hostInfo         `json:"host"`
	Args      []string         `json:"args"`
	Workloads []workloadReport `json:"workloads"`
}

// hostInfo records where a report was measured.
type hostInfo struct {
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"nproc"`
	GoVersion string `json:"go_version"`
}

// Main runs the kbench command and returns its exit code.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run: all or one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", defaultSeed, "workload seed; golden digests are pinned at the default")
	reps := fs.Int("reps", 5, "untraced passes per workload")
	seconds := fs.Float64("seconds", 0, "if positive, run passes until this many seconds per workload have elapsed (at least 3 passes) instead of -reps")
	trace := fs.Int("trace", -1, "0: untraced passes only; 1: an untraced and a traced pass per round, report per-layer metrics; -1: both kinds of metrics, one traced pass per workload")
	jsonOut := fs.String("json", "", "write the JSON report to this file")
	outDir := fs.String("out", ".kbench", "directory for the traced passes' Chrome trace files")
	compareDirs := fs.Bool("compare", false, "compare two directories of -json reports: kbench -compare DIR_A DIR_B")
	passName := fs.String("pass", "", "run one pass of this workload and print its result as JSON (internal: the child process)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compareDirs {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "kbench: -compare needs two report directories")
			return 2
		}
		if err := compare(fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "kbench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "kbench: -trace must be -1, 0 or 1")
		return 2
	}
	if *passName != "" {
		p, err := workloadByName(*passName)
		if err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 2
		}
		res := runPass(p, *seed, *trace == 1)
		if err := json.NewEncoder(stdout).Encode(res); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		return 0
	}

	cfg := runConfig{seed: *seed, reps: *reps, seconds: *seconds, trace: *trace}
	if *name == "all" {
		cfg.workloads = workloads
	} else {
		p, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 2
		}
		cfg.workloads = []params{p}
	}
	if cfg.reps < 1 && cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "kbench: need -reps >= 1 or -seconds > 0")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "kbench:", err)
		return 1
	}
	reports, traces := run(cfg, childExecutor(self, stderr), stderr)
	if len(traces) > 0 {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
		for _, r := range traces {
			path := filepath.Join(*outDir, r.Workload+".trace.json")
			if err := writeChromeTrace(path, r.Spans); err != nil {
				fmt.Fprintln(stderr, "kbench:", err)
				return 1
			}
			fmt.Fprintf(stderr, "kbench: wrote %s\n", path)
		}
	}
	if *jsonOut != "" {
		rep := report{Host: readHostInfo(), Args: args, Workloads: reports}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, "kbench:", err)
			return 1
		}
	}
	return printReports(stdout, reports, cfg.trace)
}

func workloadNames() []string {
	var out []string
	for _, p := range workloads {
		out = append(out, p.Name)
	}
	return out
}

// childExecutor runs each pass as `self -pass <workload>` and reads the
// child's peak RSS from its resource usage.
func childExecutor(self string, stderr io.Writer) executor {
	return func(p params, seed int64, traced bool) passResult {
		tr := "0"
		if traced {
			tr = "1"
		}
		cmd := exec.Command(self, "-pass", p.Name, "-seed", strconv.FormatInt(seed, 10), "-trace", tr)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		var res passResult
		err := cmd.Run()
		if err == nil {
			err = json.Unmarshal(out.Bytes(), &res)
		}
		if err != nil {
			return passResult{Workload: p.Name, Cells: 1,
				Failures: []string{fmt.Sprintf("%s: pass process: %v", p.Name, err)},
				Metrics:  map[string]float64{}}
		}
		if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			res.Metrics["peak_rss_mb"] = float64(ru.Maxrss) / 1024 // KiB on Linux
		}
		return res
	}
}

// run executes the passes, interleaving workloads round-robin with the
// starting workload rotating each round, and returns one report per
// workload plus the last traced pass of each.
func run(cfg runConfig, exec executor, log io.Writer) ([]workloadReport, []passResult) {
	n := len(cfg.workloads)
	plain := make([][]passResult, n)
	traced := make([][]passResult, n)
	pass := func(i int, tr bool) {
		p := cfg.workloads[i]
		res := exec(p, cfg.seed, tr)
		kind := "pass"
		if tr {
			kind = "traced pass"
			traced[i] = append(traced[i], res)
		} else {
			plain[i] = append(plain[i], res)
		}
		fmt.Fprintf(log, "kbench: %s %s: wall %.3fs, %d/%d cells ok\n",
			p.Name, kind, res.Metrics["wall_s"], res.Cells-len(res.Failures), res.Cells)
	}
	start := time.Now()
	for round := 0; ; round++ {
		if cfg.seconds > 0 {
			if round >= minRounds && time.Since(start).Seconds() >= cfg.seconds*float64(n) {
				break
			}
		} else if round >= cfg.reps {
			break
		}
		for k := 0; k < n; k++ {
			i := (round + k) % n
			pass(i, false)
			if cfg.trace == 1 {
				pass(i, true)
			}
		}
	}
	if cfg.trace < 0 {
		for i := range cfg.workloads {
			pass(i, true)
		}
	}
	var reports []workloadReport
	var last []passResult
	for i, p := range cfg.workloads {
		reports = append(reports, aggregate(p, cfg.seed, plain[i], traced[i]))
		if t := traced[i]; len(t) > 0 {
			last = append(last, t[len(t)-1])
		}
	}
	return reports, last
}

// printReports writes the human-readable tables and, for a single
// workload, the one-line JSON result as the last line of output. It
// returns the exit code: non-zero when any cell failed or any output check
// did not hold.
func printReports(w io.Writer, reports []workloadReport, trace int) int {
	code := 0
	for _, r := range reports {
		fmt.Fprintf(w, "== %s  seed %d  passes %d (+%d traced)  cells %d attempted, %d failed\n",
			r.Workload, r.Seed, r.Passes, r.TracedPasses, r.Attempted, r.Failed)
		match := "n/a (no golden at this seed)"
		if r.DigestMatch != nil {
			match = strconv.FormatBool(*r.DigestMatch)
		}
		fmt.Fprintf(w, "output_digest %s  digest_match %s  digests_agree %t  counts_repeat %t  failed_frac %.4f\n",
			r.Digest, match, r.DigestsAgree, r.CountsRepeat, ratio(float64(r.Failed), float64(r.Attempted)))
		for _, f := range r.Failures {
			fmt.Fprintf(w, "FAILED %s\n", f)
		}
		section := func(title string, ms []metric) {
			fmt.Fprintf(w, "%s (median, or least for peak_rss_mb; [q1, q3] over n passes)\n", title)
			for _, m := range ms {
				s := r.Metrics[m.Name]
				fmt.Fprintf(w, "  %-30s %-6s %14.6g  [%.6g, %.6g]  n=%d\n",
					m.Name, m.Unit, s.Value, s.Q1, s.Q3, s.N)
			}
		}
		if trace != 1 {
			section("end-to-end", endToEnd)
		}
		if trace != 0 {
			section("per-layer", perLayerMetrics)
		}
		if !r.Correct {
			code = 1
		}
	}
	if len(reports) == 1 {
		r := reports[0]
		var ms []metric
		if trace != 1 {
			ms = append(ms, endToEnd...)
		}
		if trace != 0 {
			ms = append(ms, perLayerMetrics...)
		}
		type value struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}
		line := struct {
			Correct   bool             `json:"correct"`
			Attempted int              `json:"attempted"`
			Failed    int              `json:"failed"`
			Metrics   map[string]value `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
		for _, m := range ms {
			line.Metrics[m.Name] = value{r.Metrics[m.Name].Value, m.Unit}
		}
		b, err := json.Marshal(line)
		if err != nil {
			return 1
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return code
}

// writeChromeTrace exports a pass's spans as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing).
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, len(spans))
	for i, s := range spans {
		evs[i] = event{Name: s.Name, Ph: "X", TS: s.StartUS, Dur: s.DurUS, PID: 1, TID: 1,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "cell": s.Cell}}
	}
	b, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readHostInfo describes the measuring host.
func readHostInfo() hostInfo {
	h := hostInfo{NumCPU: runtime.NumCPU(), GoVersion: runtime.Version()}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return h
}
