// Package spec defines a declarative JSON workload specification: multiple
// clients, each with a share of the total request rate, a pluggable arrival
// process, token-length distributions (a named §5.1 dataset or explicit
// log-normal parameters), an optional SLO class, and optionally a recorded
// CSV trace to replay. A spec compiles into one merged, time-ordered
// workload.Trace whose requests carry their client and SLO-class tags.
//
// Example:
//
//	{
//	  "name": "two_client",
//	  "seed": 42,
//	  "duration_s": 128,
//	  "total_rps": 10,
//	  "clients": [
//	    {"name": "interactive", "rate_fraction": 0.7, "slo_class": "strict",
//	     "arrival": {"process": "gamma", "cv": 3.5}, "dataset": "sharegpt"},
//	    {"name": "batch", "rate_fraction": 0.3,
//	     "arrival": {"process": "poisson"}, "dataset": "longbench"}
//	  ]
//	}
//
// Supported arrival processes: poisson, gamma (cv), weibull (shape),
// diurnal (amplitude, period_s, phase_rad), mmpp (states), and the paper's
// burst / longrun piecewise schedules. A client may declare a shared_prefix
// token count: every request of that client then starts with the same
// system prompt, which the paged KVCache deduplicates when prefix caching
// is enabled. Uses only the standard library.
package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"kunserve/internal/sched"
	"kunserve/internal/sim"
	"kunserve/internal/workload"
	"kunserve/internal/workload/arrival"
)

// Spec is a complete workload description.
type Spec struct {
	// Name labels the compiled trace.
	Name string `json:"name"`
	// Seed drives all randomness; client i derives a distinct sub-seed.
	Seed int64 `json:"seed"`
	// DurationS is the trace length in seconds.
	DurationS float64 `json:"duration_s"`
	// TotalRPS is the aggregate request rate split across clients.
	TotalRPS float64 `json:"total_rps"`
	// Clients are the traffic sources to merge.
	Clients []Client `json:"clients"`
	// SLOClasses declares per-class SLO targets keyed by the class names
	// clients reference via slo_class. Deadline- and priority-driven
	// queue disciplines and the per-class attainment metrics read them.
	SLOClasses map[string]SLOClass `json:"slo_classes,omitempty"`

	// baseDir resolves relative trace_file paths; set by Load.
	baseDir string
}

// Client is one traffic source of a mix.
type Client struct {
	// Name tags every request this client emits.
	Name string `json:"name"`
	// RateFraction is this client's share of TotalRPS (need not sum to 1
	// across clients; each client's rate is TotalRPS*RateFraction).
	RateFraction float64 `json:"rate_fraction"`
	// Arrival selects and parameterizes the arrival process.
	Arrival Arrival `json:"arrival"`
	// Dataset names a built-in length distribution pair (burstgpt,
	// sharegpt, longbench); alternatively give Input and Output.
	Dataset string `json:"dataset,omitempty"`
	// Input/Output are explicit log-normal token-length distributions,
	// overriding Dataset when both are set.
	Input  *Length `json:"input,omitempty"`
	Output *Length `json:"output,omitempty"`
	// SLOClass tags requests with a service class (e.g. "strict", "batch").
	SLOClass string `json:"slo_class,omitempty"`
	// SharedPrefix declares that the first SharedPrefix tokens of every
	// request's prompt are identical across this client (a system prompt
	// or agent scaffold). The paged KVCache's prefix sharing keys on it;
	// requests whose sampled prompt is not longer than the prefix carry a
	// clamped per-request value (at least one private token remains, since
	// real engines always compute the final prompt token for its logits).
	SharedPrefix int `json:"shared_prefix,omitempty"`
	// TraceFile replays a recorded CSV trace instead of generating
	// arrivals; Arrival/Dataset/Input/Output are ignored. Relative paths
	// resolve against the spec file's directory. Replayed arrivals past
	// the spec's duration_s are clipped so every client covers the same
	// window.
	TraceFile string `json:"trace_file,omitempty"`
	// Upscale rescales a replayed trace TraceUpscaler-style (1 = as-is).
	Upscale float64 `json:"upscale,omitempty"`
}

// Arrival parameterizes an arrival process. Process selects the family;
// the other fields apply only where noted.
type Arrival struct {
	// Process: poisson, gamma, weibull, diurnal, mmpp, burst, longrun.
	Process string `json:"process"`
	// CV is the gamma inter-arrival coefficient of variation (default 1).
	CV float64 `json:"cv,omitempty"`
	// Shape is the weibull shape (default 1 = Poisson).
	Shape float64 `json:"shape,omitempty"`
	// Amplitude is the diurnal relative swing in [0,1] (default 0.5; an
	// explicit 0 means a flat rate).
	Amplitude *float64 `json:"amplitude,omitempty"`
	// PeriodS is the diurnal cycle length in seconds (default: duration).
	PeriodS float64 `json:"period_s,omitempty"`
	// PhaseRad shifts the diurnal cycle start (radians).
	PhaseRad float64 `json:"phase_rad,omitempty"`
	// States parameterize an mmpp process.
	States []MMPPState `json:"states,omitempty"`
}

// MMPPState is one MMPP rate regime, relative to the client's rate.
type MMPPState struct {
	// RateMultiplier scales the client's rate while in this state.
	RateMultiplier float64 `json:"rate_multiplier"`
	// MeanSojournS is the mean dwell time in seconds.
	MeanSojournS float64 `json:"mean_sojourn_s"`
}

// SLOClass declares one service class's targets. Zero fields mean no
// target on that dimension.
type SLOClass struct {
	// TTFTS is the time-to-first-token target in seconds.
	TTFTS float64 `json:"ttft_s,omitempty"`
	// TBTMS is the time-between-tokens (TPOT) target in milliseconds.
	TBTMS float64 `json:"tbt_ms,omitempty"`
	// Priority orders classes under the priority queue discipline;
	// larger is served first (default 0).
	Priority int `json:"priority,omitempty"`
}

// ClassTargets converts the spec's SLO classes into the scheduling
// layer's representation (TBT milliseconds become seconds).
func (s *Spec) ClassTargets() sched.ClassTargets {
	if len(s.SLOClasses) == 0 {
		return nil
	}
	out := make(sched.ClassTargets, len(s.SLOClasses))
	for name, c := range s.SLOClasses {
		out[name] = sched.ClassTarget{
			TTFT:     c.TTFTS,
			TBT:      c.TBTMS / 1000,
			Priority: c.Priority,
		}
	}
	return out
}

// Length mirrors workload.LengthDist for JSON.
type Length struct {
	Mean  float64 `json:"mean"`
	Sigma float64 `json:"sigma"`
	Min   int     `json:"min"`
	Max   int     `json:"max"`
}

func (l *Length) dist() workload.LengthDist {
	return workload.LengthDist{Mean: l.Mean, Sigma: l.Sigma, Min: l.Min, Max: l.Max}
}

// Parse decodes a spec from JSON, rejecting unknown fields so typos in
// hand-written specs fail loudly.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file. Relative trace_file paths in the
// spec resolve against the file's directory.
func Load(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		// Parse errors already carry the "spec:" prefix.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	s.baseDir = filepath.Dir(path)
	return s, nil
}

// finite reports whether v is neither NaN nor infinite. JSON cannot spell
// either, but a Spec built in Go can hold them, and NaN passes every
// ordered comparison's negation (NaN <= 0 is false).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// Validate checks the spec for structural errors.
func (s *Spec) Validate() error {
	if _, err := workload.DurationSeconds(s.DurationS); err != nil {
		return fmt.Errorf("spec: duration_s: %w", err)
	}
	if !finite(s.TotalRPS) {
		return fmt.Errorf("spec: total_rps must be finite, got %v", s.TotalRPS)
	}
	if len(s.Clients) == 0 {
		return fmt.Errorf("spec: no clients")
	}
	for name, c := range s.SLOClasses {
		if !finite(c.TTFTS) || !finite(c.TBTMS) {
			return fmt.Errorf("spec: slo class %q: non-finite target", name)
		}
		if c.TTFTS < 0 || c.TBTMS < 0 {
			return fmt.Errorf("spec: slo class %q: negative target", name)
		}
	}
	// With a declared slo_classes block, a client referencing an
	// undeclared class is almost certainly a typo — it would silently run
	// at priority 0 with no targets and report perfect attainment.
	// Class-tagged specs without the block stay valid (tags predate
	// targets).
	if len(s.SLOClasses) > 0 {
		for _, c := range s.Clients {
			if c.SLOClass == "" {
				continue
			}
			if _, ok := s.SLOClasses[c.SLOClass]; !ok {
				return fmt.Errorf("spec: client %q references undeclared slo class %q",
					c.Name, c.SLOClass)
			}
		}
	}
	generated := false
	for i, c := range s.Clients {
		name := c.Name
		if name == "" {
			return fmt.Errorf("spec: client %d has no name", i)
		}
		if c.SharedPrefix < 0 {
			return fmt.Errorf("spec: client %q: negative shared_prefix", name)
		}
		if c.TraceFile != "" {
			if !finite(c.Upscale) || c.Upscale < 0 {
				return fmt.Errorf("spec: client %q: upscale must be finite and non-negative, got %v", name, c.Upscale)
			}
			continue
		}
		generated = true
		if !finite(c.RateFraction) || c.RateFraction <= 0 {
			return fmt.Errorf("spec: client %q: rate_fraction must be finite and positive, got %v", name, c.RateFraction)
		}
		if c.Dataset == "" && (c.Input == nil || c.Output == nil) {
			return fmt.Errorf("spec: client %q: need dataset or input+output distributions", name)
		}
		if c.Dataset != "" {
			if _, err := workload.DatasetByName(c.Dataset); err != nil {
				return fmt.Errorf("spec: client %q: %w", name, err)
			}
		}
		// Build the process against a placeholder rate to surface
		// parameter errors at load time rather than compile time.
		if _, err := c.Arrival.Build(1, sim.DurationFromSeconds(s.DurationS)); err != nil {
			return fmt.Errorf("spec: client %q: %w", name, err)
		}
	}
	if generated && s.TotalRPS <= 0 {
		return fmt.Errorf("spec: total_rps must be positive, got %v", s.TotalRPS)
	}
	return nil
}

// Build constructs the described arrival process at the given rate (the
// spec's and tracegen's single construction path — defaults live here).
// Stateful processes are freshly constructed on every call.
func (a Arrival) Build(rate float64, duration sim.Duration) (arrival.Process, error) {
	switch a.Process {
	case "", "poisson":
		return arrival.NewPoisson(rate)
	case "gamma":
		cv := a.CV
		if cv == 0 {
			cv = 1
		}
		return arrival.NewGamma(rate, cv)
	case "weibull":
		shape := a.Shape
		if shape == 0 {
			shape = 1
		}
		return arrival.NewWeibull(rate, shape)
	case "diurnal":
		amp := 0.5
		if a.Amplitude != nil {
			amp = *a.Amplitude
		}
		period := duration
		if a.PeriodS > 0 {
			period = sim.DurationFromSeconds(a.PeriodS)
		}
		return arrival.NewDiurnal(rate, amp, period, a.PhaseRad)
	case "mmpp":
		states := make([]arrival.MMPPState, len(a.States))
		for i, st := range a.States {
			states[i] = arrival.MMPPState{
				Rate:        rate * st.RateMultiplier,
				MeanSojourn: sim.DurationFromSeconds(st.MeanSojournS),
			}
		}
		return arrival.NewMMPP(states)
	case "burst":
		return arrival.NewPiecewise(workload.ScaledBurstSchedule(rate, duration))
	case "longrun":
		return arrival.NewPiecewise(workload.ScaledLongRunSchedule(rate, duration))
	}
	return nil, fmt.Errorf("unknown arrival process %q", a.Process)
}

// lengths resolves the client's input/output distributions.
func (c Client) lengths() (workload.Dataset, error) {
	if c.Input != nil && c.Output != nil {
		return workload.Dataset{Name: c.Name, Input: c.Input.dist(), Output: c.Output.dist()}, nil
	}
	ds, err := workload.DatasetByName(c.Dataset)
	if err != nil {
		return workload.Dataset{}, err
	}
	return ds, nil
}

// Compile validates the spec, then generates every client's trace and
// merges them into one time-ordered trace. Deterministic: the same spec
// and seed always yield the same trace.
func (s *Spec) Compile() (*workload.Trace, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	duration := sim.DurationFromSeconds(s.DurationS)
	var parts []*workload.Trace
	for i, c := range s.Clients {
		// Distinct, well-separated sub-seed per client so client traces
		// are independent but reproducible.
		subSeed := s.Seed + int64(i+1)*1_000_003
		var tr *workload.Trace
		if c.TraceFile != "" {
			var err error
			tr, err = s.replay(c, subSeed)
			if err != nil {
				return nil, err
			}
		} else {
			rate := s.TotalRPS * c.RateFraction
			proc, err := c.Arrival.Build(rate, duration)
			if err != nil {
				return nil, fmt.Errorf("spec: client %q: %w", c.Name, err)
			}
			ds, err := c.lengths()
			if err != nil {
				return nil, fmt.Errorf("spec: client %q: %w", c.Name, err)
			}
			tr = workload.GenerateProcess(subSeed, duration, proc, ds)
		}
		for j := range tr.Requests {
			tr.Requests[j].Client = c.Name
			tr.Requests[j].Class = c.SLOClass
			if c.SharedPrefix > 0 {
				// Clamp per request so at least one prompt token stays
				// private: requests of the same client still share
				// their common full blocks whatever their lengths.
				sp := c.SharedPrefix
				if sp >= tr.Requests[j].InputLen {
					sp = tr.Requests[j].InputLen - 1
				}
				tr.Requests[j].SharedPrefix = sp
			}
		}
		parts = append(parts, tr)
	}
	name := s.Name
	if name == "" {
		name = "spec"
	}
	return workload.Merge(name, parts...), nil
}

// replay loads a client's recorded trace, optionally upscaled.
func (s *Spec) replay(c Client, seed int64) (*workload.Trace, error) {
	path := c.TraceFile
	if !filepath.IsAbs(path) && s.baseDir != "" {
		path = filepath.Join(s.baseDir, path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("spec: client %q: %w", c.Name, err)
	}
	defer f.Close()
	tr, err := workload.ReadCSV(c.Name, f)
	if err != nil {
		return nil, fmt.Errorf("spec: client %q: %w", c.Name, err)
	}
	if c.Upscale > 0 && c.Upscale != 1 {
		tr = workload.Upscale(tr, c.Upscale, seed)
	}
	// Clip to the spec's window so a long recording doesn't stretch the
	// mix past the duration every generated client stops at.
	end := sim.FromSeconds(s.DurationS)
	clipped := tr.Requests[:0]
	for _, r := range tr.Requests {
		if r.Arrival < end {
			clipped = append(clipped, r)
		}
	}
	tr.Requests = clipped
	return tr, nil
}
