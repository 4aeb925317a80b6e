// Package workload generates the request traces of the paper's evaluation
// (§5.1). The arrival pattern follows the BurstGPT trace — a baseline
// request rate with sudden ~2x spikes at no predictable time — and the
// per-request input/output lengths are drawn from distributions matching the
// three evaluated datasets (BurstGPT, ShareGPT, LongBench). A
// TraceUpscaler-style rescaler scales RPS while preserving the temporal
// pattern, which is how the paper fits the trace to testbed capacity.
//
// Arrivals are produced by pluggable processes from the arrival subpackage
// (Poisson, Gamma, Weibull, Diurnal, MMPP); the piecewise-constant burst
// schedules below are Poisson processes over a rate schedule. Multi-client
// traffic mixes are described declaratively by the spec subpackage.
package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"kunserve/internal/sim"
	"kunserve/internal/workload/arrival"
)

// Request is one trace entry: a prompt of InputLen tokens arriving at
// Arrival that will generate OutputLen tokens. Client and Class are set for
// spec-generated multi-client traces (empty otherwise): Client names the
// originating spec client, Class its SLO class. SharedPrefix marks the
// first SharedPrefix prompt tokens as identical across every request with
// the same Client (a per-client system prompt); the paged KVCache's prefix
// sharing keys on it.
type Request struct {
	ID           int
	Arrival      sim.Time
	InputLen     int
	OutputLen    int
	Client       string
	Class        string
	SharedPrefix int
}

// Trace is a time-ordered request sequence.
type Trace struct {
	Name     string
	Requests []Request
}

// Fingerprint returns a stable FNV-1a hash over the trace's full content —
// name and every field of every request. Equal traces hash equal on every
// platform; tests use it to prove the absence of writes through a trace
// that concurrent cells share.
func (t *Trace) Fingerprint() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= prime64
			x >>= 8
		}
	}
	str := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		mix(uint64(len(s)))
	}
	str(t.Name)
	mix(uint64(len(t.Requests)))
	for i := range t.Requests {
		r := &t.Requests[i]
		mix(uint64(r.ID))
		mix(uint64(r.Arrival))
		mix(uint64(r.InputLen))
		mix(uint64(r.OutputLen))
		str(r.Client)
		str(r.Class)
		mix(uint64(r.SharedPrefix))
	}
	return h
}

// LengthDist is a clamped log-normal token-length distribution,
// parameterized by its mean (tokens) and the log-space sigma controlling
// tail heaviness.
type LengthDist struct {
	Mean  float64
	Sigma float64
	Min   int
	Max   int
}

// Sample draws one length.
func (d LengthDist) Sample(rng *rand.Rand) int {
	// E[lognormal(mu, sigma)] = exp(mu + sigma^2/2)  =>  mu from Mean.
	mu := math.Log(d.Mean) - d.Sigma*d.Sigma/2
	v := int(math.Exp(rng.NormFloat64()*d.Sigma + mu))
	if v < d.Min {
		v = d.Min
	}
	if d.Max > 0 && v > d.Max {
		v = d.Max
	}
	return v
}

// Dataset pairs input and output length distributions (§5.1).
type Dataset struct {
	Name   string
	Input  LengthDist
	Output LengthDist
}

// BurstGPTDataset: conversational; average input 642, output 262.
func BurstGPTDataset() Dataset {
	return Dataset{
		Name:   "burstgpt",
		Input:  LengthDist{Mean: 642, Sigma: 0.9, Min: 16, Max: 8192},
		Output: LengthDist{Mean: 262, Sigma: 0.9, Min: 4, Max: 4096},
	}
}

// ShareGPTDataset: chatbot with longer turns; average input 1660 (max 4K),
// output 373.
func ShareGPTDataset() Dataset {
	return Dataset{
		Name:   "sharegpt",
		Input:  LengthDist{Mean: 1660, Sigma: 0.8, Min: 32, Max: 4096},
		Output: LengthDist{Mean: 373, Sigma: 0.8, Min: 4, Max: 4096},
	}
}

// LongBenchDataset: document summarization; average input 5.9K, output 499.
func LongBenchDataset() Dataset {
	return Dataset{
		Name:   "longbench",
		Input:  LengthDist{Mean: 5900, Sigma: 0.6, Min: 512, Max: 32768},
		Output: LengthDist{Mean: 499, Sigma: 0.6, Min: 16, Max: 2048},
	}
}

// DatasetByName returns a dataset by its §5.1 name, or an error.
func DatasetByName(name string) (Dataset, error) {
	switch name {
	case "burstgpt":
		return BurstGPTDataset(), nil
	case "sharegpt":
		return ShareGPTDataset(), nil
	case "longbench":
		return LongBenchDataset(), nil
	}
	return Dataset{}, fmt.Errorf("workload: unknown dataset %q", name)
}

// RateSegment starts a new piecewise-constant arrival rate at Start. It is
// an alias for arrival.Segment so schedules flow directly into the
// arrival-process layer.
type RateSegment = arrival.Segment

// BurstSchedule reproduces the Figure 2 pattern over a ~128 s window: a
// baseline rate that roughly doubles at 45 s with no warning, holds through
// the burst, and relaxes.
func BurstSchedule(baseRPS float64) []RateSegment {
	return ScaledBurstSchedule(baseRPS, 128*sim.Second)
}

// ScaledBurstSchedule is BurstSchedule with the burst positions scaled to
// an arbitrary trace duration (the temporal pattern is preserved, per
// TraceUpscaler's methodology).
func ScaledBurstSchedule(baseRPS float64, duration sim.Duration) []RateSegment {
	at := func(frac float64) sim.Time {
		return sim.Time(float64(duration) * frac)
	}
	return []RateSegment{
		{Start: 0, RPS: baseRPS},
		{Start: at(45.0 / 128), RPS: 2.1 * baseRPS},
		{Start: at(75.0 / 128), RPS: 1.2 * baseRPS},
		{Start: at(95.0 / 128), RPS: baseRPS},
	}
}

// LongRunSchedule reproduces the Figure 16 640 s run with two burst waves.
func LongRunSchedule(baseRPS float64) []RateSegment {
	return ScaledLongRunSchedule(baseRPS, 640*sim.Second)
}

// ScaledLongRunSchedule is LongRunSchedule scaled to an arbitrary duration.
func ScaledLongRunSchedule(baseRPS float64, duration sim.Duration) []RateSegment {
	at := func(frac float64) sim.Time {
		return sim.Time(float64(duration) * frac)
	}
	return []RateSegment{
		{Start: 0, RPS: baseRPS},
		{Start: at(80.0 / 640), RPS: 2.0 * baseRPS},
		{Start: at(150.0 / 640), RPS: baseRPS},
		{Start: at(430.0 / 640), RPS: 2.3 * baseRPS},
		{Start: at(520.0 / 640), RPS: baseRPS},
	}
}

// SteadySchedule is a constant-rate schedule for calibration runs.
func SteadySchedule(rps float64) []RateSegment {
	return []RateSegment{{Start: 0, RPS: rps}}
}

// Generate produces a trace of Poisson arrivals following the schedule for
// the given duration, with lengths drawn from the dataset. The same seed
// always yields the same trace. It is a thin wrapper over GenerateProcess
// with a piecewise-constant Poisson process; seeds produce traces identical
// to the pre-arrival-layer generator.
func Generate(seed int64, duration sim.Duration, sched []RateSegment, ds Dataset) *Trace {
	if len(sched) == 0 {
		panic("workload: empty rate schedule")
	}
	return GenerateProcess(seed, duration, &arrival.Piecewise{Segments: sched}, ds)
}

// GenerateProcess produces a trace whose arrivals are drawn from proc and
// whose lengths come from the dataset, all from one seeded RNG — the same
// seed always yields the same trace. Stateful processes (MMPP) must be
// fresh, unused instances.
func GenerateProcess(seed int64, duration sim.Duration, proc arrival.Process, ds Dataset) *Trace {
	rng := rand.New(rand.NewSource(seed))
	end := sim.Time(duration)
	tr := &Trace{Name: ds.Name}
	now := sim.Time(0)
	id := 0
	for {
		next, ok := proc.Next(rng, now)
		if !ok || next >= end {
			break
		}
		now = next
		tr.Requests = append(tr.Requests, Request{
			ID:        id,
			Arrival:   now,
			InputLen:  ds.Input.Sample(rng),
			OutputLen: ds.Output.Sample(rng),
		})
		id++
	}
	return tr
}

// Merge combines traces into one time-ordered trace with dense IDs. Inputs
// are not modified; per-request Client/Class tags survive, which is how
// spec-compiled multi-client mixes are assembled.
func Merge(name string, traces ...*Trace) *Trace {
	out := &Trace{Name: name}
	for _, tr := range traces {
		out.Requests = append(out.Requests, tr.Requests...)
	}
	out.sort()
	return out
}

// Upscale returns a copy of the trace with the request rate scaled by
// factor while preserving the temporal pattern (TraceUpscaler's guarantee):
// each request is replicated floor(factor) times plus one more with
// probability frac(factor), jittered within ±250 ms.
func Upscale(tr *Trace, factor float64, seed int64) *Trace {
	if factor <= 0 {
		panic(fmt.Sprintf("workload: upscale factor %v", factor))
	}
	rng := rand.New(rand.NewSource(seed))
	out := &Trace{Name: tr.Name}
	id := 0
	for _, r := range tr.Requests {
		n := int(factor)
		if rng.Float64() < factor-float64(n) {
			n++
		}
		for i := 0; i < n; i++ {
			c := r
			c.ID = id
			if i > 0 {
				jitter := sim.DurationFromSeconds((rng.Float64() - 0.5) * 0.5)
				at := c.Arrival.Add(jitter)
				if at < 0 {
					at = 0
				}
				c.Arrival = at
			}
			out.Requests = append(out.Requests, c)
			id++
		}
	}
	out.sort()
	return out
}

// RepeatBurst builds the Figure 17 "replay-and-rescale" extreme-burst trace:
// the [from,to) window of the source trace is replayed end-to-end `times`
// additional times, so the burst never relaxes.
func RepeatBurst(tr *Trace, from, to sim.Time, times int) *Trace {
	if to <= from || times < 0 {
		panic("workload: bad RepeatBurst window")
	}
	out := &Trace{Name: tr.Name + "+replay"}
	for _, r := range tr.Requests {
		if r.Arrival < to {
			out.Requests = append(out.Requests, r)
		}
	}
	window := to.Sub(from)
	id := len(out.Requests)
	for i := 0; i < times; i++ {
		shift := sim.Duration(i+1) * window
		for _, r := range tr.Requests {
			if r.Arrival < from || r.Arrival >= to {
				continue
			}
			c := r
			c.ID = id
			c.Arrival = r.Arrival.Add(shift)
			out.Requests = append(out.Requests, c)
			id++
		}
	}
	out.sort()
	return out
}

func (t *Trace) sort() {
	sort.SliceStable(t.Requests, func(i, j int) bool {
		return t.Requests[i].Arrival < t.Requests[j].Arrival
	})
	for i := range t.Requests {
		t.Requests[i].ID = i
	}
}

// Duration returns the last arrival time.
func (t *Trace) Duration() sim.Time {
	if len(t.Requests) == 0 {
		return 0
	}
	return t.Requests[len(t.Requests)-1].Arrival
}

// AvgRPS returns requests per second over the trace span.
func (t *Trace) AvgRPS() float64 {
	d := t.Duration().Seconds()
	if d == 0 {
		return 0
	}
	return float64(len(t.Requests)) / d
}

// RPSSeries bins arrivals into windows of the given width, for the Figure 2
// and Figure 16 request-rate panels.
func (t *Trace) RPSSeries(window sim.Duration) []float64 {
	if len(t.Requests) == 0 || window <= 0 {
		return nil
	}
	bins := int(t.Duration().Sub(0)/window) + 1
	out := make([]float64, bins)
	for _, r := range t.Requests {
		out[int(r.Arrival.Sub(0)/window)]++
	}
	w := window.Seconds()
	for i := range out {
		out[i] /= w
	}
	return out
}

// MeanLens returns the average input and output lengths.
func (t *Trace) MeanLens() (in, out float64) {
	if len(t.Requests) == 0 {
		return 0, 0
	}
	for _, r := range t.Requests {
		in += float64(r.InputLen)
		out += float64(r.OutputLen)
	}
	n := float64(len(t.Requests))
	return in / n, out / n
}

// WriteCSV serializes the trace as "id,arrival_s,input,output". Traces
// carrying client or SLO-class tags (spec-compiled mixes) get two extra
// columns, "client" and "slo_class", and traces with shared-prefix marks a
// seventh, "shared_prefix"; untagged traces keep the legacy four-column
// format so existing consumers are unaffected.
func (t *Trace) WriteCSV(w io.Writer) error {
	tagged, prefixed := false, false
	for _, r := range t.Requests {
		if r.Client != "" || r.Class != "" {
			tagged = true
		}
		if r.SharedPrefix > 0 {
			tagged, prefixed = true, true
		}
	}
	cw := csv.NewWriter(w)
	header := []string{"id", "arrival_s", "input_tokens", "output_tokens"}
	if tagged {
		header = append(header, "client", "slo_class")
	}
	if prefixed {
		header = append(header, "shared_prefix")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, r := range t.Requests {
		rec := []string{
			strconv.Itoa(r.ID),
			strconv.FormatFloat(r.Arrival.Seconds(), 'f', 6, 64),
			strconv.Itoa(r.InputLen),
			strconv.Itoa(r.OutputLen),
		}
		if tagged {
			rec = append(rec, r.Client, r.Class)
		}
		if prefixed {
			rec = append(rec, strconv.Itoa(r.SharedPrefix))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// MaxArrivalSeconds is the latest arrival, and the longest trace duration,
// in seconds: the whole seconds a sim.Time can hold. ReadCSV rejects later
// arrivals and DurationSeconds longer durations.
const MaxArrivalSeconds = float64(math.MaxInt64 / int64(sim.Second))

// DurationSeconds converts a trace duration in seconds, rejecting one that
// is not positive, not finite, or past MaxArrivalSeconds: converted, it
// would overflow sim.Time, and the trace would silently come out empty.
func DurationSeconds(s float64) (sim.Duration, error) {
	if !(s > 0 && s <= MaxArrivalSeconds) {
		return 0, fmt.Errorf("workload: duration %v s is outside (0, %v] s", s, MaxArrivalSeconds)
	}
	return sim.DurationFromSeconds(s), nil
}

// ReadCSV parses a trace written by WriteCSV, accepting the legacy
// four-column, the tagged six-column, and the shared-prefix seven-column
// layouts. It rejects rows the simulator cannot serve: an arrival that is
// not finite, negative or beyond what a sim.Time holds, input or output
// lengths below 1, and a negative shared prefix. It also rejects a client
// or slo_class holding a carriage return or line feed.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("workload: empty CSV")
	}
	cols := len(rows[0])
	if cols != 4 && cols != 6 && cols != 7 {
		return nil, fmt.Errorf("workload: header has %d fields, want 4, 6 or 7", cols)
	}
	tr := &Trace{Name: name}
	for i, row := range rows[1:] {
		if len(row) != cols {
			return nil, fmt.Errorf("workload: row %d has %d fields", i+1, len(row))
		}
		id, err1 := strconv.Atoi(row[0])
		at, err2 := strconv.ParseFloat(row[1], 64)
		in, err3 := strconv.Atoi(row[2])
		out, err4 := strconv.Atoi(row[3])
		for _, e := range []error{err1, err2, err3, err4} {
			if e != nil {
				return nil, fmt.Errorf("workload: row %d: %v", i+1, e)
			}
		}
		switch {
		case math.IsNaN(at) || math.IsInf(at, 0):
			return nil, fmt.Errorf("workload: row %d: arrival %v is not finite", i+1, at)
		case at < 0:
			return nil, fmt.Errorf("workload: row %d: negative arrival %v", i+1, at)
		case at > MaxArrivalSeconds:
			return nil, fmt.Errorf("workload: row %d: arrival %v s exceeds %v s", i+1, at, MaxArrivalSeconds)
		case in < 1 || out < 1:
			return nil, fmt.Errorf("workload: row %d: lengths %d/%d, want >= 1", i+1, in, out)
		}
		req := Request{
			ID: id, Arrival: sim.FromSeconds(at), InputLen: in, OutputLen: out,
		}
		if cols >= 6 {
			// encoding/csv reads a quoted "\r\n" back as "\n", so a line
			// break would not survive a WriteCSV round trip.
			if strings.ContainsAny(row[4], "\r\n") || strings.ContainsAny(row[5], "\r\n") {
				return nil, fmt.Errorf("workload: row %d: client or slo_class holds a carriage return or line feed", i+1)
			}
			req.Client, req.Class = row[4], row[5]
		}
		if cols == 7 {
			sp, err := strconv.Atoi(row[6])
			if err != nil {
				return nil, fmt.Errorf("workload: row %d: %v", i+1, err)
			}
			if sp < 0 {
				return nil, fmt.Errorf("workload: row %d: negative shared prefix %d", i+1, sp)
			}
			req.SharedPrefix = sp
		}
		tr.Requests = append(tr.Requests, req)
	}
	tr.sort()
	return tr, nil
}
