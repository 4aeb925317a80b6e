package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"kunserve/internal/sim"
)

// FuzzReadCSV checks ReadCSV's contract on arbitrary input: whenever it
// accepts a trace, arrivals are sorted, finite and non-negative, input and
// output lengths are at least 1, and the trace survives a WriteCSV →
// ReadCSV round trip — same requests in the same order, arrivals equal to
// WriteCSV's microsecond precision. The seed corpus lives in
// testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, s := range []string{
		"id,arrival_s,input_tokens,output_tokens\n0,0.5,128,16\n1,0.25,64,8\n",
		"id,arrival_s,input_tokens,output_tokens,client,slo_class\n0,1,10,10,chat,tight\n1,1,20,5,batch,loose\n",
		"id,arrival_s,input_tokens,output_tokens,client,slo_class,shared_prefix\n0,2,600,40,agent,tight,500\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		tr, err := ReadCSV("fuzz", strings.NewReader(s))
		if err != nil {
			return
		}
		for i, r := range tr.Requests {
			switch {
			case r.Arrival < 0:
				t.Fatalf("request %d: negative arrival %v", i, r.Arrival)
			case i > 0 && r.Arrival < tr.Requests[i-1].Arrival:
				t.Fatalf("request %d: arrivals not sorted", i)
			case r.InputLen < 1 || r.OutputLen < 1:
				t.Fatalf("request %d: lengths %d/%d", i, r.InputLen, r.OutputLen)
			case r.SharedPrefix < 0:
				t.Fatalf("request %d: negative shared prefix %d", i, r.SharedPrefix)
			}
		}
		var buf bytes.Buffer
		if err := tr.WriteCSV(&buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := ReadCSV("fuzz", &buf)
		if err != nil {
			t.Fatalf("round trip rejected %q: %v", buf.String(), err)
		}
		if len(back.Requests) != len(tr.Requests) {
			t.Fatalf("round trip: %d requests, want %d", len(back.Requests), len(tr.Requests))
		}
		for i, r := range tr.Requests {
			b := back.Requests[i]
			// WriteCSV keeps microseconds; float64 seconds lose a
			// few ulps more on arrivals years into the trace.
			tol := float64(sim.Microsecond) + math.Abs(float64(r.Arrival))*1e-15
			if d := math.Abs(float64(b.Arrival - r.Arrival)); d > tol {
				t.Fatalf("request %d: arrival %v round-tripped to %v", i, r.Arrival, b.Arrival)
			}
			b.Arrival = r.Arrival
			if b != r {
				t.Fatalf("request %d: %+v round-tripped to %+v", i, r, b)
			}
		}
	})
}
