package bench

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kunserve/internal/kvcache.(*Seq).Append":                                  "kvcache",
		"kunserve/internal/cluster/engine.(*Engine).runCollect":                    "cluster.engine",
		"kunserve/internal/cluster.(*Cluster).Serve.func1":                         "cluster",
		"kunserve/internal/core/planner.Plan":                                      "core.planner",
		"kunserve/internal/sched.(*Index).fix":                                     "sched",
		"runtime.mallocgc":                                                         "runtime",
		"runtime._ExternalCode":                                                    "runtime",
		"runtime/internal/atomic.Load":                                             "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                                  "runtime",
		"sort.insertionSortLessFunc":                                               "std",
		"slices.SortFunc[go.shape.[]kunserve/internal/request.Request,go.shape.x]": "std",
		"internal/bytealg.IndexByteString":                                         "std",
		"container/heap.Fix":                                                       "std",
		"kunserve/bench.(*pass).runCell":                                           "bench",
		"example.com/x/y.F":                                                        "example.com/x/y",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// pbuf encodes protobuf fields for the canned profile.
type pbuf struct{ b []byte }

func (p *pbuf) key(field, wire int) { p.b = binary.AppendUvarint(p.b, uint64(field<<3|wire)) }

func (p *pbuf) uint(field int, x uint64) {
	p.key(field, 0)
	p.b = binary.AppendUvarint(p.b, x)
}

func (p *pbuf) msg(field int, body []byte) {
	p.key(field, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(body)))
	p.b = append(p.b, body...)
}

func (p *pbuf) packed(field int, xs ...uint64) {
	var q pbuf
	for _, x := range xs {
		q.b = binary.AppendUvarint(q.b, x)
	}
	p.msg(field, q.b)
}

// cannedProfile builds a gzipped pprof CPU profile in the layout the Go
// runtime writes: two sample types, inlined frames listed innermost first,
// and location lists both packed and unpacked.
func cannedProfile() []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"kunserve/internal/kvcache.(*Seq).Append",
		"kunserve/internal/cluster/engine.(*Engine).runCollect",
		"runtime.mallocgc",
		"internal/runtime/maps.(*Map).getWithKey",
		"slices.SortFunc[go.shape.[]kunserve/internal/request.Request]",
		"kunserve/internal/workload/arrival.(*Diurnal).Next",
	}
	var p pbuf
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pbuf
		q.uint(1, vt[0])
		q.uint(2, vt[1])
		p.msg(1, q.b)
	}
	sample := func(packed bool, locs []uint64, ms uint64) {
		var q pbuf
		if packed {
			q.packed(1, locs...)
		} else {
			for _, l := range locs {
				q.uint(1, l)
			}
		}
		q.packed(2, ms/10, ms*1e6)
		p.msg(2, q.b)
	}
	sample(false, []uint64{1, 2}, 10) // Append inlined into runCollect
	sample(true, []uint64{2, 3, 4}, 20)
	sample(false, []uint64{3}, 30)
	sample(true, []uint64{4, 2, 3, 1}, 40)
	sample(false, []uint64{5}, 50)
	sample(false, []uint64{6}, 60)
	// Locations: ID → function IDs, innermost first.
	for id, fns := range [][]uint64{1: {5, 6}, 2: {6}, 3: {7}, 4: {8}, 5: {9}, 6: {10}} {
		if fns == nil {
			continue
		}
		var q pbuf
		q.uint(1, uint64(id))
		for _, fn := range fns {
			var line pbuf
			line.uint(1, fn)
			line.uint(2, 42)
			q.msg(4, line.b)
		}
		p.msg(4, q.b)
	}
	for i := 5; i < len(strs); i++ {
		var q pbuf
		q.uint(1, uint64(i))
		q.uint(2, uint64(i))
		p.msg(5, q.b)
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(p.b)
	zw.Close()
	return z.Bytes()
}

// TestProfileLayerBucketing decodes the canned profile and buckets each
// sample's CPU time by the layer of its leaf frame.
func TestProfileLayerBucketing(t *testing.T) {
	leaves, err := parseLeafCPU(cannedProfile())
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]float64{}
	for fn, s := range leaves {
		layers[layerOf(fn)] += s
	}
	want := map[string]float64{
		"kvcache":          0.010,
		"cluster.engine":   0.020,
		"runtime":          0.030 + 0.040,
		"std":              0.050,
		"workload.arrival": 0.060,
	}
	if len(layers) != len(want) {
		t.Fatalf("layers %v, want %v", layers, want)
	}
	for l, s := range want {
		if math.Abs(layers[l]-s) > 1e-12 {
			t.Errorf("%s: %v s, want %v", l, layers[l], s)
		}
	}
	if _, err := parseLeafCPU([]byte("not a profile")); err == nil {
		t.Error("garbage parsed")
	}
}
