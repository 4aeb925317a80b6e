package instance

import (
	"testing"
	"testing/quick"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

func newInst(t *testing.T) *Instance {
	t.Helper()
	in, err := New(0, gpu.A800(), model.Qwen25_14B())
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceLayout(t *testing.T) {
	in := newInst(t)
	if !in.HoldsFullCopy() || in.LayersHeld() != 48 {
		t.Fatal("fresh instance layer accounting")
	}
	// §2.2: ~45 GB of KVCache per GPU for the 14B model on 80 GB.
	kvGB := float64(in.KVBytes()) / float64(model.GiB)
	if kvGB < 40 || kvGB > 50 {
		t.Errorf("KV region = %.1f GB, want ~45", kvGB)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestModelTooBigRejected(t *testing.T) {
	cfg := model.Qwen25_72B()
	cfg.GPUsPerInstance = 1 // 136 GB params on one 80 GB GPU
	if _, err := New(0, gpu.A800(), cfg); err == nil {
		t.Fatal("oversized model accepted")
	}
	// The bytes fit (1.05 + 8.5 of 10.5 chunks), but the regions round up
	// to 2 + 9 chunks and the total down to 10.
	spec := gpu.A800()
	spec.HBMBytes = 21 * ChunkSize / 2
	small := model.Qwen25_14B()
	small.GPUsPerInstance = 1
	small.InstanceParamBytesOverride = 17 * ChunkSize / 2
	if _, err := New(0, spec, small); err == nil {
		t.Fatal("regions that exceed the chunks accepted")
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	bad := model.Qwen25_14B()
	bad.Layers = 0
	if _, err := New(0, gpu.A800(), bad); err == nil {
		t.Error("invalid model accepted")
	}
	badSpec := gpu.A800()
	badSpec.HBMBytes = 0
	if _, err := New(0, badSpec, model.Qwen25_14B()); err == nil {
		t.Error("invalid spec accepted")
	}
}

func TestMultiGPUInstanceAggregatesHBM(t *testing.T) {
	in, err := New(0, gpu.H800(), model.Qwen25_72B())
	if err != nil {
		t.Fatal(err)
	}
	// 4 x 80 GB - 10% reserve - 136 GB params ≈ 152 GB KV.
	kvGB := float64(in.KVBytes()) / float64(model.GiB)
	if kvGB < 140 || kvGB > 165 {
		t.Errorf("72B KV region = %.1f GB", kvGB)
	}
}

func TestDropLayersGrowsKV(t *testing.T) {
	in := newInst(t)
	kvBefore := in.KVBytes()
	capBefore := in.KVTokenCapacity(in.Model.Layers)
	d, err := in.DropLayers(24)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 {
		t.Error("drop latency missing")
	}
	if in.LayersHeld() != 24 || in.HoldsFullCopy() {
		t.Fatal("layer accounting after drop")
	}
	freed := in.Model.ParamBytesPerLayer() * 24
	growth := in.KVBytes() - kvBefore
	if growth < freed-ChunkSize || growth > freed+ChunkSize {
		t.Errorf("KV grew %d, want ~%d", growth, freed)
	}
	// Serving only 24 layers per token, capacity per token halves and the
	// region grew: capacity (in tokens at 24-layer share) must exceed 2x
	// the old full-model capacity.
	capAfter := in.KVTokenCapacity(in.LayersHeld())
	if capAfter <= 2*capBefore {
		t.Errorf("token capacity %d -> %d, want > 2x", capBefore, capAfter)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreLayersRoundTrip(t *testing.T) {
	in := newInst(t)
	paramsBefore := in.ParamBytes()
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	if _, err := in.RestoreLayers(24); err != nil {
		t.Fatal(err)
	}
	if !in.HoldsFullCopy() {
		t.Fatal("restore did not return to full copy")
	}
	if in.ParamBytes() != paramsBefore {
		t.Errorf("params = %d, want %d", in.ParamBytes(), paramsBefore)
	}
}

func TestDropRestoreErrors(t *testing.T) {
	in := newInst(t)
	if _, err := in.DropLayers(0); err == nil {
		t.Error("drop 0 accepted")
	}
	if _, err := in.DropLayers(-1); err == nil {
		t.Error("drop -1 accepted")
	}
	if _, err := in.DropLayers(49); err == nil {
		t.Error("drop beyond held accepted")
	}
	if _, err := in.RestoreLayers(1); err == nil {
		t.Error("restore beyond full accepted")
	}
	if _, err := in.RestoreLayers(0); err == nil {
		t.Error("restore 0 accepted")
	}
}

func TestPartialConfigAndTimer(t *testing.T) {
	in := newInst(t)
	if in.PartialConfig() != in.Model {
		t.Error("full copy should return the model itself")
	}
	fullTime := in.Timer().PrefillTime(0, 1024)
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	pc := in.PartialConfig()
	if pc.Layers != 24 {
		t.Fatalf("partial layers = %d", pc.Layers)
	}
	halfTime := in.Timer().PrefillTime(0, 1024)
	if halfTime >= fullTime {
		t.Error("half-model stage not faster")
	}
}

func TestKVTokenCapacityPanicsOnBadLayers(t *testing.T) {
	in := newInst(t)
	defer func() {
		if recover() == nil {
			t.Error("KVTokenCapacity(0) did not panic")
		}
	}()
	in.KVTokenCapacity(0)
}

func TestLayerTransferBytes(t *testing.T) {
	in := newInst(t)
	if got := in.LayerTransferBytes(24); got != in.Model.ParamBytesPerLayer()*24 {
		t.Errorf("transfer bytes = %d", got)
	}
}

// Provisions and extends map whole chunks, and a 14B layer (615,416,666
// bytes) rounds up to 294 of them.
func TestRemapsRoundUpToChunks(t *testing.T) {
	in, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), 20*model.GiB)
	if err != nil {
		t.Fatal(err)
	}
	odd, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), 20*model.GiB+1)
	if err != nil {
		t.Fatal(err)
	}
	if odd.KVBytes() != 20*model.GiB+ChunkSize {
		t.Errorf("a 20 GiB + 1 byte provision maps %d bytes, want one chunk more than 20 GiB", odd.KVBytes())
	}
	if layer := chunksFor(in.Model.ParamBytesPerLayer()) * ChunkSize; layer != 294*ChunkSize {
		t.Fatalf("a layer rounds to %d bytes, want 294 chunks", layer)
	}
	kv, free := in.KVBytes(), in.FreeBytes()
	if _, err := in.ExtendKV(ChunkSize + 1); err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kv+2*ChunkSize || in.FreeBytes() != free-2*ChunkSize {
		t.Errorf("extend by a chunk and a byte: kv %d, free %d; want two chunks mapped",
			in.KVBytes(), in.FreeBytes())
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// The §4.1 flow: a drop remaps a layer's chunks from the parameter range
// onto the KVCache tail, and a restore on an instance with no unmapped
// memory is the exact inverse.
func TestDropMovesParamsToKV(t *testing.T) {
	in := newInst(t)
	layer := chunksFor(in.Model.ParamBytesPerLayer()) * ChunkSize
	kv, params := in.KVBytes(), in.ParamBytes()
	d, err := in.DropLayers(1)
	if err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kv+layer || in.ParamBytes() != params-layer || in.FreeBytes() != 0 {
		t.Errorf("drop: kv %d -> %d, params %d -> %d, free %d; want one %d-byte layer moved",
			kv, in.KVBytes(), params, in.ParamBytes(), in.FreeBytes(), layer)
	}
	if d != 5*sim.Millisecond {
		t.Errorf("drop latency = %v, want the 5ms floor", d)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	d, err = in.RestoreLayers(1)
	if err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kv || in.ParamBytes() != params || in.FreeBytes() != 0 {
		t.Errorf("restore: kv %d, params %d, free %d; want kv %d, params %d, free 0",
			in.KVBytes(), in.ParamBytes(), in.FreeBytes(), kv, params)
	}
	if d != 5*sim.Millisecond {
		t.Errorf("restore latency = %v, want the 5ms floor", d)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A remap costs 2 µs per chunk above the 5 ms floor and the floor below
// it; a 14B single-layer drop sits on the floor.
func TestRemapLatency(t *testing.T) {
	for _, c := range []struct {
		chunks int64
		want   sim.Duration
	}{
		{1, 5 * sim.Millisecond},
		{2500, 5 * sim.Millisecond},
		{2501, 5002 * sim.Microsecond},
		{20480, 40960 * sim.Microsecond}, // 40 GiB
	} {
		if got := remapLatency(c.chunks); got != c.want {
			t.Errorf("remapLatency(%d) = %v, want %v", c.chunks, got, c.want)
		}
	}
	in := newInst(t)
	if d, err := in.DropLayers(1); err != nil || d != 5*sim.Millisecond {
		t.Errorf("14B single-layer drop = %v, %v; want 5ms", d, err)
	}
}

func TestExtendKVNeedsUnmappedMemory(t *testing.T) {
	in := newInst(t)
	if in.FreeBytes() != 0 {
		t.Fatalf("unprovisioned instance leaves %d bytes unmapped", in.FreeBytes())
	}
	if _, err := in.ExtendKV(1); err == nil {
		t.Error("extend with no unmapped memory accepted")
	}
	in, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), 20*model.GiB)
	if err != nil {
		t.Fatal(err)
	}
	kv, free := in.KVBytes(), in.FreeBytes()
	if _, err := in.ExtendKV(free + 1); err == nil {
		t.Error("extend beyond unmapped memory accepted")
	}
	if in.KVBytes() != kv || in.FreeBytes() != free {
		t.Error("a failed extend changed the regions")
	}
	if _, err := in.ExtendKV(free); err != nil || in.FreeBytes() != 0 || in.KVBytes() != kv+free {
		t.Errorf("extend by all unmapped memory: %v, kv %d, free %d", err, in.KVBytes(), in.FreeBytes())
	}
}

// On a provisioned instance a restore takes unmapped memory before the
// KVCache tail, and the tail only for what unmapped memory lacks.
func TestRestoreClaimsUnmappedFirst(t *testing.T) {
	in, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), 20*model.GiB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.DropLayers(24); err != nil {
		t.Fatal(err)
	}
	layer := chunksFor(in.Model.ParamBytesPerLayer()) * ChunkSize
	kv, free := in.KVBytes(), in.FreeBytes()
	if _, err := in.RestoreLayers(1); err != nil {
		t.Fatal(err)
	}
	if in.KVBytes() != kv || in.FreeBytes() != free-layer {
		t.Fatalf("restore 1: kv %d -> %d, free %d -> %d; want the layer from unmapped memory",
			kv, in.KVBytes(), free, in.FreeBytes())
	}
	// Leave less unmapped memory than the next restore needs.
	short := ChunkSize
	if _, err := in.ExtendKV(in.FreeBytes() - short); err != nil {
		t.Fatal(err)
	}
	kv = in.KVBytes()
	d, err := in.RestoreLayers(1)
	if err != nil {
		t.Fatal(err)
	}
	if in.FreeBytes() != 0 || in.KVBytes() != kv-(layer-short) {
		t.Errorf("restore 2: kv %d -> %d, free %d; want the chunk of unmapped memory, the rest from the tail",
			kv, in.KVBytes(), in.FreeBytes())
	}
	// Two remaps, each on the floor.
	if d != 10*sim.Millisecond {
		t.Errorf("split restore latency = %v, want 10ms", d)
	}
	if err := in.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: any drop/restore/extend sequence conserves the instance's
// chunks and keeps layers in bounds.
func TestPropertyDropRestore(t *testing.T) {
	f := func(ops []int8) bool {
		in, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), 20*model.GiB)
		if err != nil {
			return false
		}
		for _, op := range ops {
			switch n := int(op); {
			case n%5 == 0:
				in.ExtendKV(int64(n/5+26) * model.GiB / 16)
			case n > 0:
				in.DropLayers(n)
			case n < 0:
				in.RestoreLayers(-n)
			}
			if in.LayersHeld() < 0 || in.LayersHeld() > in.Model.Layers {
				return false
			}
			if err := in.CheckInvariants(); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: read through the public byte views, the parameter, KVCache and
// unmapped regions sum to the same bytes after any drop, restore and
// extend sequence, failed operations included, and none goes negative.
func TestPropertyConservation(t *testing.T) {
	f := func(ops []int8, provision uint8) bool {
		in, err := NewProvisioned(0, gpu.A800(), model.Qwen25_14B(), int64(provision%40+1)*model.GiB)
		if err != nil {
			return false
		}
		sum := func() int64 { return in.ParamBytes() + in.KVBytes() + in.FreeBytes() }
		want := sum()
		for _, op := range ops {
			switch n := int(op); {
			case n%3 == 0:
				in.ExtendKV(int64(n+129) * ChunkSize * 8)
			case n > 0:
				in.DropLayers(n % 49)
			case n < 0:
				in.RestoreLayers(-n % 49)
			}
			if sum() != want || in.ParamBytes() < 0 || in.KVBytes() < 0 || in.FreeBytes() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
