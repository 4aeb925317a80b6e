// Package instance models one serving instance: the minimal GPU set holding
// a complete copy of the model (§2.1), and its share of the local memory
// manager of §4.1.
//
// Real KunServe allocates all GPU physical memory with cuMemCreate and binds
// it to virtual ranges with cuMemMap/cuMemUnmap, so the attention kernels,
// written against one contiguous KVCache range, can use physical memory
// freed by dropped parameters without modification. An instance aggregates
// its GPUs' HBM and counts it in 2 MiB physical chunks (ChunkSize, the CUDA
// VMM granularity) split between a framework reservation (activations,
// workspace), the parameter range, the KVCache range and unmapped memory.
// Executing a drop plan remaps chunks from the parameter range onto the
// KVCache tail at layer granularity; restoration remaps them back. Each
// remap costs 2 µs per chunk with a 5 ms floor, so it appears in the
// simulation timeline (the paper measures about 5 ms per drop, negligible
// against inference time).
package instance

import (
	"fmt"

	"kunserve/internal/gpu"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// DefaultReservedFraction is the HBM share kept for activations and
// framework workspace (vLLM's gpu_memory_utilization headroom).
const DefaultReservedFraction = 0.10

// ChunkSize is the physical allocation granularity (CUDA VMM uses 2 MiB).
const ChunkSize = int64(2) << 20

// chunksFor rounds bytes up to whole chunks: every region and every remap
// maps whole chunks.
func chunksFor(bytes int64) int64 {
	return (bytes + ChunkSize - 1) / ChunkSize
}

// remapLatency is the simulated cost of one remap of the given chunks:
// 2 µs per cuMemMap/cuMemUnmap call, floored at 5 ms for driver entry and
// TLB shootdowns.
func remapLatency(chunks int64) sim.Duration {
	return max(sim.Duration(chunks)*2*sim.Microsecond, 5*sim.Millisecond)
}

// Instance is one model replica's worth of GPUs.
type Instance struct {
	ID   int
	Spec *gpu.Spec
	// Model is the full model this instance can serve when holding all
	// layers.
	Model *model.Config

	// The instance's aggregate HBM in chunks: total is conserved as
	// reserved + params + kv + unmapped (CheckInvariants).
	total, reserved, params, kv, unmapped int64

	layersHeld int
}

// New builds an instance with the full parameter copy resident and all
// remaining memory mapped as KVCache.
func New(id int, spec *gpu.Spec, cfg *model.Config) (*Instance, error) {
	return NewProvisioned(id, spec, cfg, 0)
}

// NewProvisioned builds an instance whose KVCache region is provisioned to
// kvProvision bytes (clamped to the available memory; <= 0 provisions
// everything). The paper's evaluation provisions KVCache relative to the
// average demand ("2.1x higher than the average requirement", §2.2) rather
// than always dedicating all free HBM; memory freed by parameter drops is
// still available on top of the provision. The total rounds down to whole
// chunks, and each region rounds up.
func NewProvisioned(id int, spec *gpu.Spec, cfg *model.Config, kvProvision int64) (*Instance, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	total := spec.HBMBytes * int64(cfg.GPUsPerInstance)
	reserved := int64(float64(total) * DefaultReservedFraction)
	params := cfg.ParamBytes()
	if params+reserved >= total {
		return nil, fmt.Errorf("instance %d: model %s (%d GB params) does not fit %d GB HBM",
			id, cfg.Name, params/model.GiB, total/model.GiB)
	}
	in := &Instance{ID: id, Spec: spec, Model: cfg, layersHeld: cfg.Layers,
		total: total / ChunkSize, reserved: chunksFor(reserved), params: chunksFor(params)}
	in.unmapped = in.total - in.reserved - in.params
	if in.unmapped < 0 {
		return nil, fmt.Errorf("instance %d: reserved %d and parameter %d chunks exceed %d",
			id, in.reserved, in.params, in.total)
	}
	// Unprovisioned memory stays unmapped (the driver would hand it out
	// for other allocations); drops still extend the KVCache region
	// beyond the provision.
	in.kv = in.unmapped
	if kvProvision > 0 && kvProvision < in.unmapped*ChunkSize {
		in.kv = chunksFor(kvProvision)
	}
	in.unmapped -= in.kv
	return in, nil
}

// CheckInvariants verifies that the chunk counts are non-negative and
// conserve the total.
func (in *Instance) CheckInvariants() error {
	if in.reserved < 0 || in.params < 0 || in.kv < 0 || in.unmapped < 0 {
		return fmt.Errorf("instance %d: negative chunks: reserved %d params %d kv %d unmapped %d",
			in.ID, in.reserved, in.params, in.kv, in.unmapped)
	}
	if sum := in.reserved + in.params + in.kv + in.unmapped; sum != in.total {
		return fmt.Errorf("instance %d: leak: mapped %d + unmapped %d != total %d",
			in.ID, sum-in.unmapped, in.unmapped, in.total)
	}
	return nil
}

// LayersHeld returns the number of resident layers.
func (in *Instance) LayersHeld() int { return in.layersHeld }

// HoldsFullCopy reports whether all layers are resident.
func (in *Instance) HoldsFullCopy() bool { return in.layersHeld == in.Model.Layers }

// KVBytes returns the KVCache region size.
func (in *Instance) KVBytes() int64 { return in.kv * ChunkSize }

// ParamBytes returns the parameter region size.
func (in *Instance) ParamBytes() int64 { return in.params * ChunkSize }

// KVTokenCapacity returns how many tokens of KV this instance can hold when
// serving `layers` of the model's layers per token (its pipeline-stage
// share). For a full-copy instance pass Model.Layers.
func (in *Instance) KVTokenCapacity(layers int) int {
	if layers <= 0 {
		panic(fmt.Sprintf("instance %d: KVTokenCapacity(%d)", in.ID, layers))
	}
	perToken := in.Model.KVBytesPerTokenPerLayer() * int64(layers)
	return int(in.KVBytes() / perToken)
}

// DropLayers executes this instance's share of a drop plan: n layers are
// released and their physical memory, rounded up to chunks, is remapped
// onto the KVCache tail (§4.1). It returns the remap latency to charge to
// the simulation clock.
func (in *Instance) DropLayers(n int) (sim.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("instance %d: drop %d layers", in.ID, n)
	}
	if n > in.layersHeld {
		return 0, fmt.Errorf("instance %d: drop %d of %d held layers", in.ID, n, in.layersHeld)
	}
	d, err := in.remap(&in.params, &in.kv, "params", in.Model.ParamBytesPerLayer()*int64(n))
	if err != nil {
		return 0, err
	}
	in.layersHeld -= n
	return d, nil
}

// remap moves bytes, rounded up to chunks, from the src count to the dst
// count, failing when src is short.
func (in *Instance) remap(src, dst *int64, from string, bytes int64) (sim.Duration, error) {
	n := chunksFor(bytes)
	if n > *src {
		return 0, fmt.Errorf("instance %d: move %d chunks from %s, which holds %d",
			in.ID, n, from, *src)
	}
	*src -= n
	*dst += n
	return remapLatency(n), nil
}

// FreeBytes returns unmapped physical memory available to ExtendKV: the
// HBM NewProvisioned left outside the KVCache provision. Drops map all
// they free, so they leave none.
func (in *Instance) FreeBytes() int64 { return in.unmapped * ChunkSize }

// ExtendKV maps free physical memory (HBM outside the KVCache provision)
// onto the KVCache tail.
func (in *Instance) ExtendKV(bytes int64) (sim.Duration, error) {
	return in.remap(&in.unmapped, &in.kv, "unmapped", bytes)
}

// RestoreLayers reverses a drop: KVCache tail memory is unmapped and
// remapped as parameter memory for n layers (§4.4). The caller must have
// ensured the KV tail is actually free (the pool shrank first). The
// returned duration covers only the remap; the parameter transfer itself
// (network pull or host reload) is charged separately by the restore
// engine.
func (in *Instance) RestoreLayers(n int) (sim.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("instance %d: restore %d layers", in.ID, n)
	}
	if in.layersHeld+n > in.Model.Layers {
		return 0, fmt.Errorf("instance %d: restore %d layers onto %d held (max %d)",
			in.ID, n, in.layersHeld, in.Model.Layers)
	}
	bytes := in.Model.ParamBytesPerLayer() * int64(n)
	var total sim.Duration
	// Claim unmapped memory first (HBM outside the KVCache provision
	// that ExtendKV has not taken), then reclaim the KVCache tail.
	if in.unmapped > 0 {
		take := min(in.FreeBytes(), bytes)
		d, err := in.remap(&in.unmapped, &in.params, "unmapped", take)
		if err != nil {
			return 0, err
		}
		total += d
		bytes -= take
	}
	if bytes > 0 {
		d, err := in.remap(&in.kv, &in.params, "kvcache", bytes)
		if err != nil {
			return 0, err
		}
		total += d
	}
	in.layersHeld += n
	return total, nil
}

// PartialConfig returns the model config scaled to the instance's resident
// layers, for building stage timers.
func (in *Instance) PartialConfig() *model.Config {
	if in.HoldsFullCopy() {
		return in.Model
	}
	return in.Model.Partial(in.layersHeld)
}

// Timer builds a ground-truth timer for the instance's current shard.
func (in *Instance) Timer() *gpu.Timer {
	return gpu.NewTimer(in.Spec, in.PartialConfig(), in.Model.GPUsPerInstance)
}

// LayerTransferBytes returns the bytes to pull when restoring n layers.
func (in *Instance) LayerTransferBytes(n int) int64 {
	return in.Model.ParamBytesPerLayer() * int64(n)
}
