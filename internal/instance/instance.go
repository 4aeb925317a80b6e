// Package instance models one serving instance: the minimal GPU set holding
// a complete copy of the model (§2.1). An instance aggregates its GPUs' HBM
// into one memory.Manager partitioned into a framework reservation
// (activations, workspace), the parameter region, and the KVCache region.
// The local memory manager of §4.1 lives here: executing a drop plan moves
// physical memory from the parameter range into the KVCache range at layer
// granularity; restoration moves it back.
package instance

import (
	"fmt"

	"kunserve/internal/gpu"
	"kunserve/internal/memory"
	"kunserve/internal/model"
	"kunserve/internal/sim"
)

// Region names inside the instance's memory manager.
const (
	RegionReserved = "reserved"
	RegionParams   = "params"
	RegionKVCache  = "kvcache"
)

// DefaultReservedFraction is the HBM share kept for activations and
// framework workspace (vLLM's gpu_memory_utilization headroom).
const DefaultReservedFraction = 0.10

// Instance is one model replica's worth of GPUs.
type Instance struct {
	ID   int
	Spec *gpu.Spec
	// Model is the full model this instance can serve when holding all
	// layers.
	Model *model.Config
	// Mem manages the instance's aggregate physical HBM.
	Mem *memory.Manager

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
// still available on top of the provision.
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
	m := memory.NewManager(total)
	if _, err := m.Reserve(RegionReserved, reserved); err != nil {
		return nil, err
	}
	if _, err := m.Reserve(RegionParams, params); err != nil {
		return nil, err
	}
	kv := m.FreeBytes()
	if kvProvision > 0 && kvProvision < kv {
		// Unprovisioned memory stays unmapped (the driver would hand
		// it out for other allocations); drops still extend the
		// KVCache region beyond the provision.
		kv = kvProvision
	}
	if _, err := m.Reserve(RegionKVCache, kv); err != nil {
		return nil, err
	}
	return &Instance{ID: id, Spec: spec, Model: cfg, Mem: m, layersHeld: cfg.Layers}, nil
}

// LayersHeld returns the number of resident layers.
func (in *Instance) LayersHeld() int { return in.layersHeld }

// HoldsFullCopy reports whether all layers are resident.
func (in *Instance) HoldsFullCopy() bool { return in.layersHeld == in.Model.Layers }

// KVBytes returns the KVCache region size.
func (in *Instance) KVBytes() int64 {
	return in.Mem.Range(RegionKVCache).Bytes()
}

// ParamBytes returns the parameter region size.
func (in *Instance) ParamBytes() int64 {
	return in.Mem.Range(RegionParams).Bytes()
}

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
// released and their physical memory is remapped into the KVCache range
// (§4.1). It returns the remap latency to charge to the simulation clock.
func (in *Instance) DropLayers(n int) (sim.Duration, error) {
	if n <= 0 {
		return 0, fmt.Errorf("instance %d: drop %d layers", in.ID, n)
	}
	if n > in.layersHeld {
		return 0, fmt.Errorf("instance %d: drop %d of %d held layers", in.ID, n, in.layersHeld)
	}
	d, err := in.Mem.MoveBetween(RegionParams, RegionKVCache, in.Model.ParamBytesPerLayer()*int64(n))
	if err != nil {
		return 0, err
	}
	in.layersHeld -= n
	return d, nil
}

// FreeBytes returns unmapped physical memory available to ExtendKV: the
// HBM NewProvisioned left outside the KVCache provision. Drops map all
// they free, so they leave none.
func (in *Instance) FreeBytes() int64 { return in.Mem.FreeBytes() }

// ExtendKV maps free physical memory (HBM outside the KVCache provision)
// into the KVCache range.
func (in *Instance) ExtendKV(bytes int64) (sim.Duration, error) {
	return in.Mem.Extend(RegionKVCache, bytes)
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
	if free := in.Mem.FreeBytes(); free > 0 {
		take := free
		if take > bytes {
			take = bytes
		}
		d, err := in.Mem.Extend(RegionParams, take)
		if err != nil {
			return 0, err
		}
		total += d
		bytes -= take
	}
	if bytes > 0 {
		d, err := in.Mem.MoveBetween(RegionKVCache, RegionParams, bytes)
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
