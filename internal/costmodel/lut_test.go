package costmodel

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"kunserve/internal/gpu"
)

// TestExactTableBitIdentical pins the central contract of the shared table:
// inside the tabulated chunk range every evaluation returns the exact bits
// Model.ChunkSeconds produces, and past it the fallback does too — so
// swapping the table into a scheduling path cannot perturb any result.
func TestExactTableBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		m := &Model{
			Alpha:  rng.Float64() * 1e-7,
			Beta:   rng.Float64() * 1e-5,
			Gamma:  rng.Float64() * 1e-3,
			Lambda: rng.Float64() * 1e-4,
		}
		tab := ForModel(m)
		for _, prefix := range []int{0, 1, 7, 128, 700, 4095, 9000, 131072} {
			for _, chunk := range []int{0, 1, 2, 63, 512, 2048, tableChunkMax, tableChunkMax + 1, 100000} {
				want := m.ChunkSeconds(prefix, chunk)
				got := tab.ChunkSeconds(prefix, chunk)
				if math.Float64bits(want) != math.Float64bits(got) {
					t.Fatalf("trial %d: ChunkSeconds(%d, %d) = %x, model says %x",
						trial, prefix, chunk, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		// Fused batch loop, mixed in/out-of-range chunks and zero entries.
		var chunks []gpu.ChunkWork
		for i := 0; i < 50; i++ {
			chunks = append(chunks, gpu.ChunkWork{
				PrefixLen: rng.Intn(20000),
				ChunkLen:  rng.Intn(2*tableChunkMax) - 10,
			})
		}
		want := m.BatchSeconds(chunks)
		got := tab.BatchSeconds(chunks)
		if math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("trial %d: BatchSeconds = %x, model says %x",
				trial, math.Float64bits(got), math.Float64bits(want))
		}
	}
}

// TestForModelShared verifies the registry hands every caller the same
// immutable table for equal model parameters.
func TestForModelShared(t *testing.T) {
	m := &Model{Alpha: 2.5e-8, Beta: 4e-6, Gamma: 9e-4, Lambda: 1e-4}
	m2 := *m
	if ForModel(m) != ForModel(&m2) {
		t.Fatal("equal models should share one table")
	}
	other := &Model{Alpha: 2.6e-8, Beta: 4e-6, Gamma: 9e-4, Lambda: 1e-4}
	if ForModel(m) == ForModel(other) {
		t.Fatal("distinct models must not share a table")
	}
}

// TestForModelConcurrent hammers the registry and a shared table from many
// goroutines; run under -race it pins the lock-free read contract that the
// parallel plan fan-out depends on.
func TestForModelConcurrent(t *testing.T) {
	m := &Model{Alpha: 3e-8, Beta: 5e-6, Gamma: 8e-4, Lambda: 2e-4}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tab := ForModel(m)
			for i := 0; i < 2000; i++ {
				_ = tab.ChunkSeconds(i*7%5000, i%3000)
				_ = tab.BatchSeconds([]gpu.ChunkWork{{PrefixLen: i, ChunkLen: 1}})
			}
		}(g)
	}
	wg.Wait()
}
