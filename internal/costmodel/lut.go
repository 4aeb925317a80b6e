package costmodel

import (
	"sync"

	"kunserve/internal/gpu"
)

// Table is a precomputed lookup view of one fitted Model, built once per
// model and shared read-only across every group and cell that serves it —
// the §4.3 polynomial is evaluated millions of times per simulated hour,
// and cells running in parallel evaluate it at once, so the shared state
// must be immutable.
//
// The table is *exact*: Eq. 1 factorizes into a prefix×chunk cross term
// plus two one-dimensional functions of the chunk length, so the quadratic
// feature (c²+c)/2 and the FFN term β·c are tabulated per chunk length
// while the cross term is computed live. Every float64 operation of
// Model.ChunkSeconds is replayed in the same order on the same
// intermediate values, so a table hit returns bit-identical results and
// the simulation output is unchanged byte-for-byte. Chunk lengths beyond
// the tabulated range fall back to the direct evaluation.
type Table struct {
	m Model

	// cc2[c] = (c²+c)/2 and betac[c] = β·c, both computed with the exact
	// expression Model.ChunkSeconds uses.
	cc2   []float64
	betac []float64
}

// tableChunkMax bounds the per-chunk tables: twice the default
// scheduling budget (2048 tokens), so every chunk a batching budget can
// emit hits the table while the tables stay at 64 KiB per model.
const tableChunkMax = 4096

var tableRegistry sync.Map // Model -> *Table

// ForModel returns the shared table for m, building it on first use.
// Tables are immutable and safe for unsynchronized concurrent reads.
func ForModel(m *Model) *Table {
	if t, ok := tableRegistry.Load(*m); ok {
		return t.(*Table)
	}
	t := newExactTable(*m)
	actual, _ := tableRegistry.LoadOrStore(*m, t)
	return actual.(*Table)
}

func newExactTable(m Model) *Table {
	t := &Table{
		m:     m,
		cc2:   make([]float64, tableChunkMax+1),
		betac: make([]float64, tableChunkMax+1),
	}
	for c := 1; c <= tableChunkMax; c++ {
		cf := float64(c)
		t.cc2[c] = (cf*cf + cf) / 2
		t.betac[c] = m.Beta * cf
	}
	return t
}

// Model returns the table's model parameters.
func (t *Table) Model() Model { return t.m }

// ChunkSeconds evaluates Eq. 1 for one chunk through the table, returning
// bit-identical values to Model.ChunkSeconds.
func (t *Table) ChunkSeconds(prefix, chunk int) float64 {
	if chunk <= 0 {
		return 0
	}
	if chunk >= len(t.cc2) {
		return t.m.ChunkSeconds(prefix, chunk)
	}
	// Replays Model.ChunkSeconds operation-for-operation: the cross term
	// p·c live, (c²+c)/2 and β·c from the tables, then α·(…)+β·c+γ in the
	// original association order.
	u1 := t.m.Alpha * (float64(prefix)*float64(chunk) + t.cc2[chunk])
	return u1 + t.betac[chunk] + t.m.Gamma
}

// BatchSeconds evaluates Eq. 2–3 for a microbatch as one fused loop over
// the table, matching Model.BatchSeconds exactly.
func (t *Table) BatchSeconds(chunks []gpu.ChunkWork) float64 {
	if len(chunks) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for _, c := range chunks {
		if c.ChunkLen <= 0 {
			continue
		}
		sum += t.ChunkSeconds(c.PrefixLen, c.ChunkLen)
		n++
	}
	if n > 1 {
		sum -= float64(n-1) * t.m.Lambda
	}
	if sum < 0 {
		sum = 0
	}
	return sum
}
