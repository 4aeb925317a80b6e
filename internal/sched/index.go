package sched

// Index is an incrementally maintained ordering of the dispatcher's
// active candidates under a Router's key: a binary min-heap on
// (key, group ID) with a position table so point updates are O(log n).
// Min is the dispatch pick: the smallest key, the lowest group ID winning
// ties.
//
// The index holds plain (key, ID) pairs, never group pointers: membership
// is the cluster's business, and a Reset drops every entry without
// retaining anything. Positions live in a dense slice (group IDs are
// small monotonic ints), keeping the per-update bookkeeping map-free on
// the dispatch hot path.
type Index struct {
	router Router
	heap   []indexEntry
	pos    []int32 // group ID -> heap slot, -1 when absent
}

type indexEntry struct {
	key float64
	id  int
}

// NewIndex builds an empty index maintained under r's key.
func NewIndex(r Router) *Index {
	return &Index{router: r}
}

// slot returns id's heap position, or -1 when unindexed.
func (x *Index) slot(id int) int32 {
	if id < len(x.pos) {
		return x.pos[id]
	}
	return -1
}

// setSlot records id's heap position, growing the table on first sight.
func (x *Index) setSlot(id int, i int32) {
	for id >= len(x.pos) {
		x.pos = append(x.pos, -1)
	}
	x.pos[id] = i
}

// Len returns the number of indexed candidates.
func (x *Index) Len() int { return len(x.heap) }

// Reset empties the index.
func (x *Index) Reset() {
	x.heap = x.heap[:0]
	for i := range x.pos {
		x.pos[i] = -1
	}
}

// Min returns the group ID minimizing (key, ID), false when empty.
func (x *Index) Min() (int, bool) {
	if len(x.heap) == 0 {
		return 0, false
	}
	return x.heap[0].id, true
}

// Key returns id's indexed key, false when id is unindexed.
func (x *Index) Key(id int) (float64, bool) {
	if i := x.slot(id); i >= 0 {
		return x.heap[i].key, true
	}
	return 0, false
}

// Update inserts c or repositions it under its current key.
func (x *Index) Update(c Candidate) {
	key := x.router.Key(c)
	if i := x.slot(c.ID); i >= 0 {
		old := x.heap[i].key
		x.heap[i].key = key
		switch {
		case key < old:
			x.siftUp(int(i))
		case key > old:
			x.siftDown(int(i))
		}
		return
	}
	x.heap = append(x.heap, indexEntry{key: key, id: c.ID})
	i := len(x.heap) - 1
	x.setSlot(c.ID, int32(i))
	x.siftUp(i)
}

// Remove deletes a group from the index; unknown IDs are a no-op (a group
// may close before it was ever indexed).
func (x *Index) Remove(id int) {
	i := x.slot(id)
	if i < 0 {
		return
	}
	last := len(x.heap) - 1
	x.pos[id] = -1
	if int(i) != last {
		x.heap[i] = x.heap[last]
		x.pos[x.heap[i].id] = i
	}
	x.heap = x.heap[:last]
	if int(i) < last {
		// The moved entry may belong above or below its new slot.
		if !x.siftUp(int(i)) {
			x.siftDown(int(i))
		}
	}
}

// less orders the heap: by key, then by group ID.
func (x *Index) less(a, b indexEntry) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.id < b.id
}

func (x *Index) siftUp(i int) bool {
	moved := false
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(x.heap[i], x.heap[p]) {
			break
		}
		x.heap[i], x.heap[p] = x.heap[p], x.heap[i]
		x.pos[x.heap[i].id] = int32(i)
		x.pos[x.heap[p].id] = int32(p)
		i = p
		moved = true
	}
	return moved
}

func (x *Index) siftDown(i int) {
	n := len(x.heap)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && x.less(x.heap[l], x.heap[m]) {
			m = l
		}
		if r < n && x.less(x.heap[r], x.heap[m]) {
			m = r
		}
		if m == i {
			return
		}
		x.heap[i], x.heap[m] = x.heap[m], x.heap[i]
		x.pos[x.heap[i].id] = int32(i)
		x.pos[x.heap[m].id] = int32(m)
		i = m
	}
}
