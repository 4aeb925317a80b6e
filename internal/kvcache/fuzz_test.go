package kvcache

import (
	"fmt"
	"testing"
)

// FuzzSeqOps decodes bytes into a stream of sequence and pool operations
// and runs it twice: on a pair of pools where token commits go through
// Room and Commit, or through the engine's lane slot, and on a twin pair
// where the same commits are plain Appends. The slot decodes a token at a
// time against Room; at a crossing with a counted tail (CountedTail) it
// claims the block from the pool (ClaimCounted), and at any other it
// writes back and appends through the Seq. Its tokens and claimed blocks
// stay pending until an operation on the same sequence writes them back
// (Commit), as the engine's write-backs do. After every operation
// it checks each pool's invariants, that every resident sequence holds
// exactly the blocks its tokens need, pending ones included (each Block
// reference full, except a tail holding what the token count implies),
// that each pool's counted-block total is the sum over its live sequences
// plus the pending claims, which its claimed total counts, and that the two runs agree on every pool
// counter, the sharing stats, every sequence's Room (the slot's, while it
// has tokens pending) and its counted tail. Freed sequences return to their
// pool for reuse, so every operation also checks that the live sequences
// are distinct, unreleased Seqs, a second Free of a freed sequence must
// panic, a free-then-reallocate must hand the freed Seq straight back, and
// each pool's live count must equal the sequences the run holds in it.
//
// Input layout: byte 0 picks the sharing mode (off, LRU, FIFO), byte 1 the
// block size (4, 8 or 16 tokens), byte 2 the pool size; then each
// operation is an opcode byte followed by two argument bytes. The seed
// corpus is under testdata/fuzz/FuzzSeqOps.
func FuzzSeqOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		runSeqOps(t, data)
	})
}

// opReader hands out the fuzz input a byte at a time, zero once spent.
type opReader struct{ data []byte }

func (r *opReader) next() int {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return int(b)
}

// twinSeq is one sequence in both runs: a in the Room/Commit run, b in
// the Append-only run; pool indexes the pair both live in. pending and
// claimed are the tokens and counted blocks a's slot holds unbooked, and
// room the slot's room while it holds any.
type twinSeq struct {
	a, b                   *Seq
	pool                   int
	pending, claimed, room int
}

// writeBack books a's pending slot tokens, as the engine's write-back
// does.
func (s *twinSeq) writeBack() {
	s.a.Commit(s.pending)
	s.pending, s.claimed = 0, 0
}

// maxFuzzOps bounds one input's operation stream.
const maxFuzzOps = 256

func runSeqOps(t *testing.T, data []byte) {
	in := &opReader{data: data}
	mode, bt, total := in.next()%3, 4<<(in.next()%3), in.next()%64+1
	newPool := func() *Pool {
		p := NewPool(total, bt)
		switch mode {
		case 1:
			p.EnableSharing(EvictLRU)
		case 2:
			p.EnableSharing(EvictFIFO)
		}
		return p
	}
	// poolsA and poolsB are the two runs' pool pairs; MoveTo moves a
	// sequence to the other pool of its pair.
	poolsA := [2]*Pool{newPool(), newPool()}
	poolsB := [2]*Pool{newPool(), newPool()}
	// Prefixes end mid-block, on a block edge and inside the first block.
	prefixes := []Prefix{{"a", 2*bt + bt/2}, {"b", 2 * bt}, {"c", bt / 2}}
	var seqs []twinSeq
	// pick chooses a sequence for an operation, writing its slot back
	// first.
	pick := func(arg int) (int, bool) {
		if len(seqs) == 0 {
			return 0, false
		}
		i := arg % len(seqs)
		seqs[i].writeBack()
		return i, true
	}
	agree := func(op string, errA, errB error) {
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s: Room/Commit run err %v, Append run err %v", op, errA, errB)
		}
	}
	for step := 0; len(in.data) > 0 && step < maxFuzzOps; step++ {
		op, x, y := in.next()%13, in.next(), in.next()
		pi := x % 2
		var desc string
		switch op {
		case 0: // NewSeq
			desc = fmt.Sprintf("NewSeq(%d) in pool %d", y, pi)
			a, errA := poolsA[pi].NewSeq(y)
			b, errB := poolsB[pi].NewSeq(y)
			agree(desc, errA, errB)
			if errA == nil {
				seqs = append(seqs, twinSeq{a: a, b: b, pool: pi})
			}
		case 1: // NewSeqCached
			pfx := prefixes[y%len(prefixes)]
			desc = fmt.Sprintf("NewSeqCached(%v) in pool %d", pfx, pi)
			a, hitA, errA := poolsA[pi].NewSeqCached(pfx)
			b, hitB, errB := poolsB[pi].NewSeqCached(pfx)
			agree(desc, errA, errB)
			if hitA != hitB {
				t.Fatalf("%s: hits %d vs %d", desc, hitA, hitB)
			}
			if errA == nil {
				seqs = append(seqs, twinSeq{a: a, b: b, pool: pi})
			}
		case 2: // Append
			i, ok := pick(x)
			if !ok {
				continue
			}
			desc = fmt.Sprintf("Append(%d) to seq %d", y, i)
			agree(desc, seqs[i].a.Append(y), seqs[i].b.Append(y))
		case 3: // Room/Commit in run A, the same tokens appended in run B
			i, ok := pick(x)
			if !ok {
				continue
			}
			n := min(y, seqs[i].a.Room())
			desc = fmt.Sprintf("Commit(%d) to seq %d", n, i)
			seqs[i].a.Commit(n)
			if n > 0 { // Commit(0) is a no-op even on a swapped sequence
				agree(desc, nil, seqs[i].b.Append(n))
			}
		case 4: // SwapOut
			i, ok := pick(x)
			if !ok {
				continue
			}
			desc = fmt.Sprintf("SwapOut seq %d", i)
			agree(desc, seqs[i].a.SwapOut(), seqs[i].b.SwapOut())
		case 5: // SwapIn
			i, ok := pick(x)
			if !ok {
				continue
			}
			desc = fmt.Sprintf("SwapIn seq %d", i)
			agree(desc, seqs[i].a.SwapIn(), seqs[i].b.SwapIn())
		case 6: // MoveTo the other pool of the pair
			i, ok := pick(x)
			if !ok {
				continue
			}
			s := &seqs[i]
			dst := 1 - s.pool
			desc = fmt.Sprintf("MoveTo seq %d to pool %d", i, dst)
			a, errA := s.a.MoveTo(poolsA[dst])
			b, errB := s.b.MoveTo(poolsB[dst])
			agree(desc, errA, errB)
			if errA == nil {
				*s = twinSeq{a: a, b: b, pool: dst}
			}
		case 7: // SetPrefix on a sequence created without one
			i, ok := pick(x)
			if !ok || seqs[i].a.Prefix() != (Prefix{}) {
				continue
			}
			pfx := prefixes[y%len(prefixes)]
			desc = fmt.Sprintf("SetPrefix(%v) on seq %d", pfx, i)
			seqs[i].a.SetPrefix(pfx)
			seqs[i].b.SetPrefix(pfx)
		case 8: // AddBlocks
			desc = fmt.Sprintf("AddBlocks(%d) to pool %d", y%16, pi)
			poolsA[pi].AddBlocks(y % 16)
			poolsB[pi].AddBlocks(y % 16)
		case 9: // RemoveBlocksEvicting
			desc = fmt.Sprintf("RemoveBlocksEvicting(%d) from pool %d", y%16, pi)
			evA, errA := poolsA[pi].RemoveBlocksEvicting(y % 16)
			evB, errB := poolsB[pi].RemoveBlocksEvicting(y % 16)
			agree(desc, errA, errB)
			if evA != evB {
				t.Fatalf("%s: evicted %d vs %d", desc, evA, evB)
			}
		case 10: // Free
			i, ok := pick(x)
			if !ok {
				continue
			}
			desc = fmt.Sprintf("Free seq %d", i)
			seqs[i].a.Free()
			seqs[i].b.Free()
			mustPanic(t, desc+": a second Free", seqs[i].a.Free)
			mustPanic(t, desc+": a second Free", seqs[i].b.Free)
			seqs = append(seqs[:i], seqs[i+1:]...)
		case 11: // decode tokens on the engine's lane slot in run A
			if len(seqs) == 0 {
				continue
			}
			s := &seqs[x%len(seqs)]
			n := y%48 + 1
			desc = fmt.Sprintf("slot decode of %d tokens on seq %d", n, x%len(seqs))
			slotDecode(t, desc, s, poolsA[s.pool], n)
		case 12: // Free, then reallocate in the same pool: the freed Seq comes back
			i, ok := pick(x)
			if !ok {
				continue
			}
			old := seqs[i]
			pa, pb := poolsA[old.pool], poolsB[old.pool]
			old.a.Free()
			old.b.Free()
			var a, b *Seq
			var errA, errB error
			if y%2 == 0 {
				pfx := prefixes[y/2%len(prefixes)]
				desc = fmt.Sprintf("Free seq %d, then NewSeqCached(%v) in pool %d", i, pfx, old.pool)
				var hitA, hitB int
				a, hitA, errA = pa.NewSeqCached(pfx)
				b, hitB, errB = pb.NewSeqCached(pfx)
				if hitA != hitB {
					t.Fatalf("%s: hits %d vs %d", desc, hitA, hitB)
				}
			} else {
				desc = fmt.Sprintf("Free seq %d, then NewSeq(%d) in pool %d", i, y/2, old.pool)
				a, errA = pa.NewSeq(y / 2)
				b, errB = pb.NewSeq(y / 2)
			}
			agree(desc, errA, errB)
			if errA != nil {
				seqs = append(seqs[:i], seqs[i+1:]...)
				break
			}
			if a != old.a || b != old.b {
				t.Fatalf("%s: the freed Seq was not reused", desc)
			}
			seqs[i] = twinSeq{a: a, b: b, pool: old.pool}
		}
		checkTwinRuns(t, desc, poolsA, poolsB, seqs)
	}
	for i := range seqs {
		seqs[i].writeBack()
	}
	checkTwinRuns(t, "the final write-back", poolsA, poolsB, seqs)
}

// slotDecode decodes n tokens one at a time on s the way the engine's lane
// slot does in run A, and appends each in run B: a token within the
// slot's room is counted on the slot; at a crossing with a counted tail
// the slot claims the next block from pool; any other crossing writes
// the slot back and appends through the Seq, in both runs. It stops at
// the first failed append, which must fail in both runs.
func slotDecode(t *testing.T, desc string, s *twinSeq, pool *Pool, n int) {
	t.Helper()
	if s.pending == 0 {
		s.room = s.a.Room()
	}
	for range n {
		switch {
		case s.room >= 1:
		case s.a.CountedTail() && pool.AvailableBlocks() >= 1:
			pool.ClaimCounted(1)
			s.claimed++
			s.room = pool.BlockTokens()
		default:
			s.writeBack()
			errA, errB := s.a.Append(1), s.b.Append(1)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("%s: slot run err %v, Append run err %v", desc, errA, errB)
			}
			if errA != nil {
				return
			}
			s.room = s.a.Room()
			continue
		}
		s.room--
		s.pending++
		if err := s.b.Append(1); err != nil {
			t.Fatalf("%s: the slot took a token the Append run cannot: %v", desc, err)
		}
	}
}

// checkTwinRuns is the per-operation audit of runSeqOps.
func checkTwinRuns(t *testing.T, op string, poolsA, poolsB [2]*Pool, seqs []twinSeq) {
	t.Helper()
	var countedA, countedB, claimed, inPool [2]int
	live := make(map[*Seq]int, 2*len(seqs))
	for i, s := range seqs {
		for _, q := range []*Seq{s.a, s.b} {
			if j, dup := live[q]; dup {
				t.Fatalf("after %s: seqs %d and %d share one Seq", op, j, i)
			}
			live[q] = i
			if q.released {
				t.Fatalf("after %s: live seq %d is released", op, i)
			}
			held, tokens := q.Blocks(), q.Tokens()
			if q == s.a {
				held, tokens = held+s.claimed, tokens+s.pending
			}
			want := q.pool.BlocksForTokens(tokens)
			if q.Swapped() {
				want = 0
			}
			if held != want {
				t.Fatalf("after %s: seq %d holds %d blocks for %d tokens (swapped %v), want %d",
					op, i, held, tokens, q.Swapped(), want)
			}
			// Block references carry the fill the token count implies:
			// full, except a tail's.
			for k, b := range q.blocks {
				fill := q.pool.blockTokens
				if k == q.held()-1 {
					fill = q.tailFill()
				}
				if b.filled != fill {
					t.Fatalf("after %s: seq %d block %d of %d holds %d tokens, want %d",
						op, i, k, q.held(), b.filled, fill)
				}
			}
		}
		room := s.a.Room()
		if s.pending > 0 {
			room = s.room
		}
		if s.a.Tokens()+s.pending != s.b.Tokens() || room != s.b.Room() || s.a.CountedTail() != s.b.CountedTail() {
			t.Fatalf("after %s: seq %d tokens %d+%d/%d room %d/%d counted tail %v/%v between runs",
				op, i, s.a.Tokens(), s.pending, s.b.Tokens(), room, s.b.Room(), s.a.CountedTail(), s.b.CountedTail())
		}
		countedA[s.pool] += s.a.counted + s.claimed
		claimed[s.pool] += s.claimed
		countedB[s.pool] += s.b.counted
		inPool[s.pool]++
	}
	for k := range poolsA {
		a, b := poolsA[k], poolsB[k]
		for _, p := range []*Pool{a, b} {
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("after %s: pool %d: %v", op, k, err)
			}
		}
		if a.LiveSequences() != inPool[k] || b.LiveSequences() != inPool[k] {
			t.Fatalf("after %s: pool %d counts %d/%d live sequences, the run holds %d",
				op, k, a.LiveSequences(), b.LiveSequences(), inPool[k])
		}
		if a.counted != countedA[k] || b.counted != countedB[k] {
			t.Fatalf("after %s: pool %d counted %d/%d, live sequences hold %d/%d",
				op, k, a.counted, b.counted, countedA[k], countedB[k])
		}
		if a.claimed != claimed[k] || b.claimed != 0 {
			t.Fatalf("after %s: pool %d holds %d/%d claimed blocks unbooked, slots %d",
				op, k, a.claimed, b.claimed, claimed[k])
		}
		if a.UsedBlocks() != b.UsedBlocks() || a.FreeBlocks() != b.FreeBlocks() ||
			a.CachedBlocks() != b.CachedBlocks() || a.Stats() != b.Stats() {
			t.Fatalf("after %s: pool %d diverged: used %d/%d free %d/%d cached %d/%d stats %+v/%+v",
				op, k, a.UsedBlocks(), b.UsedBlocks(), a.FreeBlocks(), b.FreeBlocks(),
				a.CachedBlocks(), b.CachedBlocks(), a.Stats(), b.Stats())
		}
	}
}
