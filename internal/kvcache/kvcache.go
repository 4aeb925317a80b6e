// Package kvcache implements a vLLM-style paged KVCache block manager.
//
// GPU KVCache memory is carved into fixed-size blocks of blockTokens tokens
// (the evaluation uses 64, the block size the paper tunes vLLM to). Only
// blocks that can be shared have identity. A block whose span starts inside
// a sequence's shared prompt prefix is a Block struct: it is named by its
// (prefix ID, block number) position in the prefix chain and published to
// a per-pool shared index with refcounts. The index holds one chain per
// prefix ID, a slice whose slot k is the published block k or nil, so a
// lookup hashes the prefix ID once and then walks the chain in order. New
// sequences whose prompt starts with the same prefix reference the
// published blocks instead of recomputing them (prefix caching);
// freed-but-cached blocks sit on an eviction list (LRU by default) and are
// reclaimed before any allocation fails; a sequence writing into a block
// it shares with others triggers copy-on-write.
//
// Every block past the prefix span is private to its sequence for life and
// is never observed by anyone else, so a sequence holds those blocks as a
// count, not as structs. All of a sequence's blocks but the last are full,
// so the tail's fill follows from its token count: decode appends, block
// crossings and frees touch only the sequence and the pool counters. With
// sharing disabled (the default, and always for sequences without a
// prefix) every block is counted, and the allocator is exact free-block
// counting: the same arithmetic, the same error messages, the same
// admission decisions as the original counter implementation.
//
// Sequences can be swapped out (blocks released on GPU, token state retained
// for the host copy) to support the InferCept baseline — swap-in re-matches
// the shared prefix chain, so a swapped victim's prefix blocks are not
// duplicated if they survived in cache. Pools can grow or shrink at runtime
// to support §4.1 parameter-drop memory extension; shrinking evicts
// cached-free blocks before it fails and reports how many it evicted.
package kvcache

import (
	"fmt"
	"sort"

	"kunserve/internal/obs"
	"kunserve/internal/sim"
)

// EvictPolicy orders the freed-but-cached block list for reclamation.
type EvictPolicy int

const (
	// EvictLRU reclaims the least recently freed cached block first (the
	// vLLM prefix-cache default).
	EvictLRU EvictPolicy = iota
	// EvictFIFO reclaims cached blocks in first-ever-cached order,
	// ignoring later reuse (a strictly worse policy the prefix experiment
	// compares against).
	EvictFIFO
)

// EvictPolicyByName resolves a policy name ("", "lru", "fifo").
func EvictPolicyByName(name string) (EvictPolicy, error) {
	switch name {
	case "", "lru":
		return EvictLRU, nil
	case "fifo":
		return EvictFIFO, nil
	}
	return 0, fmt.Errorf("kvcache: unknown eviction policy %q (valid: lru, fifo)", name)
}

// Prefix identifies the shared prompt prefix of a sequence: all sequences
// with the same ID carry identical content in their first Tokens prompt
// tokens (a multi-client spec's per-client system prompt). The zero value
// means no shared prefix.
type Prefix struct {
	ID     string
	Tokens int
}

// Stats counts a pool's sharing activity. Counters are cumulative for the
// pool's lifetime; the cluster folds retired pools' stats into its report.
type Stats struct {
	// Lookups and Hits count prefix-chain matches attempted/succeeded at
	// sequence creation; HitTokens is the total prefill tokens served from
	// cache (the compute those sequences skipped).
	Lookups   int64
	Hits      int64
	HitTokens int64
	// Published counts blocks entered into the shared index.
	Published int64
	// CoWCopies counts copy-on-write block copies (divergence on a block
	// referenced by more than one sequence).
	CoWCopies int64
	// Evictions counts cached blocks reclaimed under allocation pressure;
	// ShrinkEvictions counts cached blocks evicted because the pool shrank
	// (parameter restoration taking its memory back).
	Evictions       int64
	ShrinkEvictions int64
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.Lookups += other.Lookups
	s.Hits += other.Hits
	s.HitTokens += other.HitTokens
	s.Published += other.Published
	s.CoWCopies += other.CoWCopies
	s.Evictions += other.Evictions
	s.ShrinkEvictions += other.ShrinkEvictions
}

// chainKey names block k of the chain for prefix id. Every sequence with the
// same prefix ID carries the same prompt tokens, so equal keys mean equal
// content.
type chainKey struct {
	id string
	k  int
}

// Block is one physical KVCache page in a sequence's prefix span, the only
// pages that can be shared. A page is in exactly one of four states: free
// (no object exists; counted in freeBlocks), counted (no object exists; a
// private page past a sequence's prefix span, held as a number on the Seq
// and in the pool's counted total), referenced (a Block with refs > 0), or
// cached (a Block with refs == 0 but content retained on the eviction list,
// awaiting reuse or reclamation).
type Block struct {
	// key is the block's chain position while published.
	key chainKey
	// filled counts tokens of content in the block.
	filled int
	// refs counts sequences referencing the block.
	refs int
	// published marks membership of the shared index; false while the
	// block holds private (unshareable) content.
	published bool
	// cached marks membership of the freed-but-cached list.
	cached bool
	// tick orders the cached list for eviction (assignment policy-driven).
	tick uint64
}

// Pool manages the block inventory of one serving instance (or one pipeline
// stage's share after a drop).
type Pool struct {
	blockTokens int
	totalBlocks int
	freeBlocks  int // content-free blocks
	usedBlocks  int // blocks with refs > 0 (each physical block once)
	counted     int // the share of usedBlocks sequences hold as counts
	claimed     int // the share of counted that ClaimCounted claimed and no Commit booked yet
	seqs        int // live sequences, for leak checks

	sharing bool
	policy  EvictPolicy

	// index maps each prefix ID to its chain: slot k holds the published
	// block k (referenced or cached), or nil. Go through lookup, publish and
	// unpublish.
	index map[string][]*Block
	// cachedList holds freed-but-cached blocks sorted by tick ascending;
	// cachedList[0] is the next eviction victim.
	cachedList []*Block
	tick       uint64

	stats Stats

	// seqFree recycles released Seq structs, blockFree Block structs whose
	// physical slot returned to the free count, and sliceFree freed
	// sequences' block slices, so steady-state sequence churn (admission,
	// preemption, migration, transplant) allocates no objects. blockSlab
	// is the warm-up arena: fresh blocks are carved from it in slabs so
	// growing to the working set costs one allocation per slab, not per
	// block. A retired pool recycles nothing (Retire). needErr is the
	// reusable allocation-shortfall error (callers nil-check and drop it
	// on the pressure-retry hot path).
	seqFree   []*Seq
	blockFree []*Block
	sliceFree [][]*Block
	blockSlab []Block
	retired   bool
	needErr   needError

	// tr/traceNow/traceGroup carry the observability hookup (SetTracer).
	// The pool has no clock of its own, so the owner supplies one; tr nil
	// (the default) keeps every allocation path trace-free.
	tr         obs.Tracer
	traceNow   func() sim.Time
	traceGroup int

	// resized, when set, fires after every capacity change (SetResizeHook).
	resized func()
}

// NewPool creates a pool of totalBlocks blocks of blockTokens tokens each.
// Sharing is disabled until EnableSharing is called.
func NewPool(totalBlocks, blockTokens int) *Pool {
	if totalBlocks < 0 || blockTokens <= 0 {
		panic(fmt.Sprintf("kvcache: pool %d x %d", totalBlocks, blockTokens))
	}
	return &Pool{
		blockTokens: blockTokens,
		totalBlocks: totalBlocks,
		freeBlocks:  totalBlocks,
	}
}

// EnableSharing turns on prefix sharing and freed-block caching under the
// given eviction policy. Call before any allocation.
func (p *Pool) EnableSharing(policy EvictPolicy) {
	p.sharing = true
	p.policy = policy
	if p.index == nil {
		p.index = make(map[string][]*Block)
	}
}

// SetTracer attaches an observability tracer to the pool. now supplies the
// simulation clock (the pool itself is clock-free) and group labels the
// emitted events with the owning serving group.
func (p *Pool) SetTracer(tr obs.Tracer, now func() sim.Time, group int) {
	p.tr = tr
	p.traceNow = now
	p.traceGroup = group
}

// trace emits one kvcache instant when tracing is on.
func (p *Pool) trace(name string, args [2]obs.Arg) {
	if p.tr == nil {
		return
	}
	p.tr.Emit(obs.Event{Phase: obs.PhaseInstant, Time: p.traceNow(),
		Cat: obs.CatKVCache, Name: name, Group: p.traceGroup,
		Track: "kvcache", Req: obs.ReqNone, Args: args})
}

// SetResizeHook registers a callback fired after every capacity change
// (AddBlocks, RemoveBlocksEvicting). Reconfiguration resizes live pools —
// a drop grows the merged group's pool with the freed parameter memory, a
// restore shrinks it back — and the dispatcher's least-loaded index keys
// on demand/capacity, so capacity changes must invalidate it like demand
// changes do.
func (p *Pool) SetResizeHook(fn func()) { p.resized = fn }

// BlockTokens returns tokens per block.
func (p *Pool) BlockTokens() int { return p.blockTokens }

// TotalBlocks returns the pool capacity in blocks.
func (p *Pool) TotalBlocks() int { return p.totalBlocks }

// FreeBlocks returns content-free blocks (cached blocks excluded; they are
// reclaimable but still hold reusable prefix content — see CachedBlocks).
func (p *Pool) FreeBlocks() int { return p.freeBlocks }

// CachedBlocks returns freed-but-cached blocks awaiting reuse or eviction.
func (p *Pool) CachedBlocks() int { return len(p.cachedList) }

// AvailableBlocks returns blocks an allocation can claim right now: free
// plus cached (cached blocks are evicted before allocation fails).
func (p *Pool) AvailableBlocks() int { return p.freeBlocks + len(p.cachedList) }

// UsedBlocks returns blocks referenced by live sequences. Shared blocks
// count once however many sequences reference them.
func (p *Pool) UsedBlocks() int { return p.usedBlocks }

// SharedBlocks returns referenced blocks that are published in the shared
// index (the "pinned" share of the cache).
func (p *Pool) SharedBlocks() int {
	n := 0
	for _, chain := range p.index {
		for _, b := range chain {
			if b != nil && b.refs > 0 {
				n++
			}
		}
	}
	return n
}

// Utilization returns the referenced fraction in [0,1]; 0 for empty pools.
func (p *Pool) Utilization() float64 {
	if p.totalBlocks == 0 {
		return 0
	}
	return float64(p.usedBlocks) / float64(p.totalBlocks)
}

// LiveSequences returns the number of unfreed sequences.
func (p *Pool) LiveSequences() int { return p.seqs }

// Stats returns the pool's cumulative sharing counters.
func (p *Pool) Stats() Stats { return p.stats }

// BlocksForTokens returns the blocks needed to hold n tokens.
func (p *Pool) BlocksForTokens(n int) int {
	if n <= 0 {
		return 0
	}
	return (n + p.blockTokens - 1) / p.blockTokens
}

// CanFit reports whether n tokens could be allocated right now (evicting
// cached blocks if necessary).
func (p *Pool) CanFit(n int) bool {
	return p.BlocksForTokens(n) <= p.AvailableBlocks()
}

// AddBlocks grows the pool (parameter drop freed memory).
func (p *Pool) AddBlocks(n int) {
	if n < 0 {
		panic("kvcache: AddBlocks negative")
	}
	p.totalBlocks += n
	p.freeBlocks += n
	if p.resized != nil {
		p.resized()
	}
}

// RemoveBlocksEvicting shrinks the pool by n blocks, evicting cached-free
// blocks when the free count alone does not cover the shrink (restore
// reclaims only memory no live sequence holds). It reports how many cached
// blocks the shrink had to evict — the number the drop/restore planner
// surfaces in its reconfiguration events.
func (p *Pool) RemoveBlocksEvicting(n int) (evicted int, err error) {
	if n < 0 {
		return 0, fmt.Errorf("kvcache: RemoveBlocksEvicting(%d)", n)
	}
	if n > p.AvailableBlocks() {
		return 0, fmt.Errorf("kvcache: remove %d blocks, only %d free", n, p.AvailableBlocks())
	}
	for p.freeBlocks < n {
		p.recycleBlock(p.evictOne(true))
		p.freeBlocks++
		evicted++
	}
	p.totalBlocks -= n
	p.freeBlocks -= n
	if p.resized != nil {
		p.resized()
	}
	return evicted, nil
}

// needError is fill's allocation-shortfall error. It formats lazily and
// each pool reuses a single value, so the pressure path — where the engine
// only nil-checks the error and consults the policy — allocates nothing.
type needError struct{ need, free int }

func (e *needError) Error() string {
	return fmt.Sprintf("kvcache: need %d more blocks, %d free", e.need, e.free)
}

// takeBlock claims one physical block for a new Block reference, evicting
// the oldest cached block if no free block exists.
func (p *Pool) takeBlock() *Block {
	p.claim(1)
	return p.newBlock()
}

// takeCounted claims n physical blocks for a sequence to hold as a count.
func (p *Pool) takeCounted(n int) {
	p.claim(n)
	p.counted += n
}

// ClaimCounted claims n physical blocks that a sequence with a counted
// tail (Seq.CountedTail) is about to cross into, ahead of the tokens that
// fill them: the pool's counters, eviction order and Stats move as the
// Appends that cross would move them, and the sequence books the blocks
// at its next Commit. It panics when the pool cannot supply them; the
// caller fit-checks against AvailableBlocks.
func (p *Pool) ClaimCounted(n int) {
	if n < 0 || n > p.AvailableBlocks() {
		panic(fmt.Sprintf("kvcache: claim of %d counted blocks, %d available", n, p.AvailableBlocks()))
	}
	p.takeCounted(n)
	p.claimed += n
}

// claim moves n physical blocks to used: from the free count in bulk, then
// by evicting the head of the cached list once per block, as n
// single-block claims would. The caller has fit-checked n against
// AvailableBlocks.
func (p *Pool) claim(n int) {
	free := min(n, p.freeBlocks)
	p.freeBlocks -= free
	for range n - free {
		if len(p.cachedList) == 0 {
			panic("kvcache: pool exhausted after fit check")
		}
		p.recycleBlock(p.evictOne(false))
	}
	p.usedBlocks += n
}

// freeCounted returns n counted blocks to the free count.
func (p *Pool) freeCounted(n int) {
	p.freeBlocks += n
	p.usedBlocks -= n
	p.counted -= n
}

// newBlock returns a content-free Block struct holding one reference, for
// a physical block already claimed.
func (p *Pool) newBlock() *Block {
	if n := len(p.blockFree); n > 0 {
		b := p.blockFree[n-1]
		p.blockFree[n-1] = nil
		p.blockFree = p.blockFree[:n-1]
		b.refs = 1
		return b
	}
	if len(p.blockSlab) == 0 {
		n := 256
		if p.totalBlocks < n {
			n = p.totalBlocks
		}
		p.blockSlab = make([]Block, n)
	}
	b := &p.blockSlab[0]
	p.blockSlab = p.blockSlab[1:]
	b.refs = 1
	return b
}

// evictOne removes the eviction-order head from the cached list and the
// shared index. shrink attributes the eviction to a pool shrink rather than
// allocation pressure.
func (p *Pool) evictOne(shrink bool) *Block {
	b := p.cachedList[0]
	p.cachedList = p.cachedList[1:]
	b.cached = false
	p.unpublish(b)
	if shrink {
		p.stats.ShrinkEvictions++
	} else {
		p.stats.Evictions++
	}
	var sh int64
	if shrink {
		sh = 1
	}
	p.trace("evict", [2]obs.Arg{{Key: "shrink", Val: sh}})
	return b
}

// unref drops one reference; the last reference sends published blocks to
// the cached list and returns private blocks to the free count.
func (p *Pool) unref(b *Block) {
	if b.refs <= 0 {
		panic("kvcache: unref of unreferenced block")
	}
	b.refs--
	if b.refs > 0 {
		return
	}
	p.usedBlocks--
	if p.sharing && b.published {
		p.cacheBlock(b)
		return
	}
	p.freeBlocks++
	p.recycleBlock(b)
}

// recycleBlock returns a content-free block struct to the free list. Every
// caller has already accounted the physical slot, in freeBlocks or as
// claimed; no live sequence or index entry may still reference b.
func (p *Pool) recycleBlock(b *Block) {
	*b = Block{}
	if !p.retired {
		p.blockFree = append(p.blockFree, b)
	}
}

// getBlockSlice returns a recycled block-slice backing array (or nil).
func (p *Pool) getBlockSlice() []*Block {
	if n := len(p.sliceFree); n > 0 {
		s := p.sliceFree[n-1]
		p.sliceFree[n-1] = nil
		p.sliceFree = p.sliceFree[:n-1]
		return s
	}
	return nil
}

// putBlockSlice recycles a released sequence's block slice.
func (p *Pool) putBlockSlice(s []*Block) {
	if cap(s) == 0 || p.retired {
		return
	}
	s = s[:cap(s)]
	clear(s)
	p.sliceFree = append(p.sliceFree, s[:0])
}

// cacheBlock inserts a published, unreferenced block into the cached list
// in eviction order. LRU restamps the tick on every insertion (recency);
// FIFO keeps the first-ever tick, so a block that was matched and freed
// again keeps its original eviction position.
func (p *Pool) cacheBlock(b *Block) {
	b.cached = true
	if p.policy == EvictLRU || b.tick == 0 {
		p.tick++
		b.tick = p.tick
		p.cachedList = append(p.cachedList, b)
		return
	}
	// FIFO reinsertion: restore tick order.
	i := sort.Search(len(p.cachedList), func(i int) bool {
		return p.cachedList[i].tick > b.tick
	})
	p.cachedList = append(p.cachedList, nil)
	copy(p.cachedList[i+1:], p.cachedList[i:])
	p.cachedList[i] = b
}

// uncache removes a block from the cached list (it is being referenced
// again).
func (p *Pool) uncache(b *Block) {
	for i, x := range p.cachedList {
		if x == b {
			p.cachedList = append(p.cachedList[:i], p.cachedList[i+1:]...)
			b.cached = false
			return
		}
	}
	panic("kvcache: uncache of block not on cached list")
}

// lookup returns the published block at key, or nil.
func (p *Pool) lookup(key chainKey) *Block {
	if chain := p.index[key.id]; key.k < len(chain) {
		return chain[key.k]
	}
	return nil
}

// publish enters b into the shared index at key, which must be empty.
func (p *Pool) publish(b *Block, key chainKey) {
	chain := p.index[key.id]
	if key.k >= len(chain) {
		chain = append(chain, make([]*Block, key.k+1-len(chain))...)
		p.index[key.id] = chain
	}
	chain[key.k] = b
	b.key = key
	b.published = true
	p.stats.Published++
}

// unpublish takes published block b out of the shared index. A chain left
// with no block leaves the index.
func (p *Pool) unpublish(b *Block) {
	chain := p.index[b.key.id]
	chain[b.key.k] = nil
	if b.key.k == len(chain)-1 {
		for len(chain) > 0 && chain[len(chain)-1] == nil {
			chain = chain[:len(chain)-1]
		}
		if len(chain) == 0 {
			delete(p.index, b.key.id)
		} else {
			p.index[b.key.id] = chain
		}
	}
	b.published = false
}

// walkChain returns the published chain for pfx up to its first gap: the
// blocks that hold exactly their expected span (full blocks mid-chain; the
// trimmed boundary block may match partially filled). The result aliases
// the index, so callers read it before the next publish or unpublish.
// Every chain consumer — probing, admission fit checks, claiming — starts
// from this one walk so their match rules cannot drift apart.
func (p *Pool) walkChain(pfx Prefix) []*Block {
	if !p.sharing || pfx.Tokens <= 0 {
		return nil
	}
	chain := p.index[pfx.ID]
	n := min(len(chain), p.BlocksForTokens(pfx.Tokens))
	for k, b := range chain[:n] {
		want := min(pfx.Tokens-k*p.blockTokens, p.blockTokens)
		if b == nil || b.filled != want {
			return chain[:k]
		}
	}
	return chain[:n]
}

// matchChain claims the published chain for pfx, appending every matched
// block to dst (pass a recycled slice or nil) and returning the blocks and
// the tokens of content they carry. maxTokens bounds the claim (a
// swapped-out sequence must not come back holding more content than it
// logically has); pass pfx.Tokens or more for an unbounded match.
func (p *Pool) matchChain(dst []*Block, pfx Prefix, maxTokens int) (blocks []*Block, tokens int) {
	blocks = dst
	for _, b := range p.walkChain(pfx) {
		if tokens+b.filled > maxTokens {
			break
		}
		if b.cached {
			p.uncache(b)
			p.usedBlocks++
		}
		b.refs++
		blocks = append(blocks, b)
		tokens += b.filled
	}
	return blocks, tokens
}

// CachedPrefixTokens probes how many tokens of pfx a new sequence would be
// served from cache, without allocating anything.
func (p *Pool) CachedPrefixTokens(pfx Prefix) int {
	tokens := 0
	for _, b := range p.walkChain(pfx) {
		tokens += b.filled
	}
	return tokens
}

// fitWithPrefix computes whether a sequence of `tokens` total tokens whose
// chain match is capped at maxMatch tokens can be allocated right now,
// returning the blocks it would need beyond the match. The matched chain
// is not double-counted: cached blocks the match will claim stop being
// reclaimable, and when the chain ends in a partially filled boundary
// block that other sequences still reference, the copy-on-write block the
// first divergent write needs is reserved too. Mirrors exactly what
// matchChain + fill will do, so a positive answer guarantees they succeed.
func (p *Pool) fitWithPrefix(pfx Prefix, tokens, maxMatch int) (need int, ok bool) {
	matched, cachedTok, fromCache := 0, 0, 0
	cowRisk := false
	for _, b := range p.walkChain(pfx) {
		if cachedTok+b.filled > maxMatch {
			break
		}
		matched++
		cachedTok += b.filled
		if b.cached {
			fromCache++
		}
		cowRisk = b.filled < p.blockTokens && !b.cached
	}
	need = p.BlocksForTokens(tokens) - matched
	if need < 0 {
		need = 0
	}
	if cowRisk && tokens > cachedTok {
		// Writing past a live-shared partial boundary block copies it.
		need++
	}
	return need, need <= p.AvailableBlocks()-fromCache
}

// CanFitWithPrefix reports whether a sequence with the given prefix and
// total token count could be admitted right now (see fitWithPrefix;
// admission uses this instead of CanFit on the net-of-hit remainder).
func (p *Pool) CanFitWithPrefix(pfx Prefix, tokens int) bool {
	if !p.sharing || pfx.Tokens <= 0 {
		return p.CanFit(tokens)
	}
	_, ok := p.fitWithPrefix(pfx, tokens, pfx.Tokens)
	return ok
}

// Seq is one request's KVCache allocation: an ordered chain of blocks,
// every one full but the last. The blocks whose span starts before the
// shared prefix ends (at most ⌈prefix/blockTokens⌉, and none when the pool
// does not share or the sequence has no prefix) are Block references,
// since other sequences and the shared index may hold them too. Every
// later block is private for life and is held as a count. Blocks before
// the published cursor hold their maximal shareable content.
type Seq struct {
	pool   *Pool
	prefix Prefix
	tokens int
	// blocks are the Block references of the prefix span.
	blocks    []*Block
	published int // blocks [0, published) need no further publish scan
	// counted is the number of private blocks after blocks.
	counted  int
	swapped  bool
	released bool
}

// takeSeq returns an empty sequence with the given prefix identity,
// recycled from seqFree when one is there.
func (p *Pool) takeSeq(pfx Prefix) *Seq {
	p.seqs++
	n := len(p.seqFree)
	if n == 0 {
		return &Seq{pool: p, prefix: pfx}
	}
	s := p.seqFree[n-1]
	p.seqFree[n-1] = nil
	p.seqFree = p.seqFree[:n-1]
	*s = Seq{pool: p, prefix: pfx}
	return s
}

// NewSeq allocates a sequence holding tokens tokens of private content. It
// returns an error when the pool cannot fit it; callers treat that as
// admission failure.
func (p *Pool) NewSeq(tokens int) (*Seq, error) {
	if tokens < 0 {
		return nil, fmt.Errorf("kvcache: NewSeq(%d)", tokens)
	}
	need := p.BlocksForTokens(tokens)
	if need > p.AvailableBlocks() {
		return nil, fmt.Errorf("kvcache: need %d blocks, %d free", need, p.AvailableBlocks())
	}
	s := p.takeSeq(Prefix{})
	if err := s.fill(0, tokens); err != nil {
		panic("kvcache: fill after fit check: " + err.Error())
	}
	s.tokens = tokens
	p.trace("alloc", [2]obs.Arg{
		{Key: "tokens", Val: int64(tokens)},
		{Key: "blocks", Val: int64(s.Blocks())}})
	return s, nil
}

// NewSeqCached allocates an empty sequence with the given prefix identity,
// referencing every published block of the prefix chain already in the
// shared index. It returns the tokens served from cache: the sequence
// starts holding that much KV, and the caller skips that much prefill.
func (p *Pool) NewSeqCached(pfx Prefix) (*Seq, int, error) {
	if pfx.Tokens < 0 {
		return nil, 0, fmt.Errorf("kvcache: NewSeqCached(%d prefix tokens)", pfx.Tokens)
	}
	s := p.takeSeq(pfx)
	if p.sharing && pfx.Tokens > 0 {
		p.stats.Lookups++
		blocks, tokens := p.matchChain(p.getBlockSlice(), pfx, pfx.Tokens)
		if tokens > 0 {
			p.stats.Hits++
			p.stats.HitTokens += int64(tokens)
		}
		s.blocks = blocks
		s.published = len(blocks)
		s.tokens = tokens
	}
	p.trace("alloc", [2]obs.Arg{{Key: "tokens", Val: int64(s.tokens)}})
	if s.tokens > 0 {
		p.trace("hit", [2]obs.Arg{
			{Key: "tokens", Val: int64(s.tokens)},
			{Key: "blocks", Val: int64(len(s.blocks))}})
	}
	return s, s.tokens, nil
}

// Prefix returns the sequence's shared-prefix identity.
func (s *Seq) Prefix() Prefix { return s.prefix }

// SetPrefix attaches a shared-prefix identity to a sequence created without
// one (migration and reconfiguration transplants allocate wholesale via
// NewSeq, then restore identity so the content re-enters the destination
// pool's shared index when the sequence completes). The counted blocks the
// new prefix span covers become Block references, so they can publish. It
// must be called before the sequence publishes or matches anything.
func (s *Seq) SetPrefix(pfx Prefix) {
	s.prefix = pfx
	n := min(s.spanBlocks()-len(s.blocks), s.counted)
	if n <= 0 {
		return
	}
	p := s.pool
	s.growBlocks(n)
	for range n {
		b := p.newBlock()
		b.filled = p.blockTokens
		s.blocks = append(s.blocks, b)
	}
	s.counted -= n
	p.counted -= n
	if s.counted == 0 {
		s.blocks[len(s.blocks)-1].filled = s.tailFill()
	}
}

// spanBlocks returns how many leading blocks the sequence keeps as Block
// references: those whose span starts before its shared prefix ends.
func (s *Seq) spanBlocks() int {
	if !s.pool.sharing {
		return 0
	}
	return s.pool.BlocksForTokens(s.prefix.Tokens)
}

// growBlocks makes room for n more Block references. References cover the
// prefix span only, so the slice is sized to it once.
func (s *Seq) growBlocks(n int) {
	if n <= cap(s.blocks)-len(s.blocks) {
		return
	}
	grown := make([]*Block, len(s.blocks), s.spanBlocks())
	copy(grown, s.blocks)
	s.pool.putBlockSlice(s.blocks)
	s.blocks = grown
}

// tailFill returns the tokens in the last block: every block before it is
// full.
func (s *Seq) tailFill() int {
	return s.tokens - (s.held()-1)*s.pool.blockTokens
}

// held returns the blocks the sequence holds, references and counted.
func (s *Seq) held() int { return len(s.blocks) + s.counted }

// Tokens returns the sequence's token count (valid even while swapped).
func (s *Seq) Tokens() int { return s.tokens }

// Blocks returns GPU blocks currently held (0 while swapped out).
func (s *Seq) Blocks() int { return s.held() }

// SharedBlocks returns how many of the sequence's blocks are published in
// the shared index.
func (s *Seq) SharedBlocks() int {
	n := 0
	for _, b := range s.blocks {
		if b.published {
			n++
		}
	}
	return n
}

// Swapped reports whether the sequence lives in host memory.
func (s *Seq) Swapped() bool { return s.swapped }

// fill appends n tokens of content to a block chain already holding
// `filled` tokens — copy-on-write when the tail block is shared, eviction
// when free blocks run out — without touching s.tokens (Append and SwapIn
// account tokens differently; both know the filled count, so decode
// appends stay O(1) instead of re-summing the chain). New blocks in the
// prefix span are Block references, later ones are counted. The pool
// state is unchanged when an error is returned.
func (s *Seq) fill(filled, n int) error {
	if n <= 0 {
		return nil
	}
	p := s.pool
	bt := p.blockTokens
	held := s.held()
	// Every block but the last is full, so the tail's space is what the
	// chain lacks of held full blocks.
	tailSpace := held*bt - filled
	// Common decode append: the tail absorbs every new token, so no new
	// blocks are needed and the BlocksForTokens division is skipped.
	need := 0
	if n > tailSpace {
		need = p.BlocksForTokens(filled+n) - held
	}
	// Only a Block tail can be shared or published; a counted one takes
	// tokens with no block-level work.
	var tail *Block
	if tailSpace > 0 && s.counted == 0 {
		tail = s.blocks[len(s.blocks)-1]
	}
	cow := 0
	if tail != nil && tail.refs > 1 {
		cow = 1
	}
	if need+cow > p.AvailableBlocks() {
		p.needErr = needError{need: need + cow, free: p.AvailableBlocks()}
		return &p.needErr
	}
	take := min(tailSpace, n)
	if tail != nil {
		if cow == 1 {
			// Divergence on a shared block: copy it, keep the
			// published original for its other holders.
			nb := p.takeBlock()
			nb.filled = tail.filled
			p.unref(tail)
			s.blocks[len(s.blocks)-1] = nb
			tail = nb
			p.stats.CoWCopies++
			p.trace("cow", [2]obs.Arg{{Key: "filled", Val: int64(nb.filled)}})
		} else if tail.published {
			// Sole holder writing past the shared span: the content
			// diverges, so the block leaves the index.
			p.unpublish(tail)
		}
		tail.filled += take
	}
	n -= take
	// New blocks in chain order: references up to the end of the prefix
	// span (a sequence holding counted blocks is past it), counts after.
	refs := min(s.spanBlocks()-len(s.blocks), need)
	if refs > 0 {
		s.growBlocks(refs)
		for range refs {
			nb := p.takeBlock()
			nb.filled = min(bt, n)
			s.blocks = append(s.blocks, nb)
			n -= nb.filled
		}
	}
	if need > refs {
		p.takeCounted(need - refs)
		s.counted += need - refs
	}
	s.publishShared()
	return nil
}

// publishShared advances the publish cursor over blocks holding their
// maximal shareable content, entering prefix-pure blocks into the shared
// index. A block is shareable when its content lies entirely within the
// shared prefix and is complete for its span (a full block, or the
// boundary block filled exactly to the prefix end).
func (s *Seq) publishShared() {
	p := s.pool
	if !p.sharing || s.prefix.Tokens <= 0 {
		return
	}
	bt := p.blockTokens
	held := s.held()
	for s.published < held {
		k := s.published
		start := k * bt
		if start >= s.prefix.Tokens {
			// Beyond the shared span: nothing after this publishes.
			s.published = held
			return
		}
		b := s.blocks[k]
		end := start + b.filled
		pure := end <= s.prefix.Tokens
		maximal := b.filled == bt || end == s.prefix.Tokens
		if pure && !maximal {
			// Mid-prefix partial block: a later fill completes it.
			return
		}
		if pure && !b.published {
			if key := (chainKey{s.prefix.ID, k}); p.lookup(key) == nil {
				p.publish(b, key)
			}
			// An occupied slot means another sequence published the
			// same content first; this copy stays private.
		}
		s.published++
	}
}

// Append adds n generated tokens, allocating blocks as needed (evicting
// cached blocks first) and copying shared tail blocks on divergence. It
// returns an error when the pool is exhausted; the caller must then preempt
// per policy. A caller appending a token at a time can instead count tokens
// against Room and Commit them in bulk.
func (s *Seq) Append(n int) error {
	if s.released {
		return fmt.Errorf("kvcache: append to released seq")
	}
	if s.swapped {
		return fmt.Errorf("kvcache: append to swapped-out seq")
	}
	if n < 0 {
		return fmt.Errorf("kvcache: Append(%d)", n)
	}
	if err := s.fill(s.tokens, n); err != nil {
		return err
	}
	s.tokens += n
	return nil
}

// Room returns how many tokens an append can take with no block-level
// work: the spare capacity of a private, unpublished tail block that no
// other sequence references, once appending to it can publish nothing.
// It is zero on swapped or released sequences, on a full tail, on a
// shared or published tail (the append would copy or unpublish it), and,
// under prefix sharing, while the publish scan still has blocks to visit —
// unless the only one left is a tail whose content already extends past
// the shared prefix, which the scan merely steps over. Only this
// sequence's own appends change the answer, so a caller may count tokens
// against it and Commit them later. A counted tail (any tail past the
// prefix span) is answered from the sequence's own fields: no Block is
// read.
func (s *Seq) Room() int {
	// Swapped and released sequences hold no blocks.
	held := s.held()
	if held == 0 {
		return 0
	}
	p := s.pool
	k := held - 1
	fill := s.tokens - k*p.blockTokens
	if fill >= p.blockTokens {
		return 0
	}
	if s.counted == 0 {
		if b := s.blocks[k]; b.refs != 1 || b.published {
			return 0
		}
	}
	if p.sharing && s.prefix.Tokens > 0 && s.published <= k &&
		(s.published < k || k*p.blockTokens+fill <= s.prefix.Tokens) {
		return 0
	}
	return p.blockTokens - fill
}

// CountedTail reports whether the tail is a counted block whose Room only
// its fill bounds: once Room is spent, the next token crosses into a new
// counted block, which a caller counting tokens against Room may claim
// with Pool.ClaimCounted and book with Commit. A sequence whose
// publish scan lags (a transplant that SetPrefix gave a prefix) has no
// counted tail until an Append runs the scan. The answer holds until the
// sequence is swapped, moved or freed: its own appends keep the tail
// counted and the scan caught up.
func (s *Seq) CountedTail() bool {
	if s.counted == 0 {
		return false
	}
	p := s.pool
	return !p.sharing || s.prefix.Tokens <= 0 || s.published >= s.held()-1
}

// Commit adds n tokens at once, leaving the sequence and the pool as
// Append(n) would. Tokens up to Room need no block-level work: only the
// token count moves, plus the tail's fill when the tail is a Block
// reference. Tokens past Room need a counted tail (CountedTail) and the
// blocks they cross into already claimed from the pool with ClaimCounted;
// Commit books those blocks on the sequence, their number following from
// the token count against the blocks held. The publish scan then runs as
// Append's does. It panics on a negative n, on tokens past Room without a
// counted tail, and on crossings the pool holds no claimed blocks for.
func (s *Seq) Commit(n int) {
	if n == 0 {
		return
	}
	p := s.pool
	room := s.Room()
	if n < 0 || n > room && !s.CountedTail() {
		panic(fmt.Sprintf("kvcache: Commit(%d) with room %d and no counted tail", n, room))
	}
	if n > room {
		crossed := p.BlocksForTokens(s.tokens+n) - s.held()
		if crossed > p.claimed {
			panic(fmt.Sprintf("kvcache: Commit(%d) crosses %d blocks, %d claimed", n, crossed, p.claimed))
		}
		p.claimed -= crossed
		s.counted += crossed
	} else if s.counted == 0 {
		s.blocks[len(s.blocks)-1].filled += n
	}
	s.tokens += n
	s.publishShared()
}

// release drops every block the sequence holds: Block references one by
// one, counted blocks in bulk.
func (s *Seq) release() {
	p := s.pool
	for _, b := range s.blocks {
		p.unref(b)
	}
	p.putBlockSlice(s.blocks)
	p.freeCounted(s.counted)
	s.blocks = nil
	s.counted = 0
}

// SwapOut releases the GPU block references while retaining logical token
// state (the host DRAM copy). Shared blocks stay live for their other
// holders or enter the cache; private blocks free. Swapping an already
// swapped sequence is an error.
func (s *Seq) SwapOut() error {
	if s.released {
		return fmt.Errorf("kvcache: swap-out released seq")
	}
	if s.swapped {
		return fmt.Errorf("kvcache: double swap-out")
	}
	s.release()
	s.published = 0
	s.swapped = true
	s.pool.trace("swap_out", [2]obs.Arg{{Key: "tokens", Val: int64(s.tokens)}})
	return nil
}

// SwapIn reacquires GPU blocks for a swapped sequence, re-matching the
// shared prefix chain first so surviving cached prefix blocks are
// referenced rather than duplicated. The match is capped at the
// sequence's own token count: a victim swapped out mid-prefill must not
// come back holding chain content it never computed.
func (s *Seq) SwapIn() error {
	if s.released {
		return fmt.Errorf("kvcache: swap-in released seq")
	}
	if !s.swapped {
		return fmt.Errorf("kvcache: swap-in resident seq")
	}
	p := s.pool
	// Fit-check before claiming anything: a failed swap-in must leave the
	// pool — including the cached list's eviction order — untouched.
	if need, ok := p.fitWithPrefix(s.prefix, s.tokens, s.tokens); !ok {
		return fmt.Errorf("kvcache: swap-in needs %d blocks, %d free",
			need, p.AvailableBlocks())
	}
	var cached int
	if s.spanBlocks() > 0 {
		s.blocks, cached = p.matchChain(p.getBlockSlice(), s.prefix, s.tokens)
		s.published = len(s.blocks)
	}
	if err := s.fill(cached, s.tokens-cached); err != nil {
		panic("kvcache: fill after fit check: " + err.Error())
	}
	s.swapped = false
	p.trace("swap_in", [2]obs.Arg{
		{Key: "tokens", Val: int64(s.tokens)},
		{Key: "cached", Val: int64(cached)}})
	return nil
}

// MoveTo reallocates the sequence in dst, freeing it here. It models
// migration (Llumnix) and the §4.2 KVCache exchange destination allocation;
// the caller accounts for transfer time separately. The prefix identity
// travels with the sequence, so its content can publish in dst.
func (s *Seq) MoveTo(dst *Pool) (*Seq, error) {
	if s.released {
		return nil, fmt.Errorf("kvcache: move released seq")
	}
	moved, err := dst.NewSeq(s.tokens)
	if err != nil {
		return nil, err
	}
	moved.SetPrefix(s.prefix)
	s.Free()
	return moved, nil
}

// Free releases the sequence's blocks. Block references published in the
// shared index (including the boundary block, trimmed to its prefix
// content) move to the cached list instead of the free count, so a
// completed or preempted request's prefix survives for the next arrival.
// Counted blocks return to the free count in one step. The Seq itself
// returns to the pool for reuse by a later NewSeq or NewSeqCached, so the
// caller must drop its pointer; freeing a released sequence panics.
func (s *Seq) Free() {
	if s.released {
		panic("kvcache: free of a released seq")
	}
	p := s.pool
	if !s.swapped {
		if p.sharing && s.prefix.Tokens > 0 {
			s.publishShared()
			s.trimPublishBoundary()
		}
		s.release()
	}
	s.released = true
	p.seqs--
	if !p.retired {
		p.seqFree = append(p.seqFree, s)
	}
}

// Retire marks a pool whose group has dissolved: it drops its recycled
// Seq, Block and slice structs and its warm-up arena, and recycles nothing
// freed from now on, so a retired pool pins no spare memory. Its Stats and
// cached blocks stay readable, and sequences still live on it work as
// before.
func (p *Pool) Retire() {
	p.retired = true
	p.seqFree = nil
	p.blockFree = nil
	p.sliceFree = nil
	p.blockSlab = nil
}

// trimPublishBoundary publishes the block straddling the prefix boundary at
// free time: the private tail being discarded, the block's prefix content
// remains valid, so it is trimmed to the boundary and cached. (Real vLLM
// caches only full blocks; retaining the trimmed boundary is the simulator
// idealization that makes partial-block sharing — and thus copy-on-write —
// expressible.)
func (s *Seq) trimPublishBoundary() {
	p := s.pool
	bt := p.blockTokens
	if s.prefix.Tokens%bt == 0 {
		return // the boundary falls on a block edge; nothing partial
	}
	k := s.prefix.Tokens / bt
	if k >= len(s.blocks) {
		return
	}
	b := s.blocks[k]
	want := s.prefix.Tokens - k*bt
	if b.published || b.refs != 1 || b.filled < want {
		return // already published, shared with others, or incomplete
	}
	key := chainKey{s.prefix.ID, k}
	if p.lookup(key) != nil {
		return // another copy already cached
	}
	b.filled = want
	p.publish(b, key)
}

// CheckInvariants validates pool accounting.
func (p *Pool) CheckInvariants() error {
	if p.freeBlocks < 0 {
		return fmt.Errorf("kvcache: negative free blocks %d", p.freeBlocks)
	}
	if p.usedBlocks < 0 {
		return fmt.Errorf("kvcache: negative used blocks %d", p.usedBlocks)
	}
	if p.freeBlocks+p.usedBlocks+len(p.cachedList) != p.totalBlocks {
		return fmt.Errorf("kvcache: free %d + used %d + cached %d != total %d",
			p.freeBlocks, p.usedBlocks, len(p.cachedList), p.totalBlocks)
	}
	if p.counted < 0 || p.counted > p.usedBlocks {
		return fmt.Errorf("kvcache: counted blocks %d outside [0, used %d]", p.counted, p.usedBlocks)
	}
	if p.claimed < 0 || p.claimed > p.counted {
		return fmt.Errorf("kvcache: claimed blocks %d outside [0, counted %d]", p.claimed, p.counted)
	}
	if p.seqs < 0 {
		return fmt.Errorf("kvcache: negative live sequences")
	}
	recycled := make(map[*Seq]bool, len(p.seqFree))
	for i, s := range p.seqFree {
		if !s.released || s.pool != p {
			return fmt.Errorf("kvcache: recycled seq %d not released to this pool", i)
		}
		if recycled[s] {
			return fmt.Errorf("kvcache: recycled seq %d listed twice", i)
		}
		recycled[s] = true
	}
	for i, b := range p.cachedList {
		if !b.cached || b.refs != 0 {
			return fmt.Errorf("kvcache: cached list entry %d refs=%d cached=%v", i, b.refs, b.cached)
		}
		if !b.published || p.lookup(b.key) != b {
			return fmt.Errorf("kvcache: cached list entry %d not reachable through its chain", i)
		}
		if i > 0 && p.cachedList[i-1].tick > b.tick {
			return fmt.Errorf("kvcache: cached list out of eviction order at %d", i)
		}
	}
	for id, chain := range p.index {
		if len(chain) == 0 || chain[len(chain)-1] == nil {
			return fmt.Errorf("kvcache: chain %q ends in an empty slot", id)
		}
		for k, b := range chain {
			if b == nil {
				continue
			}
			if !b.published || b.key != (chainKey{id, k}) {
				return fmt.Errorf("kvcache: chain %q slot %d holds a block keyed %q/%d (published %v)",
					id, k, b.key.id, b.key.k, b.published)
			}
			if b.refs == 0 && !b.cached {
				return fmt.Errorf("kvcache: chain %q slot %d neither referenced nor cached", id, k)
			}
		}
	}
	return nil
}
