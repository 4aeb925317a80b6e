// Package network models the scale-out fabric between serving instances
// (200/400 Gbps RDMA in Table 2).
//
// Contention in the paper happens at an instance's NIC: pipeline activation
// forwarding (small, latency-critical) competes with bulk KVCache exchange
// and parameter restoration (large, throughput-bound). Each instance
// therefore owns one egress Link modelled as a non-preemptive bandwidth
// resource with strict priority classes. Because an in-flight transfer
// cannot be preempted, bulk senders must chunk their traffic — exactly the
// coordinated-exchange design of §4.2: chunk sizes are picked so one chunk
// takes about a pipeline-stage time, and a pending activation transfer then
// waits at most one chunk.
package network

import (
	"fmt"

	"kunserve/internal/sim"
)

// Priority orders transfer classes; lower value preempts queue order.
type Priority int

const (
	// PriorityActivation is pipeline activation forwarding (§4.2: "the
	// activation transfer is more critical and its usage is small").
	PriorityActivation Priority = iota
	// PriorityParameter is parameter restoration traffic (§4.4),
	// prioritized below activations but above bulk KVCache.
	PriorityParameter
	// PriorityBulk is KVCache exchange/migration/swap traffic.
	PriorityBulk
	numPriorities
)

// Transfer is one queued send. Chunk sends of a bulk transfer carry bulk
// instead of done: completion dispatches to the bulk stream directly, so a
// long chunked transfer schedules no per-chunk closures at all.
type transfer struct {
	bytes int64
	done  func()
	bulk  *bulkTransfer
}

// Link is a unidirectional bandwidth resource (one instance's NIC egress).
type Link struct {
	simu      *sim.Simulation
	name      string
	bandwidth float64 // bytes per second
	latency   sim.Duration
	queues    [numPriorities][]transfer
	busy      bool

	// cur/curPri is the in-flight transfer; onDone its persistent
	// completion callback (one per link), so steady-state sends schedule
	// no closures.
	cur    transfer
	curPri Priority
	onDone func()

	// bulkFree recycles finished bulk transfer records (SendChunked).
	bulkFree []*bulkTransfer

	// Stats.
	bytesSent  int64
	busySince  sim.Time
	busyTotal  sim.Duration
	sendsByPri [numPriorities]int64
}

// NewLink creates a link with the given bandwidth (bytes/s) and fixed
// per-transfer latency (propagation + rendezvous).
func NewLink(s *sim.Simulation, name string, bandwidthBps float64, latency sim.Duration) *Link {
	if bandwidthBps <= 0 {
		panic(fmt.Sprintf("network: bandwidth %v", bandwidthBps))
	}
	l := &Link{simu: s, name: name, bandwidth: bandwidthBps, latency: latency}
	l.onDone = l.transferDone
	return l
}

// Name returns the link's identifier.
func (l *Link) Name() string { return l.name }

// Bandwidth returns bytes/s.
func (l *Link) Bandwidth() float64 { return l.bandwidth }

// TransferTime returns the serialization+latency time for a payload.
func (l *Link) TransferTime(bytes int64) sim.Duration {
	return l.latency + sim.DurationFromSeconds(float64(bytes)/l.bandwidth)
}

// Busy reports whether a transfer is in flight.
func (l *Link) Busy() bool { return l.busy }

// BytesSent returns total payload bytes completed.
func (l *Link) BytesSent() int64 { return l.bytesSent }

// BusyTime returns cumulative time the link spent transferring.
func (l *Link) BusyTime() sim.Duration {
	if l.busy {
		return l.busyTotal + l.simu.Now().Sub(l.busySince)
	}
	return l.busyTotal
}

// Sends returns the number of completed transfers in the class.
func (l *Link) Sends(p Priority) int64 { return l.sendsByPri[p] }

// Send enqueues a transfer; done runs when the last byte arrives. Zero-byte
// sends complete after the link latency only (they still serialize).
func (l *Link) Send(bytes int64, pri Priority, done func()) {
	if bytes < 0 {
		panic(fmt.Sprintf("network: negative send %d", bytes))
	}
	if pri < 0 || pri >= numPriorities {
		panic(fmt.Sprintf("network: priority %d", pri))
	}
	l.queues[pri] = append(l.queues[pri], transfer{bytes: bytes, done: done})
	l.pump()
}

// sendBulk enqueues one chunk of a bulk stream (no per-chunk closure).
func (l *Link) sendBulk(bytes int64, pri Priority, bt *bulkTransfer) {
	l.queues[pri] = append(l.queues[pri], transfer{bytes: bytes, bulk: bt})
	l.pump()
}

func (l *Link) pump() {
	if l.busy {
		return
	}
	pri := Priority(-1)
	for p := Priority(0); p < numPriorities; p++ {
		if len(l.queues[p]) > 0 {
			pri = p
			break
		}
	}
	if pri < 0 {
		return
	}
	q := l.queues[pri]
	tr := q[0]
	copy(q, q[1:])
	q[len(q)-1] = transfer{}
	l.queues[pri] = q[:len(q)-1]
	l.busy = true
	l.cur = tr
	l.curPri = pri
	l.busySince = l.simu.Now()
	l.simu.After(l.TransferTime(tr.bytes), "net", l.onDone)
}

// transferDone completes the in-flight transfer and pumps the next one.
func (l *Link) transferDone() {
	tr, pri := l.cur, l.curPri
	l.cur = transfer{}
	l.busy = false
	l.busyTotal += l.simu.Now().Sub(l.busySince)
	l.bytesSent += tr.bytes
	l.sendsByPri[pri]++
	if tr.bulk != nil {
		tr.bulk.chunkLanded()
	} else if tr.done != nil {
		tr.done()
	}
	l.pump()
}

// bulkTransfer is a chunked send used for KVCache exchange and parameter
// restoration. Each chunk is a separate link transfer, so higher-priority
// traffic interleaves between chunks — the coordinated transfer of §4.2.
type bulkTransfer struct {
	link      *Link
	remaining int64
	chunk     int64
	pri       Priority
	done      func()
	onChunk   func(chunkBytes int64)

	// curN is the in-flight chunk's size; the link dispatches chunk
	// completion straight to chunkLanded, so long bulk streams schedule no
	// per-chunk closures.
	curN int64
}

// SendChunked starts a chunked bulk transfer of totalBytes in chunkBytes
// pieces. onChunk, unless nil, fires after each chunk lands with that
// chunk's byte count (observability); done, unless nil, fires once after
// the final chunk. Neither fires before SendChunked returns. The link
// recycles the transfer's record once its completion send is queued, so
// steady-state transfers allocate nothing. Negative totals and
// non-positive chunk sizes panic — a silently accepted bad chunk size
// would loop the transfer forever, and negative bytes are always a
// caller's accounting bug. A zero total is legal and completes after one
// zero-byte tail send (like Send, it still serializes through the link).
func (l *Link) SendChunked(totalBytes, chunkBytes int64, pri Priority, onChunk func(chunkBytes int64), done func()) {
	if totalBytes < 0 {
		panic(fmt.Sprintf("network: negative chunked send %d", totalBytes))
	}
	if chunkBytes <= 0 {
		panic(fmt.Sprintf("network: chunk size %d", chunkBytes))
	}
	var bt *bulkTransfer
	if n := len(l.bulkFree); n > 0 {
		bt = l.bulkFree[n-1]
		l.bulkFree[n-1] = nil
		l.bulkFree = l.bulkFree[:n-1]
	} else {
		bt = &bulkTransfer{link: l}
	}
	bt.remaining, bt.chunk, bt.pri = totalBytes, chunkBytes, pri
	bt.onChunk, bt.done = onChunk, done
	bt.next()
}

// chunkLanded completes the in-flight chunk and issues the next one.
func (bt *bulkTransfer) chunkLanded() {
	bt.remaining -= bt.curN
	if bt.onChunk != nil {
		bt.onChunk(bt.curN)
	}
	bt.next()
}

func (bt *bulkTransfer) next() {
	if bt.remaining <= 0 {
		// Completion always goes through the link (a zero-byte tail
		// send) so done never fires synchronously inside the caller —
		// re-entrant completion would let a policy callback interleave
		// with the scheduling round that started the transfer. The
		// queued send holds done itself, so the record is free to reuse;
		// it drops its callbacks so the free list pins nothing.
		l := bt.link
		if bt.done != nil {
			l.Send(0, bt.pri, bt.done)
		}
		bt.done, bt.onChunk = nil, nil
		l.bulkFree = append(l.bulkFree, bt)
		return
	}
	n := bt.chunk
	if n > bt.remaining {
		n = bt.remaining
	}
	bt.curN = n
	bt.link.sendBulk(n, bt.pri, bt)
}

// Fabric is the cluster's scale-out network: one egress link per instance.
type Fabric struct {
	simu  *sim.Simulation
	links []*Link
}

// NewFabric creates n instance egress links of identical bandwidth/latency.
func NewFabric(s *sim.Simulation, n int, bandwidthBps float64, latency sim.Duration) *Fabric {
	f := &Fabric{simu: s}
	for i := 0; i < n; i++ {
		f.links = append(f.links, NewLink(s, fmt.Sprintf("egress-%d", i), bandwidthBps, latency))
	}
	return f
}

// Egress returns instance i's egress link.
func (f *Fabric) Egress(i int) *Link { return f.links[i] }

// Size returns the number of instances.
func (f *Fabric) Size() int { return len(f.links) }

// RDMA200 is Cluster A's 200 Gbps unidirectional bandwidth in bytes/s.
const RDMA200 = 200e9 / 8

// RDMA400 is Cluster B's 400 Gbps unidirectional bandwidth in bytes/s.
const RDMA400 = 400e9 / 8

// DefaultLatency is the per-transfer fixed cost (RDMA rendezvous ~ a few µs).
const DefaultLatency = 5 * sim.Microsecond
