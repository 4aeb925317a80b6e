package sched

// LeastLoaded routes to the group with the lowest demand/capacity ratio —
// the Llumnix-style load-balancing dispatcher every evaluated system
// shares (§3), and the cluster's default.
type LeastLoaded struct{}

// NewLeastLoaded returns the default least-loaded router.
func NewLeastLoaded() *LeastLoaded { return &LeastLoaded{} }

// Name implements Router.
func (*LeastLoaded) Name() string { return "least-loaded" }

// Key implements Router: the candidate's demand/capacity ratio.
func (*LeastLoaded) Key(c Candidate) float64 { return c.Load() }

// QueueDepth routes to the candidate with the fewest waiting requests,
// ignoring KV demand. This is the disaggregated prefill dispatcher: a
// prefill pool's queues drain at prompt-processing speed, so queue depth —
// not resident KV, which prefill groups shed at every handoff — is the
// congestion signal that predicts a new prompt's wait.
type QueueDepth struct{}

// NewQueueDepth returns a queue-depth router.
func NewQueueDepth() *QueueDepth { return &QueueDepth{} }

// Name implements Router.
func (*QueueDepth) Name() string { return "queue-depth" }

// Key implements Router.
func (*QueueDepth) Key(c Candidate) float64 { return float64(c.QueueLen) }
