// Package sim provides the discrete-event simulation engine used by every
// other subsystem: a cycle-granular clock and a deterministic event queue.
//
// Components schedule callbacks at absolute cycle times; the engine
// dispatches them in time order, breaking ties by insertion order so that
// runs are fully reproducible.
//
// # Internals
//
// The queue is a hierarchical timing wheel sized for the simulator's
// scheduling horizon: almost every delta is short (DRAM timings, NoC hops,
// poll gaps are tens to thousands of cycles), so events within wheelSize
// cycles of the clock live in a bucket-per-cycle wheel with O(1) insert and
// a bitmap-guided scan to the next occupied bucket. The rare far-future
// events (refresh intervals, low-rate Poisson gaps) sit in a small binary
// min-heap keyed by (cycle, sequence) and migrate into the wheel as the
// clock approaches them. The wheel mechanics live in wheel.go.
//
// Event nodes are pooled: they live in one growable slab, are addressed by
// index, and recycle through a free list, so steady-state scheduling and
// dispatch perform no heap allocations. Handles carry a generation counter
// to make Cancel on an already-fired (and recycled) event a safe no-op.
package sim

const (
	wheelBits  = 13
	wheelSize  = 1 << wheelBits // cycles of near-future horizon
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64

	// compactMin bounds how small a queue bothers compacting dead events.
	compactMin = 1024
)

const (
	noNode   = int32(-1)
	maxCycle = ^Cycle(0)
)

// Cycle is a point in simulated time, measured in CPU clock cycles.
type Cycle = uint64

// Event is a callback scheduled to run at a specific cycle.
type Event func(now Cycle)

// Sink is the allocation-free callback form: components implement OnEvent
// once and schedule themselves with Engine.Schedule, passing an arg that
// selects the action. Unlike closures, a Sink scheduling itself repeatedly
// costs zero heap allocations.
type Sink interface {
	OnEvent(now Cycle, arg uint64)
}

// eventNode is one pooled queue entry. Nodes are addressed by slab index;
// next links them into a bucket's FIFO list or the free list.
type eventNode struct {
	at   Cycle
	seq  uint64
	arg  uint64
	fn   Event
	sink Sink
	next int32
	gen  uint32
	dead bool
}

type bucket struct{ head, tail int32 }

// Handle identifies a scheduled event so that it can be cancelled.
type Handle struct {
	e   *Engine
	idx int32
	gen uint32
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. The callback and its captured state
// are released immediately.
func (h Handle) Cancel() {
	if h.e != nil {
		h.e.cancel(h.idx, h.gen)
	}
}

// Engine is a discrete-event simulator. The zero value is not usable; create
// one with NewEngine.
//
// Dead (cancelled) nodes are reclaimed lazily as pops and migrations walk
// over them; compact reclaims them eagerly once they outnumber live ones.
type Engine struct {
	now Cycle
	seq uint64

	nodes []eventNode
	free  int32 // free-list head

	buckets    [wheelSize]bucket
	occ        [wheelWords]uint64 // bit set iff bucket non-empty
	wheelCount int                // nodes resident in buckets (incl. dead)

	overflow []int32 // min-heap by (at, seq): events beyond the wheel

	live int // scheduled, non-cancelled events
	dead int // cancelled events awaiting reclamation
}

// NewEngine returns an engine with the clock at cycle zero and no pending
// events.
func NewEngine() *Engine {
	e := &Engine{free: noNode}
	for i := range e.buckets {
		e.buckets[i] = bucket{head: noNode, tail: noNode}
	}
	return e
}

// Reset returns the engine to its just-constructed observable state — clock
// at zero, no pending events — while retaining the node slab and overflow
// heap capacity. Every node's generation is bumped and its callback cleared,
// so Handles from before the Reset cannot cancel recycled events and
// captured state is released to the GC; the free list is rebuilt in slab
// order so allocation proceeds exactly as in a fresh engine.
func (e *Engine) Reset() {
	e.clearBuckets()
	e.free = noNode
	for i := len(e.nodes) - 1; i >= 0; i-- {
		n := &e.nodes[i]
		n.fn, n.sink = nil, nil
		n.dead = false
		n.gen++
		n.next = e.free
		e.free = int32(i)
	}
	e.overflow = e.overflow[:0]
	e.wheelCount = 0
	e.live, e.dead = 0, 0
	e.now, e.seq = 0, 0
}

// Now reports the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of scheduled (non-cancelled) events.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at the absolute cycle at. Scheduling in the past
// (at < Now) clamps to the current cycle: the event runs before the clock
// advances further.
func (e *Engine) At(at Cycle, fn Event) Handle {
	return e.schedule(at, fn, nil, 0)
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) Handle {
	return e.schedule(e.now+delay, fn, nil, 0)
}

// Schedule schedules s.OnEvent(at, arg) at the absolute cycle at. This is
// the allocation-free path: no closure is created, and the event node comes
// from the engine's pool.
func (e *Engine) Schedule(at Cycle, s Sink, arg uint64) Handle {
	return e.schedule(at, nil, s, arg)
}

// ScheduleAfter schedules s.OnEvent delay cycles from now.
func (e *Engine) ScheduleAfter(delay Cycle, s Sink, arg uint64) Handle {
	return e.schedule(e.now+delay, nil, s, arg)
}

// schedule allocates a node, stamps the event and links it into the wheel
// (near future) or the overflow heap (beyond the wheel's horizon).
func (e *Engine) schedule(at Cycle, fn Event, sink Sink, arg uint64) Handle {
	if at < e.now {
		at = e.now
	}
	i := e.alloc()
	n := &e.nodes[i]
	n.at, n.seq, n.arg = at, e.seq, arg
	n.fn, n.sink = fn, sink
	n.next, n.dead = noNode, false
	e.seq++
	e.live++
	if at-e.now < wheelSize {
		e.wheelPush(i, at)
	} else {
		e.overflowPush(i)
	}
	return Handle{e: e, idx: i, gen: n.gen}
}

// dispatch fires node i's callback at the current cycle. The node is
// recycled first so a callback rescheduling itself reuses it without
// touching the allocator.
func (e *Engine) dispatch(i int32) {
	n := &e.nodes[i]
	fn, sink, arg := n.fn, n.sink, n.arg
	e.live--
	e.freeNode(i)
	if sink != nil {
		sink.OnEvent(e.now, arg)
		return
	}
	fn(e.now)
}

// Step dispatches the single earliest pending event, advancing the clock to
// its timestamp. It reports false when no events remain.
func (e *Engine) Step() bool {
	i, ok := e.pop(maxCycle)
	if !ok {
		return false
	}
	e.dispatch(i)
	return true
}

// RunUntil dispatches events in order until the queue is empty or the next
// event lies strictly beyond limit. The clock finishes at min(limit, time of
// last dispatched event); events at exactly limit are dispatched.
func (e *Engine) RunUntil(limit Cycle) {
	for {
		i, ok := e.pop(limit)
		if !ok {
			break
		}
		e.dispatch(i)
	}
	if e.now < limit {
		e.now = limit
	}
}

// Drain dispatches every remaining event. Use only in tests or teardown:
// components that perpetually reschedule themselves will never drain.
func (e *Engine) Drain() {
	for e.Step() {
	}
}
