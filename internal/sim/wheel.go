package sim

import "math/bits"

// Timing-wheel mechanics: the node slab and free list, the bucket wheel, the
// overflow heap, and cancellation with lazy or eager reclamation. Every
// operation is judged against the engine's own clock, e.now.

func (e *Engine) alloc() int32 {
	if e.free != noNode {
		i := e.free
		e.free = e.nodes[i].next
		return i
	}
	e.nodes = append(e.nodes, eventNode{})
	return int32(len(e.nodes) - 1)
}

// cancel marks the node dead if the handle is still current, then reclaims
// cancelled events eagerly once they outnumber live ones, bounding the
// memory a cancel-heavy workload can pin.
func (e *Engine) cancel(idx int32, gen uint32) {
	if idx < 0 || int(idx) >= len(e.nodes) {
		return
	}
	n := &e.nodes[idx]
	if n.gen != gen || n.dead {
		return
	}
	n.dead = true
	n.fn, n.sink = nil, nil
	e.live--
	e.dead++
	if e.dead > e.live && e.dead >= compactMin {
		e.compact()
	}
}

// freeNode recycles a node. Bumping the generation invalidates outstanding
// handles; clearing the callbacks releases captured state to the GC.
func (e *Engine) freeNode(i int32) {
	n := &e.nodes[i]
	n.fn, n.sink = nil, nil
	n.gen++
	n.next = e.free
	e.free = i
}

// reclaim frees a cancelled node encountered during dispatch or compaction.
func (e *Engine) reclaim(i int32) {
	e.dead--
	e.freeNode(i)
}

// clearBuckets empties every occupied bucket and its occupancy bit.
func (e *Engine) clearBuckets() {
	for w := 0; w < wheelWords; w++ {
		word := e.occ[w]
		for word != 0 {
			bkt := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.buckets[bkt] = bucket{head: noNode, tail: noNode}
		}
		e.occ[w] = 0
	}
}

// wheelPush appends node i to the bucket for cycle at (FIFO order).
func (e *Engine) wheelPush(i int32, at Cycle) {
	bkt := int(at) & wheelMask
	b := &e.buckets[bkt]
	if b.head == noNode {
		b.head = i
		e.occ[bkt>>6] |= 1 << (uint(bkt) & 63)
	} else {
		e.nodes[b.tail].next = i
	}
	b.tail = i
	e.wheelCount++
}

// bucketPopHead unlinks and returns the bucket's first node.
func (e *Engine) bucketPopHead(bkt int) int32 {
	b := &e.buckets[bkt]
	i := b.head
	b.head = e.nodes[i].next
	if b.head == noNode {
		b.tail = noNode
		e.occ[bkt>>6] &^= 1 << (uint(bkt) & 63)
	}
	e.wheelCount--
	return i
}

// scanBucket finds the occupied bucket closest to the clock. Buckets map
// one-to-one onto the cycles [now, now+wheelSize), so a circular bitmap scan
// starting at now's own bucket visits them in time order.
func (e *Engine) scanBucket() (bkt int, dist int, ok bool) {
	s := int(e.now) & wheelMask
	w0 := s >> 6
	if word := e.occ[w0] & (^uint64(0) << (uint(s) & 63)); word != 0 {
		b := w0<<6 + bits.TrailingZeros64(word)
		return b, b - s, true
	}
	for k := 1; k <= wheelWords; k++ {
		w := (w0 + k) & (wheelWords - 1)
		if e.occ[w] != 0 {
			b := w<<6 + bits.TrailingZeros64(e.occ[w])
			d := b - s
			if d < 0 {
				d += wheelSize
			}
			return b, d, true
		}
	}
	return 0, 0, false
}

// migrate moves overflow events that entered the wheel's horizon into their
// buckets. It must run every time the clock advances, before any callback
// gets a chance to schedule: heap order is (at, seq), and every event a
// callback schedules afterwards has a larger seq, so bucket FIFO order
// equals global (at, seq) order.
func (e *Engine) migrate() {
	for len(e.overflow) > 0 {
		top := e.overflow[0]
		n := &e.nodes[top]
		if n.dead {
			e.overflowPop()
			e.reclaim(top)
			continue
		}
		if n.at-e.now >= wheelSize {
			return
		}
		e.overflowPop()
		n.next = noNode
		e.wheelPush(top, n.at)
	}
}

// pop advances to the next live event at or before limit and unlinks it,
// returning its node index. It reports false when no such event exists; the
// clock is only advanced when an event is committed for dispatch. The
// popped node stays allocated — the caller dispatches and frees it.
func (e *Engine) pop(limit Cycle) (int32, bool) {
	for e.live > 0 {
		if e.wheelCount == 0 {
			if len(e.overflow) == 0 {
				return 0, false
			}
			top := e.overflow[0]
			n := &e.nodes[top]
			if n.dead {
				e.overflowPop()
				e.reclaim(top)
				continue
			}
			if n.at > limit {
				return 0, false
			}
			// Jump the clock to the far-future event and pull it (and
			// everything else now in horizon) into the wheel.
			e.now = n.at
			e.migrate()
			continue
		}
		bkt, dist, ok := e.scanBucket()
		if !ok {
			// Unreachable: wheelCount > 0 implies an occupancy bit.
			return 0, false
		}
		t := e.now + Cycle(dist)
		b := &e.buckets[bkt]
		for b.head != noNode {
			i := b.head
			if e.nodes[i].dead {
				e.bucketPopHead(bkt)
				e.reclaim(i)
				continue
			}
			if t > limit {
				return 0, false
			}
			e.now = t
			e.migrate()
			e.bucketPopHead(bkt)
			return i, true
		}
		// Bucket held only cancelled events; rescan.
	}
	return 0, false
}

// compact reclaims cancelled events eagerly, bounding the memory a
// cancel-heavy workload can pin.
func (e *Engine) compact() {
	for w := 0; w < wheelWords; w++ {
		word := e.occ[w]
		for word != 0 {
			bkt := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			e.compactBucket(bkt)
		}
	}
	kept := e.overflow[:0]
	for _, i := range e.overflow {
		if e.nodes[i].dead {
			e.reclaim(i)
		} else {
			kept = append(kept, i)
		}
	}
	e.overflow = kept
	for k := len(kept)/2 - 1; k >= 0; k-- {
		e.siftDown(k)
	}
}

func (e *Engine) compactBucket(bkt int) {
	b := &e.buckets[bkt]
	prev := noNode
	for i := b.head; i != noNode; {
		next := e.nodes[i].next
		if e.nodes[i].dead {
			if prev == noNode {
				b.head = next
			} else {
				e.nodes[prev].next = next
			}
			if next == noNode {
				b.tail = prev
			}
			e.wheelCount--
			e.reclaim(i)
		} else {
			prev = i
		}
		i = next
	}
	if b.head == noNode {
		e.occ[bkt>>6] &^= 1 << (uint(bkt) & 63)
	}
}

// Overflow heap: a plain binary min-heap over node indices ordered by
// (at, seq), implemented directly to avoid container/heap's interface
// boxing on the hot path.

func (e *Engine) overflowLess(a, b int32) bool {
	na, nb := &e.nodes[a], &e.nodes[b]
	if na.at != nb.at {
		return na.at < nb.at
	}
	return na.seq < nb.seq
}

func (e *Engine) overflowPush(i int32) {
	e.overflow = append(e.overflow, i)
	c := len(e.overflow) - 1
	for c > 0 {
		p := (c - 1) / 2
		if !e.overflowLess(e.overflow[c], e.overflow[p]) {
			break
		}
		e.overflow[c], e.overflow[p] = e.overflow[p], e.overflow[c]
		c = p
	}
}

func (e *Engine) overflowPop() {
	last := len(e.overflow) - 1
	e.overflow[0] = e.overflow[last]
	e.overflow = e.overflow[:last]
	if last > 0 {
		e.siftDown(0)
	}
}

func (e *Engine) siftDown(p int) {
	n := len(e.overflow)
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && e.overflowLess(e.overflow[r], e.overflow[c]) {
			c = r
		}
		if !e.overflowLess(e.overflow[c], e.overflow[p]) {
			return
		}
		e.overflow[c], e.overflow[p] = e.overflow[p], e.overflow[c]
		p = c
	}
}
