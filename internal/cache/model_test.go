package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// refWay is one way of the reference model.
type refWay struct {
	valid, dirty bool
	addr         uint64
}

// refSet is one set of the reference model: explicit ways plus an explicit
// recency list of the valid ones, least recently used first.
type refSet struct {
	ways  []refWay
	order []int
}

// refCache is a deliberately naive model of SetAssoc: no generations, no
// packed words, no filters. An insert that misses takes the lowest-index
// invalid way the mask allows, else the least recently used allowed way.
type refCache struct {
	sets         []refSet
	hits, misses uint64
}

func newRefCache(sets, ways int) *refCache {
	m := &refCache{sets: make([]refSet, sets)}
	for s := range m.sets {
		m.sets[s].ways = make([]refWay, ways)
	}
	return m
}

func (m *refCache) set(a uint64) *refSet {
	return &m.sets[(a/lineBytes)%uint64(len(m.sets))]
}

// find returns the way holding a, or -1.
func (s *refSet) find(a uint64) int {
	for w, x := range s.ways {
		if x.valid && x.addr == a {
			return w
		}
	}
	return -1
}

func (s *refSet) unlink(w int) {
	for i, x := range s.order {
		if x == w {
			s.order = append(s.order[:i], s.order[i+1:]...)
			return
		}
	}
}

func (s *refSet) touch(w int) {
	s.unlink(w)
	s.order = append(s.order, w)
}

func (s *refSet) drop(w int) {
	s.unlink(w)
	s.ways[w] = refWay{}
}

func (s *refSet) state(w int) State {
	if s.ways[w].dirty {
		return Dirty
	}
	return Clean
}

func (m *refCache) Lookup(a uint64) State {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		s.touch(w)
		m.hits++
		return s.state(w)
	}
	m.misses++
	return Invalid
}

func (m *refCache) Peek(a uint64) State {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		return s.state(w)
	}
	return Invalid
}

func (m *refCache) SetDirty(a uint64) bool {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		s.ways[w].dirty = true
		s.touch(w)
		return true
	}
	return false
}

func (m *refCache) MakeClean(a uint64) (present, wasDirty bool) {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		wasDirty = s.ways[w].dirty
		s.ways[w].dirty = false
		return true, wasDirty
	}
	return false, false
}

func (m *refCache) Invalidate(a uint64) (present, dirty bool) {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		dirty = s.ways[w].dirty
		s.drop(w)
		return true, dirty
	}
	return false, false
}

func (m *refCache) Extract(a uint64) State {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		st := s.state(w)
		s.drop(w)
		return st
	}
	return Invalid
}

func (m *refCache) Insert(a uint64, dirty bool, mask WayMask) Victim {
	s := m.set(a)
	if w := s.find(a); w >= 0 {
		s.ways[w].dirty = s.ways[w].dirty || dirty
		s.touch(w)
		return Victim{Merged: true}
	}
	allowed := func(w int) bool { return mask&(1<<uint(w)) != 0 }
	victim := -1
	for w, x := range s.ways {
		if !x.valid && allowed(w) {
			victim = w
			break
		}
	}
	if victim < 0 {
		for _, w := range s.order {
			if allowed(w) {
				victim = w
				break
			}
		}
	}
	var v Victim
	if old := s.ways[victim]; old.valid {
		v = Victim{Addr: old.addr, Dirty: old.dirty, Valid: true}
	}
	s.ways[victim] = refWay{valid: true, dirty: dirty, addr: a}
	s.touch(victim)
	return v
}

func (m *refCache) Reset() {
	for s := range m.sets {
		clear(m.sets[s].ways)
		m.sets[s].order = m.sets[s].order[:0]
	}
	m.hits, m.misses = 0, 0
}

func (m *refCache) ValidLines() int {
	n := 0
	for _, s := range m.sets {
		n += len(s.order)
	}
	return n
}

// driveAgainstModel runs nOps random operations against c and a fresh
// reference model of the same geometry, failing on the first return value
// that differs, then compares the final statistics. Addresses come from a
// pool four times the capacity so hits, merges and evictions all occur;
// masks are either full or a random non-empty subset of the ways. With
// withReset, Reset is one of the operations.
func driveAgainstModel(t *testing.T, c *SetAssoc, rng *rand.Rand, nOps int, withReset bool) {
	t.Helper()
	m := newRefCache(c.Sets(), c.Ways())
	lines := c.Sets() * c.Ways() * 4
	addr := func() uint64 { return uint64(rng.Intn(lines)) * lineBytes }
	ops := 8
	if withReset {
		ops = 9
	}
	for i := 0; i < nOps; i++ {
		a := addr()
		var got, want any
		var op string
		switch rng.Intn(ops) {
		case 0, 1:
			mask := MaskAll(c.Ways())
			if rng.Intn(2) == 0 {
				for mask = 0; mask == 0; {
					mask = WayMask(rng.Uint32()) & MaskAll(c.Ways())
				}
			}
			dirty := rng.Intn(2) == 0
			op = fmt.Sprintf("Insert(%#x, %v, %#x)", a, dirty, mask)
			got, want = c.Insert(a, dirty, mask), m.Insert(a, dirty, mask)
		case 2:
			op = fmt.Sprintf("Lookup(%#x)", a)
			got, want = c.Lookup(a), m.Lookup(a)
		case 3:
			op = fmt.Sprintf("SetDirty(%#x)", a)
			got, want = c.SetDirty(a), m.SetDirty(a)
		case 4:
			op = fmt.Sprintf("MakeClean(%#x)", a)
			gp, gd := c.MakeClean(a)
			wp, wd := m.MakeClean(a)
			got, want = [2]bool{gp, gd}, [2]bool{wp, wd}
		case 5:
			op = fmt.Sprintf("Invalidate(%#x)", a)
			gp, gd := c.Invalidate(a)
			wp, wd := m.Invalidate(a)
			got, want = [2]bool{gp, gd}, [2]bool{wp, wd}
		case 6:
			op = fmt.Sprintf("Extract(%#x)", a)
			got, want = c.Extract(a), m.Extract(a)
		case 7:
			op = fmt.Sprintf("Peek(%#x)", a)
			got, want = c.Peek(a), m.Peek(a)
		case 8:
			op = "Reset()"
			c.Reset()
			m.Reset()
		}
		if got != want {
			t.Fatalf("op %d %s: cache %+v, model %+v", i, op, got, want)
		}
	}
	if c.Hits() != m.hits || c.Misses() != m.misses || c.ValidLines() != m.ValidLines() {
		t.Fatalf("final hits/misses/valid: cache %d/%d/%d, model %d/%d/%d",
			c.Hits(), c.Misses(), c.ValidLines(), m.hits, m.misses, m.ValidLines())
	}
	if err := c.checkSetInvariant(); err != nil {
		t.Fatal(err)
	}
}

// TestSetAssocMatchesReferenceModel checks every SetAssoc operation against
// the naive model over random sequences, across geometries that cover one
// way, odd way counts, non-power-of-two set counts and the 32-way limit.
func TestSetAssocMatchesReferenceModel(t *testing.T) {
	for _, g := range []struct{ sets, ways int }{
		{1, 1}, {4, 2}, {12, 5}, {16, 12}, {3, 20}, {2, 32},
	} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%dx%d/seed%d", g.sets, g.ways, seed), func(t *testing.T) {
				c := NewSetAssoc("t", uint64(g.sets*g.ways)*lineBytes, g.ways)
				driveAgainstModel(t, c, rand.New(rand.NewSource(seed)), 20_000, true)
			})
		}
	}
}

// TestSetAssocGenerationWrap resets a populated cache through the whole
// 16-bit generation space — past the wrap that clears the block array —
// and checks the recycled cache then behaves exactly like a fresh one.
// Lines are re-inserted before every few thousand resets and just before
// the wrap, so stale words from many generations, including the last one
// before the wrap, are present when it happens.
func TestSetAssocGenerationWrap(t *testing.T) {
	const sets, ways = 8, 4
	c := NewSetAssoc("t", sets*ways*lineBytes, ways)
	rng := rand.New(rand.NewSource(3))
	fill := func() {
		for i := 0; i < 2*sets*ways; i++ {
			c.Insert(uint64(rng.Intn(4*sets*ways))*lineBytes, rng.Intn(2) == 0, MaskAll(ways))
			c.Lookup(uint64(rng.Intn(4*sets*ways)) * lineBytes)
		}
	}
	wrapped := false
	for i := 0; i < 1<<16+8; i++ {
		if i%4096 == 0 || i >= 1<<16-4 {
			fill()
		}
		before := c.genBase
		c.Reset()
		if c.genBase < before {
			wrapped = true
		}
		if c.ValidLines() != 0 || c.Hits() != 0 || c.Misses() != 0 {
			t.Fatalf("reset %d left %d lines, %d hits, %d misses",
				i, c.ValidLines(), c.Hits(), c.Misses())
		}
	}
	if !wrapped {
		t.Fatal("generation counter never wrapped")
	}
	driveAgainstModel(t, c, rng, 20_000, false)
}
