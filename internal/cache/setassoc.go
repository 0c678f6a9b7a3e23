// Package cache implements the simulated cache hierarchy: set-associative
// arrays with per-set LRU, private L1/L2 caches per core, and a shared
// non-inclusive victim LLC with way-partitioning (DDIO ways, tenant
// partitions) and sweep (invalidate-without-writeback) support.
package cache

import (
	"fmt"
	"math/bits"
	"reflect"

	"sweeper/internal/fastdiv"
	"sweeper/internal/obs"
)

const lineBytes = 64

// State is the coherence/dirtiness state of a cached line. The simulator
// models a single-socket system with one writer per line at a time, so a
// three-state (I/Clean/Dirty) model captures everything the paper measures.
type State uint8

const (
	// Invalid marks an empty way.
	Invalid State = iota
	// Clean holds data matching memory.
	Clean
	// Dirty holds data newer than memory; eviction requires a writeback
	// unless the line is swept.
	Dirty
)

// String returns a short label for the state.
func (s State) String() string {
	switch s {
	case Clean:
		return "Clean"
	case Dirty:
		return "Dirty"
	default:
		return "Invalid"
	}
}

// WayMask restricts which ways of a set an insertion may allocate into.
// Bit i set means way i is allowed. Masks implement DDIO way restriction
// and the LLC tenant partitions of §VI-E.
type WayMask uint32

// MaskAll returns a mask allowing the first n ways.
func MaskAll(n int) WayMask {
	if n >= 32 {
		return ^WayMask(0)
	}
	return WayMask(1)<<uint(n) - 1
}

// MaskRange returns a mask allowing ways [lo, hi).
func MaskRange(lo, hi int) WayMask {
	return MaskAll(hi) &^ MaskAll(lo)
}

// Count returns how many ways the mask allows.
func (m WayMask) Count() int {
	return bits.OnesCount32(uint32(m))
}

// Victim describes the outcome of an insertion: the displaced line if any,
// and whether the insertion merged into an already-present line.
type Victim struct {
	Addr   uint64
	Dirty  bool
	Valid  bool // false when nothing was displaced
	Merged bool // true when the line was already present (update in place)
}

// Generation-stamped words. Both a way's tag and its LRU word pack the
// cache's generation counter (top 16 bits) over a 48-bit payload — the line
// address for tags; for LRU words, a monotone touch stamp that advances by 2
// with the line's dirty bit in bit 0. A way is valid exactly when its tag's
// generation matches the cache's current one, so Reset only has to bump the
// generation to invalidate every line in O(1). Stamps are even and distinct,
// so the dirty bit never changes the relative order of two LRU words.
//
// Victim selection is a single strict-< minimum scan over max(word,
// genBase), with no validity test. Every invalid way reads as genBase: a
// never-used or explicitly invalidated way holds 0, and a way last written
// in an earlier generation holds a word below genBase. genBase sorts below
// every live stamp, so invalid ways win eviction before any valid way —
// exactly the first-invalid-then-LRU policy — and because all invalid ways
// compare equal, ties break toward the lowest way index, giving a Reset
// cache the same fill order as a fresh one. Generation 0 never becomes
// current, making a zero word permanently invalid.
const (
	genShift = 48
	addrMask = uint64(1)<<genShift - 1

	dirtyBit  = uint64(1) // in LRU words
	stampStep = 2         // stamps skip the dirty bit
)

// SetAssoc is a single set-associative cache array.
//
// Storage is blocked per set: set s owns words [s·2W, (s+1)·2W) of data,
// its W tag words first and its W LRU words right after, so a lookup, a
// touch and a victim search stay within a few adjacent host cache lines
// (192 B for a 12-way set). The hot lookup path scans only the tag half,
// guided by a one-entry last-hit filter and a per-set MRU hint.
type SetAssoc struct {
	// Hot fields first, packed so the last-hit fast path (genBase, lastKey,
	// stamp, lastLRU, hits) shares as few cache lines as possible.
	genBase uint64  // current generation, pre-shifted: gen<<48
	lastKey uint64  // tag word of the most recent hit, 0 when unset
	stamp   uint64  // gen<<48 | touch stamp (even); copied into LRU words
	lastLRU *uint64 // LRU word of the way behind lastKey
	hits    uint64
	misses  uint64
	lastIdx int32 // data index of the tag word behind lastKey
	ways    int
	setDiv  fastdiv.Divisor // strength-reduced (addr/64) % sets

	// data holds every set's block: per way a tag word (gen<<48 | addr) and
	// an LRU word (gen<<48 | stamp | dirty). Both are 0 when invalidated.
	data []uint64
	mru  []uint8 // per set: most-recently-hit way, probed before the scan

	sets     int
	fullMask WayMask // MaskAll(ways), the unrestricted insert mask

	name string

	// fillMark is the stamp the last Fill left behind, Fill's O(1) check
	// that no stamp-advancing operation ran since Reset (see Fill).
	fillMark uint64
}

// NewSetAssoc builds a cache of the given capacity and associativity. The
// number of sets (capacity / 64B / ways) need not be a power of two —
// Table I's 36MB 12-way LLC has 49152 sets, and like real hardware the
// model simply distributes line addresses across all sets (modulo here,
// a hash in silicon).
func NewSetAssoc(name string, capacityBytes uint64, ways int) *SetAssoc {
	if ways <= 0 || ways > 32 {
		panic(fmt.Sprintf("cache %s: ways %d out of range [1,32]", name, ways))
	}
	nLines := capacityBytes / lineBytes
	if nLines == 0 || nLines%uint64(ways) != 0 {
		panic(fmt.Sprintf("cache %s: capacity %dB not divisible into %d ways",
			name, capacityBytes, ways))
	}
	sets := int(nLines / uint64(ways))
	c := &SetAssoc{
		name:     name,
		sets:     sets,
		ways:     ways,
		setDiv:   fastdiv.New(uint64(sets)),
		genBase:  1 << genShift,
		stamp:    1 << genShift,
		fullMask: MaskAll(ways),
		data:     make([]uint64, 2*sets*ways),
		mru:      make([]uint8, sets),
	}
	c.lastLRU = &c.data[ways]
	return c
}

// Name returns the cache's label.
func (c *SetAssoc) Name() string { return c.name }

// Sets returns the number of sets.
func (c *SetAssoc) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *SetAssoc) Ways() int { return c.ways }

// CapacityBytes returns the total capacity.
func (c *SetAssoc) CapacityBytes() uint64 {
	return uint64(c.sets) * uint64(c.ways) * lineBytes
}

// Hits and Misses return cumulative lookup outcomes.
func (c *SetAssoc) Hits() uint64   { return c.hits }
func (c *SetAssoc) Misses() uint64 { return c.misses }

// MissRatio returns misses / lookups, or 0 with no lookups.
func (c *SetAssoc) MissRatio() float64 {
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.misses) / float64(total)
}

// Reset invalidates every line and zeroes the statistics, returning the
// cache to its just-constructed observable state in O(1). The generation
// bump makes every tag word (and the last-hit filter) stale, and victim
// selection reads every LRU word below the new generation base as that
// base, so empty ways fill lowest-index-first exactly as in a fresh cache —
// which way masks (DDIO, tenant partitions) make observable. Nothing is
// cleared, so recycling a pooled machine does not pay for its 589k-line
// LLC. Stale MRU hints are harmless — a hint only short-circuits the scan
// on an exact current-generation tag match.
func (c *SetAssoc) Reset() {
	c.genBase += 1 << genShift
	if c.genBase == 0 {
		// Generation space exhausted (the pre-shifted counter wrapped):
		// take the rare O(capacity) clear so words from 65535 resets ago
		// cannot alias the wrapped generation.
		clear(c.data)
		c.genBase = 1 << genShift
	}
	c.stamp = c.genBase
	c.lastKey = 0
	c.hits, c.misses = 0, 0
}

// stateOf decodes a valid way's state from its LRU word.
func stateOf(lru uint64) State {
	return Clean + State(lru&dirtyBit)
}

// setBase returns the data index of set s's first tag word.
func (c *SetAssoc) setBase(s int) int {
	return 2 * s * c.ways
}

func (c *SetAssoc) setIndex(a uint64) int {
	return int(c.setDiv.Mod(a / lineBytes))
}

// setLast points the one-entry last-hit filter at the tag word data[i].
func (c *SetAssoc) setLast(key uint64, i int) {
	c.lastKey = key
	c.lastIdx = int32(i)
	c.lastLRU = &c.data[i+c.ways]
}

// scan searches set s for the tag word key, updating the set's MRU hint and
// the last-hit filter on a match. It returns the tag word's data index or
// -1. The caller has already tried the faster paths.
func (c *SetAssoc) scan(s int, key uint64) int {
	base := c.setBase(s)
	for w, t := range c.data[base : base+c.ways] {
		if t == key {
			c.mru[s] = uint8(w)
			c.setLast(key, base+w)
			return base + w
		}
	}
	return -1
}

// find returns the data index of line a's tag word, or -1. It touches only
// tag words: validity is implied by the generation bits of the match. Hits
// are highly repetitive (poll loops re-touch the same lines), so the
// one-entry last-hit filter and the per-set MRU way are probed before the
// scan.
func (c *SetAssoc) find(a uint64) int {
	key := c.genBase | a
	if key == c.lastKey {
		return int(c.lastIdx)
	}
	s := c.setIndex(a)
	if h := c.setBase(s) + int(c.mru[s]); c.data[h] == key {
		return h
	}
	return c.scan(s, key)
}

// Lookup probes for the line, updating LRU and hit/miss statistics. It
// returns the line's state (Invalid on miss).
func (c *SetAssoc) Lookup(a uint64) State {
	c.stamp += stampStep
	key := c.genBase | a
	// Last-hit fast path, duplicated from find so the common repeated hit
	// runs without an extra call frame or the set-index computation.
	if key == c.lastKey {
		x := *c.lastLRU&dirtyBit | c.stamp
		*c.lastLRU = x
		c.hits++
		return stateOf(x)
	}
	return c.lookupSlow(a, key)
}

func (c *SetAssoc) lookupSlow(a, key uint64) State {
	s := c.setIndex(a)
	i := c.setBase(s) + int(c.mru[s])
	if c.data[i] == key {
		c.setLast(key, i)
	} else if i = c.scan(s, key); i < 0 {
		c.misses++
		return Invalid
	}
	x := c.data[i+c.ways]&dirtyBit | c.stamp
	c.data[i+c.ways] = x
	c.hits++
	return stateOf(x)
}

// lookupFast is the last-hit-filter half of Lookup, small enough for the
// compiler to inline into the Hierarchy entry points so the dominant
// repeated-hit case pays no call overhead. It reports only presence — the
// callers that need it never use the state — keeping the inlined body
// minimal. On a filter miss it reports false without recording anything;
// the caller falls back to the full Lookup (the stamp gap this can leave is
// harmless — only the relative order of LRU stamps matters, and it is
// preserved).
func (c *SetAssoc) lookupFast(a uint64) bool {
	key := c.genBase | a
	if key != c.lastKey {
		return false
	}
	c.stamp += stampStep
	*c.lastLRU = *c.lastLRU&dirtyBit | c.stamp
	c.hits++
	return true
}

// setDirtyFast is the last-hit-filter half of SetDirty, inlined into the
// Hierarchy write paths; ok=false means the caller must run the full
// SetDirty.
func (c *SetAssoc) setDirtyFast(a uint64) (ok bool) {
	key := c.genBase | a
	if key != c.lastKey {
		return false
	}
	c.stamp += stampStep
	*c.lastLRU = c.stamp | dirtyBit
	return true
}

// Peek probes without touching LRU or statistics.
func (c *SetAssoc) Peek(a uint64) State {
	if i := c.find(a); i >= 0 {
		return stateOf(c.data[i+c.ways])
	}
	return Invalid
}

// SetDirty marks a present line dirty (a write hit). It reports whether the
// line was present.
func (c *SetAssoc) SetDirty(a uint64) bool {
	c.stamp += stampStep
	key := c.genBase | a
	if key == c.lastKey {
		*c.lastLRU = c.stamp | dirtyBit
		return true
	}
	if i := c.find(a); i >= 0 {
		c.data[i+c.ways] = c.stamp | dirtyBit
		return true
	}
	return false
}

// Insert places the line into the cache with the given dirtiness. If the
// line is already present it is updated in place (dirty state is OR-ed, LRU
// refreshed) regardless of mask. Otherwise the LRU way among those allowed
// by mask is replaced and returned as the victim. A zero mask panics: the
// caller must always allow at least one way.
func (c *SetAssoc) Insert(a uint64, dirty bool, mask WayMask) Victim {
	if a > addrMask {
		panic(fmt.Sprintf("cache %s: address %#x exceeds the %d-bit tag space",
			c.name, a, genShift))
	}
	c.stamp += stampStep
	key := c.genBase | a
	word := c.stamp // the LRU word to store: stamp plus the dirty bit
	if dirty {
		word |= dirtyBit
	}

	// Merge probe, filter level only: the set scan below covers the rest.
	if key == c.lastKey {
		*c.lastLRU = *c.lastLRU&dirtyBit | word
		return Victim{Merged: true}
	}
	s := c.setIndex(a)
	base := c.setBase(s)
	n := c.ways
	tset := c.data[base : base+n]
	lset := c.data[base+n : base+2*n : base+2*n]
	genBase := c.genBase

	// Unrestricted inserts resolve the remaining merge probe and the victim
	// choice in one pass (tags are unique per set, so at most one way can
	// match); masked ones probe first, then pick among the allowed ways.
	var v int
	if mask == c.fullMask {
		w, hit := pickWay(tset, lset, key, genBase)
		if hit {
			lset[w] = lset[w]&dirtyBit | word
			c.mru[s] = uint8(w)
			return Victim{Merged: true}
		}
		v = w
	} else {
		if i := c.scan(s, key); i >= 0 {
			lset[i-base] = lset[i-base]&dirtyBit | word
			return Victim{Merged: true}
		}
		v = -1
		var oldest uint64
		for w, x := range lset {
			if mask&(1<<uint(w)) == 0 {
				continue
			}
			if x = max(x, genBase); v == -1 || x < oldest {
				v, oldest = w, x
			}
		}
		if v == -1 {
			if mask == 0 {
				panic(fmt.Sprintf("cache %s: insert with empty way mask", c.name))
			}
			panic(fmt.Sprintf("cache %s: way mask %#x selects no ways of %d",
				c.name, mask, c.ways))
		}
	}

	victim := Victim{}
	if t := tset[v]; t&^addrMask == genBase {
		victim = Victim{
			Addr:  t & addrMask,
			Dirty: lset[v]&dirtyBit != 0,
			Valid: true,
		}
	}
	if int32(base+v) == c.lastIdx {
		c.lastKey = 0 // the filter's way now holds a different line
	}
	tset[v] = key
	lset[v] = word
	c.mru[s] = uint8(v)
	return victim
}

// pickWay is the one pass of an unrestricted Insert over a set: it returns
// the way holding key (hit), or else the LRU way, invalid ways first (see
// the encoding comment above). Kept out of line so its few live values
// stay in registers and the minimum compiles to conditional moves: the LRU
// order of a set is data-dependent, and a branch on it mispredicts.
//
//go:noinline
func pickWay(tset, lset []uint64, key, genBase uint64) (way int, hit bool) {
	lset = lset[:len(tset)]
	// oldest starts above any encodable stamp (gen and count never
	// saturate), so the w==0 iteration always seeds the minimum.
	oldest := ^uint64(0)
	for w, t := range tset {
		if t == key {
			return w, true
		}
		x := max(lset[w], genBase)
		if x < oldest {
			oldest, way = x, w
		}
	}
	return way, false
}

// Fill installs line a with the given dirtiness, leaving the cache exactly
// as Insert(a, dirty, MaskAll(Ways())) would — every tag, LRU word, MRU hint
// and filter field — but without Insert's merge probe and victim scan. It is
// for warm-filling a cache from cold and holds only while two conditions
// do: since New or the last Reset the cache has received nothing but Fill
// calls, and every filled line is distinct.
//
// Under those conditions no insert ever hits and no way is refreshed, so a
// set fills ways 0..W-1 in order and then replaces first-in first-out: the
// unrestricted LRU victim is way 0 while way 0 holds a stale generation
// (the set is empty), and otherwise the way after the set's MRU hint, which
// Insert leaves on the way it last wrote. A Lookup, Insert or SetDirty
// advances the stamp past fillMark, and a Peek or MakeClean that scanned to
// a hit moves the MRU hint and sets the last-hit filter; Fill panics on
// either. Lines dropped by Invalidate or Extract are not caught here: the
// sweeperdebug build cross-checks every chosen way against the full scan.
func (c *SetAssoc) Fill(a uint64, dirty bool) {
	if a > addrMask {
		panic(fmt.Sprintf("cache %s: address %#x exceeds the %d-bit tag space",
			c.name, a, genShift))
	}
	if c.stamp != c.fillMark && c.stamp != c.genBase || c.lastKey != 0 {
		panic(fmt.Sprintf("cache %s: Fill after a lookup or insert since Reset", c.name))
	}
	c.stamp += stampStep
	word := c.stamp
	if dirty {
		word |= dirtyBit
	}
	s := c.setIndex(a)
	base := c.setBase(s)
	v := 0
	if c.data[base]&^addrMask == c.genBase {
		if v = int(c.mru[s]) + 1; v == c.ways {
			v = 0
		}
	}
	if obs.ProbesEnabled {
		n := c.ways
		w, hit := pickWay(c.data[base:base+n], c.data[base+n:base+2*n], c.genBase|a, c.genBase)
		if hit || w != v {
			obs.Failf("cache %s: Fill of %#x chose way %d of set %d, the scan way %d (hit %v)",
				c.name, a, v, s, w, hit)
		}
	}
	c.data[base+v] = c.genBase | a
	c.data[base+v+c.ways] = word
	c.mru[s] = uint8(v)
	c.fillMark = c.stamp
}

// SameState reports whether c and o hold the same simulated state: every
// tag and LRU word, MRU hint, filter field and statistic. Only fillMark,
// Fill's own guard, is left out, so a Fill-warmed cache compares equal to
// the Insert-warmed one it reproduces.
func (c *SetAssoc) SameState(o *SetAssoc) bool {
	x, y := *c, *o
	x.fillMark, y.fillMark = 0, 0
	return reflect.DeepEqual(x, y)
}

// drop invalidates the way whose tag word is data[i], keeping the last-hit
// filter and the LRU encoding (an invalid way sorts first) consistent.
func (c *SetAssoc) drop(i int) {
	c.data[i] = 0
	c.data[i+c.ways] = 0
	if int32(i) == c.lastIdx {
		c.lastKey = 0
	}
}

// Invalidate drops the line without any writeback (the hardware primitive
// behind both DMA invalidations and Sweeper's sweep message). It reports
// whether a line was present and whether it was dirty.
func (c *SetAssoc) Invalidate(a uint64) (present, dirty bool) {
	if i := c.find(a); i >= 0 {
		dirty = c.data[i+c.ways]&dirtyBit != 0
		c.drop(i)
		return true, dirty
	}
	return false, false
}

// MakeClean marks a present line clean without removing it (the CLWB
// behaviour after its writeback has been issued). It reports presence and
// whether the line had been dirty. The line's LRU position is unchanged.
func (c *SetAssoc) MakeClean(a uint64) (present, wasDirty bool) {
	if i := c.find(a); i >= 0 {
		wasDirty = c.data[i+c.ways]&dirtyBit != 0
		c.data[i+c.ways] &^= dirtyBit
		return true, wasDirty
	}
	return false, false
}

// Extract removes the line, returning its state before removal. Used when a
// line migrates between levels carrying its dirtiness with it.
func (c *SetAssoc) Extract(a uint64) State {
	if i := c.find(a); i >= 0 {
		st := stateOf(c.data[i+c.ways])
		c.drop(i)
		return st
	}
	return Invalid
}

// validTags calls fn with the address of every valid line.
func (c *SetAssoc) validTags(fn func(a uint64)) {
	for s := 0; s < c.sets; s++ {
		base := c.setBase(s)
		for _, t := range c.data[base : base+c.ways] {
			if t&^addrMask == c.genBase {
				fn(t & addrMask)
			}
		}
	}
}

// OccupancyByClass counts valid lines for which classify returns true, for
// occupancy studies and tests.
func (c *SetAssoc) OccupancyByClass(classify func(addr uint64) bool) int {
	n := 0
	c.validTags(func(a uint64) {
		if classify(a) {
			n++
		}
	})
	return n
}

// ValidLines returns the number of non-invalid lines.
func (c *SetAssoc) ValidLines() int {
	n := 0
	c.validTags(func(uint64) { n++ })
	return n
}

// checkSetInvariant verifies no duplicate tags within a set; used by tests.
// One scratch buffer serves every set: with at most 32 ways a linear scan
// beats a per-set map allocation.
func (c *SetAssoc) checkSetInvariant() error {
	var scratch [32]uint64
	for s := 0; s < c.sets; s++ {
		base := c.setBase(s)
		seen := scratch[:0]
		for _, t := range c.data[base : base+c.ways] {
			if t&^addrMask != c.genBase {
				continue
			}
			a := t & addrMask
			for _, prev := range seen {
				if prev == a {
					return fmt.Errorf("cache %s: duplicate line %#x in set %d",
						c.name, a, s)
				}
			}
			seen = append(seen, a)
			if c.setIndex(a) != s {
				return fmt.Errorf("cache %s: line %#x in wrong set %d",
					c.name, a, s)
			}
		}
	}
	return nil
}
