package cache

import (
	"fmt"
	"math/rand"
	"testing"
)

// fillLine is one line of a warm-fill pattern.
type fillLine struct {
	addr  uint64
	dirty bool
}

// fillPatterns builds the warm-fill address patterns for a cache of n lines:
// a consecutive range of 1.5n lines, so every set evicts, and the two
// two-stream L2 patterns of the machine's warm fill — DDIO's, whose clean
// stream aliases half the dirty stream's sets so those sets evict, and
// DMA's, whose clean stream is disjoint.
func fillPatterns(n uint64) map[string][]fillLine {
	const base = 1 << 30
	consecutive := make([]fillLine, 0, n+n/2)
	for k := uint64(0); k < n+n/2; k++ {
		consecutive = append(consecutive, fillLine{base + k*lineBytes, k%10 < 9})
	}
	twoStream := func(cleanOff uint64) []fillLine {
		p := make([]fillLine, 0, n)
		for k := uint64(0); k < n; k++ {
			if k%2 == 1 {
				p = append(p, fillLine{cleanOff + k/2*lineBytes, false})
			} else {
				p = append(p, fillLine{base + k*lineBytes, true})
			}
		}
		return p
	}
	return map[string][]fillLine{
		"consecutive":  consecutive,
		"ddio-alias":   twoStream(base + 4*n*lineBytes),
		"dma-disjoint": twoStream(base + n*lineBytes),
	}
}

// churn drives a cache through lookups and inserts, leaving live and
// dirty lines, refreshed LRU words and a set last-hit filter behind.
func churn(c *SetAssoc, rng *rand.Rand, ops int) {
	span := 2 * c.Sets() * c.Ways()
	for i := 0; i < ops; i++ {
		a := uint64(rng.Intn(span)) * lineBytes
		if rng.Intn(2) == 0 {
			c.Insert(a, rng.Intn(2) == 0, MaskAll(c.Ways()))
		} else {
			c.Lookup(a)
		}
	}
}

// fillStarts are the states a warm fill starts from: a fresh cache, a
// pooled one reset after use, and one reset past the 16-bit generation
// wrap, used once more and reset again so stale words from the generation
// after the wrap are present.
var fillStarts = map[string]func(c *SetAssoc, rng *rand.Rand){
	"fresh": func(*SetAssoc, *rand.Rand) {},
	"reset": func(c *SetAssoc, rng *rand.Rand) {
		churn(c, rng, 2*c.Sets()*c.Ways())
		c.Reset()
	},
	"wrap": func(c *SetAssoc, rng *rand.Rand) {
		wrapped := false
		for i := 0; i < 1<<16; i++ {
			if i >= 1<<16-3 {
				churn(c, rng, c.Sets()*c.Ways())
			}
			before := c.genBase
			c.Reset()
			wrapped = wrapped || c.genBase < before
		}
		if !wrapped {
			panic(fmt.Sprintf("generation never wrapped: genBase %#x", c.genBase))
		}
	},
}

// TestFillMatchesInsert is Fill's oracle: on the Table I LLC (49152 sets,
// not a power of two), the Table I L2 and a tiny odd geometry, every warm
// pattern from every starting state leaves a Fill-warmed cache equal, field
// for field, to one warmed by the unrestricted Insert loop.
func TestFillMatchesInsert(t *testing.T) {
	geoms := []struct {
		name     string
		capacity uint64
		ways     int
	}{
		{"llc-36MB-12way", 36 << 20, 12},
		{"l2-1.25MB-20way", 1280 << 10, 20},
		{"tiny-7set-3way", 7 * 3 * lineBytes, 3},
	}
	for _, g := range geoms {
		n := g.capacity / lineBytes
		for pname, lines := range fillPatterns(n) {
			for sname, start := range fillStarts {
				t.Run(g.name+"/"+pname+"/"+sname, func(t *testing.T) {
					fil := NewSetAssoc("c", g.capacity, g.ways)
					ins := NewSetAssoc("c", g.capacity, g.ways)
					start(fil, rand.New(rand.NewSource(7)))
					start(ins, rand.New(rand.NewSource(7)))
					if !fil.SameState(ins) {
						t.Fatal("starting states differ")
					}
					for i, l := range lines {
						fil.Fill(l.addr, l.dirty)
						if v := ins.Insert(l.addr, l.dirty, MaskAll(g.ways)); v.Merged {
							t.Fatalf("line %d (%#x) merged: the pattern repeats a line", i, l.addr)
						}
						// Step by step where comparing is cheap.
						if n < 1000 && !fil.SameState(ins) {
							t.Fatalf("state diverged at line %d (%#x)", i, l.addr)
						}
					}
					if !fil.SameState(ins) {
						t.Fatal("Fill-warmed cache differs from the Insert-warmed one")
					}
					if err := fil.checkSetInvariant(); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestFillPanicsAfterStampAdvance checks Fill's always-on guard: once a
// lookup, insert or write hit has run since Reset, or a probe has moved a
// set's MRU hint, Fill refuses, and a Reset makes it usable again.
func TestFillPanicsAfterStampAdvance(t *testing.T) {
	ops := map[string]func(c *SetAssoc){
		"lookup":   func(c *SetAssoc) { c.Lookup(0) },
		"insert":   func(c *SetAssoc) { c.Insert(0, false, MaskAll(c.Ways())) },
		"setdirty": func(c *SetAssoc) { c.SetDirty(0) },
		"peek":     func(c *SetAssoc) { c.Peek(0) }, // scans past the MRU way
	}
	for name, op := range ops {
		t.Run(name, func(t *testing.T) {
			c := NewSetAssoc("c", 4*2*lineBytes, 2)
			c.Fill(0, true)
			c.Fill(4*lineBytes, false) // set 0 again: its MRU hint is way 1
			op(c)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("Fill after %s did not panic", name)
					}
				}()
				c.Fill(2*lineBytes, false)
			}()
			c.Reset()
			c.Fill(2*lineBytes, false) // a Reset re-arms Fill
		})
	}
}
