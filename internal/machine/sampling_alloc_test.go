package machine

import (
	"runtime"
	"testing"
)

// TestSampledFastForwardDoesNotAllocate pins that fast-forward serves a
// request without touching the heap: a pooled sampled KVS run with 32
// intervals fast-forwards thousands more requests than one with 8, and its
// heap allocations may grow only by a small per-interval allowance (each
// measured interval assembles its own Results). A per-request allocation (a
// closure escaping through an interface call, say) shows as thousands here.
func TestSampledFastForwardDoesNotAllocate(t *testing.T) {
	const perInterval = 8
	cfg := DefaultConfig()
	cfg.OfferedMrps = 10
	cfg.Sampling.Mode = "fixed"
	pool := NewPool(1)
	run := func(intervals int) (mallocs, ffReqs uint64) {
		c := cfg
		c.Sampling.Intervals = intervals
		m := pool.MustGet(c)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m.Run(3_000_000, 1_000_000)
		runtime.ReadMemStats(&after)
		ffReqs = m.ffLatCount
		pool.Put(m)
		return after.Mallocs - before.Mallocs, ffReqs
	}
	run(32) // warm the pooled machine's scratch buffers
	a8, ff8 := run(8)
	a32, ff32 := run(32)
	t.Logf("8 intervals: %d mallocs, %d fast-forwarded requests; 32: %d mallocs, %d requests",
		a8, ff8, a32, ff32)
	if ff32 < ff8+1000 {
		t.Fatalf("32 intervals fast-forwarded %d requests, 8 did %d; the case needs more", ff32, ff8)
	}
	if a32 > a8+perInterval*(32-8) {
		t.Errorf("heap allocations grew from %d to %d over %d more fast-forwarded requests",
			a8, a32, ff32-ff8)
	}
}
