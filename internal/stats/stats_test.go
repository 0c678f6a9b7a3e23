package stats

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestAccessKindNames(t *testing.T) {
	want := map[AccessKind]string{
		NICRXWr:    "NIC RX Wr",
		NICTXRd:    "NIC TX Rd",
		CPURXRd:    "CPU RX Rd",
		CPUTXRdWr:  "CPU TX Rd/Wr",
		CPUOtherRd: "CPU Other Rd",
		RXEvct:     "RX Evct",
		TXEvct:     "TX Evct",
		OtherEvct:  "Other Evct",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), w)
		}
	}
	if NumKinds.String() != "unknown" {
		t.Errorf("out-of-range kind stringifies as %q", NumKinds.String())
	}
}

func TestAccessKindWritebackClassification(t *testing.T) {
	writebacks := []AccessKind{NICRXWr, RXEvct, TXEvct, OtherEvct}
	reads := []AccessKind{NICTXRd, CPURXRd, CPUTXRdWr, CPUOtherRd}
	for _, k := range writebacks {
		if !k.IsWriteback() {
			t.Errorf("%v should be writeback traffic", k)
		}
	}
	for _, k := range reads {
		if k.IsWriteback() {
			t.Errorf("%v should be demand-read traffic", k)
		}
	}
}

func TestBreakdownAccumulation(t *testing.T) {
	var b Breakdown
	b.Add(RXEvct, 3)
	b.Add(RXEvct, 2)
	b.Add(CPURXRd, 7)
	if b.Count(RXEvct) != 5 {
		t.Fatalf("Count(RXEvct) = %d, want 5", b.Count(RXEvct))
	}
	if b.Total() != 12 {
		t.Fatalf("Total() = %d, want 12", b.Total())
	}
	if snap := b.Snapshot(); snap[RXEvct] != 5 || snap[CPURXRd] != 7 {
		t.Fatalf("Snapshot = %v", snap)
	}
	b.Reset()
	if b.Total() != 0 {
		t.Fatal("Reset did not clear counters")
	}
}

func TestPerRequest(t *testing.T) {
	var counts [NumKinds]uint64
	counts[RXEvct] = 100
	got := PerRequest(counts, 50)
	if got[RXEvct] != 2 {
		t.Fatalf("PerRequest = %v", got[RXEvct])
	}
	zero := PerRequest(counts, 0)
	if zero[RXEvct] != 0 {
		t.Fatal("PerRequest with zero requests must be zero")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []uint64{5, 15, 15, 25} {
		h.Record(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d", h.Count())
	}
	if h.Mean() != 15 {
		t.Fatalf("Mean = %g, want 15", h.Mean())
	}
	if h.Min() != 5 || h.Max() != 25 {
		t.Fatalf("Min/Max = %d/%d", h.Min(), h.Max())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(1, 10)
	if h.Mean() != 0 || h.Max() != 0 || h.Min() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	if h.CDF() != nil {
		t.Fatal("empty histogram must have nil CDF")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram(1, 2000)
	var samples []uint64
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		v := uint64(rng.Intn(1000))
		samples = append(samples, v)
		h.Record(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := ExactPercentile(samples, q)
		got := h.Percentile(q)
		// Bin width 1 -> off by at most one bin edge.
		if got < exact || got > exact+1 {
			t.Errorf("q=%g: histogram %d vs exact %d", q, got, exact)
		}
	}
}

func TestHistogramOverflow(t *testing.T) {
	h := NewHistogram(1, 10) // covers [0,10)
	h.Record(5)
	h.Record(1_000_000)
	if h.Max() != 1_000_000 {
		t.Fatalf("Max = %d", h.Max())
	}
	if p := h.Percentile(1); p != 1_000_000 {
		t.Fatalf("P100 = %d", p)
	}
	// P99 of two samples lands in overflow; with a single overflow sample
	// the interpolation degenerates to that sample's value.
	if p := h.Percentile(0.99); p != 1_000_000 {
		t.Fatalf("P99 = %d, want overflow sample 1000000", p)
	}
}

// TestHistogramTailQuantilesDistinct is the regression test for the overflow
// collapse bug: with >1% of samples in the overflow bin, every tail quantile
// used to come back as the overflow mean, making p99, p99.9 and p99.99
// indistinguishable. Interpolating within the overflow region must keep them
// distinct, monotone, and close to the exact sample quantiles.
func TestHistogramTailQuantilesDistinct(t *testing.T) {
	h := NewHistogram(4, 1024) // binned range [0, 4096)
	rng := rand.New(rand.NewSource(7))
	var samples []uint64
	record := func(v uint64) {
		samples = append(samples, v)
		h.Record(v)
	}
	// Body: 95% of mass well inside the binned range.
	for i := 0; i < 95_000; i++ {
		record(uint64(rng.Intn(3000)))
	}
	// Heavy tail: 5% saturates the overflow bin, Pareto-ish spread.
	for i := 0; i < 5_000; i++ {
		record(5_000 + uint64(rng.ExpFloat64()*20_000))
	}

	p99 := h.Percentile(0.99)
	p999 := h.Percentile(0.999)
	p9999 := h.Percentile(0.9999)
	if p99 >= p999 || p999 >= p9999 {
		t.Fatalf("tail quantiles collapsed: p99=%d p99.9=%d p99.99=%d", p99, p999, p9999)
	}
	for _, tc := range []struct {
		q   float64
		got uint64
	}{{0.99, p99}, {0.999, p999}, {0.9999, p9999}} {
		exact := ExactPercentile(samples, tc.q)
		lo, hi := float64(exact)*0.5, float64(exact)*2
		if float64(tc.got) < lo || float64(tc.got) > hi {
			t.Errorf("q=%g: histogram %d vs exact %d (outside 2x band)", tc.q, tc.got, exact)
		}
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram(4, 256)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		h.Record(uint64(rng.Intn(2000))) // includes overflow mass
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("no CDF points")
	}
	prevV, prevF := uint64(0), 0.0
	for _, p := range cdf {
		if p.Value < prevV || p.Fraction < prevF {
			t.Fatalf("CDF not monotone at %+v", p)
		}
		prevV, prevF = p.Value, p.Fraction
	}
	last := cdf[len(cdf)-1]
	if last.Fraction != 1.0 {
		t.Fatalf("CDF must end at 1.0, got %g", last.Fraction)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram(1, 10)
	h.Record(3)
	h.Record(100)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 || h.Max() != 0 {
		t.Fatal("Reset did not clear state")
	}
	h.Record(7)
	if h.Percentile(0.5) != 7 { // upper bin edge, clamped to the recorded max
		t.Fatalf("post-reset percentile = %d", h.Percentile(0.5))
	}
}

// Property: histogram percentiles with bin width w are within one bin of
// the exact sample percentile.
func TestHistogramPercentileProperty(t *testing.T) {
	f := func(seed int64, raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		const width = 8
		h := NewHistogram(width, 1<<13)
		samples := make([]uint64, len(raw))
		for i, v := range raw {
			samples[i] = uint64(v)
			h.Record(uint64(v))
		}
		for _, q := range []float64{0.25, 0.5, 0.75, 0.95, 0.99} {
			exact := ExactPercentile(samples, q)
			got := h.Percentile(q)
			if got+width < exact || got > exact+width {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRateConversions(t *testing.T) {
	// 3.2e9 cycles = 1 second.
	if got := Mrps(32_000_000, 3_200_000_000, 3.2e9); got != 32 {
		t.Fatalf("Mrps = %g, want 32", got)
	}
	// 1e9 transactions/sec * 64B = 64 GB/s.
	if got := GBps(1_000_000_000, 3_200_000_000, 3.2e9); got != 64 {
		t.Fatalf("GBps = %g, want 64", got)
	}
	if Mrps(10, 0, 3.2e9) != 0 || GBps(10, 0, 3.2e9) != 0 {
		t.Fatal("zero-cycle windows must yield zero rates")
	}
	if got := CyclesPerSecond(1e6, 3.2e9); got != 3200 {
		t.Fatalf("CyclesPerSecond = %g, want 3200", got)
	}
	if CyclesPerSecond(0, 3.2e9) != 0 {
		t.Fatal("non-positive rate must yield 0 gap")
	}
}

func TestExactPercentileEdges(t *testing.T) {
	if ExactPercentile(nil, 0.5) != 0 {
		t.Fatal("empty slice")
	}
	s := []uint64{5, 1, 9}
	if ExactPercentile(s, 0) != 1 || ExactPercentile(s, 1) != 9 {
		t.Fatal("extreme quantiles")
	}
	// Input must not be mutated.
	if s[0] != 5 || s[1] != 1 || s[2] != 9 {
		t.Fatal("ExactPercentile mutated its input")
	}
}
