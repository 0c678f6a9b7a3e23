// Package stats provides the measurement machinery for the simulator:
// DRAM-traffic counters keyed by the paper's breakdown categories, latency
// histograms with percentile extraction, and throughput/bandwidth math.
package stats

// AccessKind classifies a DRAM transaction by its source, exactly matching
// the per-request memory-access breakdowns of Figures 1c, 2c, 5c and 7b.
type AccessKind uint8

const (
	// NICRXWr counts NIC writes of incoming packets directly to DRAM
	// (conventional DMA injection only).
	NICRXWr AccessKind = iota
	// NICTXRd counts NIC reads of transmit buffers from DRAM.
	NICTXRd
	// CPURXRd counts CPU demand reads of RX buffers that reach DRAM: the
	// signature of a premature buffer eviction (§II-B).
	CPURXRd
	// CPUTXRdWr counts CPU accesses to TX buffers that reach DRAM
	// (write-allocate fills and, under DMA, explicit flush traffic).
	CPUTXRdWr
	// CPUOtherRd counts CPU demand reads of application data from DRAM.
	CPUOtherRd
	// RXEvct counts dirty RX-buffer lines written back from the LLC to
	// DRAM: consumed buffer evictions, the paper's principal leak source.
	RXEvct
	// TXEvct counts dirty TX-buffer lines written back to DRAM.
	TXEvct
	// OtherEvct counts dirty application-data writebacks to DRAM.
	OtherEvct

	// NumKinds is the number of access kinds.
	NumKinds
)

var kindNames = [NumKinds]string{
	"NIC RX Wr",
	"NIC TX Rd",
	"CPU RX Rd",
	"CPU TX Rd/Wr",
	"CPU Other Rd",
	"RX Evct",
	"TX Evct",
	"Other Evct",
}

// String returns the paper's legend label for the kind.
func (k AccessKind) String() string {
	if k < NumKinds {
		return kindNames[k]
	}
	return "unknown"
}

// IsWriteback reports whether the kind is DRAM write (writeback/DMA-write)
// traffic rather than demand-read traffic.
func (k AccessKind) IsWriteback() bool {
	switch k {
	case NICRXWr, RXEvct, TXEvct, OtherEvct:
		return true
	}
	return false
}

// Breakdown accumulates DRAM transactions by kind.
type Breakdown struct {
	counts [NumKinds]uint64
}

// Add records n transactions of the given kind.
func (b *Breakdown) Add(k AccessKind, n uint64) { b.counts[k] += n }

// Count returns the number of transactions recorded for the kind.
func (b *Breakdown) Count(k AccessKind) uint64 { return b.counts[k] }

// Total returns the total number of transactions across all kinds.
func (b *Breakdown) Total() uint64 {
	var t uint64
	for _, c := range b.counts {
		t += c
	}
	return t
}

// Reset zeroes every counter.
func (b *Breakdown) Reset() { b.counts = [NumKinds]uint64{} }

// Snapshot returns a copy of the per-kind counters.
func (b *Breakdown) Snapshot() [NumKinds]uint64 { return b.counts }

// PerRequest converts a per-kind transaction count into accesses-per-request
// figures, as plotted in the paper's breakdown panels.
func PerRequest(counts [NumKinds]uint64, requests uint64) [NumKinds]float64 {
	var out [NumKinds]float64
	if requests == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(requests)
	}
	return out
}
