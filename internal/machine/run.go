package machine

import (
	"fmt"

	"sweeper/internal/core"
	"sweeper/internal/nic"
	"sweeper/internal/obs"
	"sweeper/internal/stats"
)

// Results summarizes one measurement window.
type Results struct {
	// MeasuredCycles is the window length.
	MeasuredCycles uint64
	// Served is the number of requests completed in the window.
	Served uint64
	// ThroughputMrps is the application throughput in millions of
	// requests per second (the paper's primary metric).
	ThroughputMrps float64
	// MemBWGBps is the DRAM bandwidth consumed (reads+writes, 64B each).
	MemBWGBps float64
	// MemBWUtilization is MemBWGBps over the configuration's peak.
	MemBWUtilization float64
	// AccessesPerRequest breaks DRAM transactions per served request
	// down by source, as in Figures 1c/2c/5c/7b.
	AccessesPerRequest [stats.NumKinds]float64
	// AccessCounts holds the raw per-kind transaction counts.
	AccessCounts [stats.NumKinds]uint64
	// DRAMLatMean/P50/P99 summarize DRAM access latency (Figure 6);
	// DRAMLatCDF is the full distribution.
	DRAMLatMean float64
	DRAMLatP50  uint64
	DRAMLatP99  uint64
	DRAMLatCDF  []stats.CDFPoint
	// ReqLatMean/P99/P999 summarize end-to-end request latency (arrival
	// to response posted): the SLO check gates on p99, the SLO-headroom
	// curves plot the p99.9 tail. Sampled runs do not estimate p99.9 yet:
	// there ReqLatP999 reads 0.
	ReqLatMean float64
	ReqLatP99  uint64
	ReqLatP999 uint64
	// AMATCycles is the mean CPU-side hierarchy access latency over the
	// window — the average memory access time the paper's throughput model
	// centres on.
	AMATCycles float64
	// AvgServiceCycles is mean service time excluding queuing; the SLO
	// is defined as 100x this value measured at low load.
	AvgServiceCycles float64
	// Offered counts injection attempts, Dropped the arrivals lost to
	// full rings; DropRate is their ratio.
	Offered  uint64
	Dropped  uint64
	DropRate float64
	// XMemIPC is the collocated tenant's IPC proxy averaged over X-Mem
	// cores (Figure 9), 0 when none are configured.
	XMemIPC float64
	// XMemAccesses counts tenant accesses in the window.
	XMemAccesses uint64
	// LLCMissRatio is the shared-cache miss ratio over the window.
	LLCMissRatio float64
	// Tier1Accesses counts memory transactions served by the hybrid second
	// tier in the window; Tier1BWGBps is the bandwidth they consumed. Both
	// are zero on DRAM-only machines. MemBWGBps above remains DRAM-only, so
	// tiered and untiered runs compare like for like.
	Tier1Accesses uint64
	Tier1BWGBps   float64
	// Sweeper summarizes sweep activity over the whole run.
	Sweeper core.Stats
	// SweeperSavedGBps is the DRAM write bandwidth the sweeps avoided.
	SweeperSavedGBps float64
	// Sampled carries the sampled-simulation summary — interval counts and
	// per-metric 95% confidence intervals — and is nil on full detailed
	// runs. When set, the rate metrics above are interval means, the
	// counters are sums over the measured intervals, and ReqLatP999 is not
	// estimated (it reads 0).
	Sampled *SamplingSummary `json:",omitempty"`
}

func (r Results) String() string {
	return fmt.Sprintf("%.2f Mrps, %.1f GB/s (%.0f%% util), %.2f acc/req, drop %.4f, p99 %dcyc",
		r.ThroughputMrps, r.MemBWGBps, 100*r.MemBWUtilization,
		totalPerReq(r.AccessesPerRequest), r.DropRate, r.ReqLatP99)
}

func totalPerReq(b [stats.NumKinds]float64) float64 {
	var t float64
	for _, v := range b {
		t += v
	}
	return t
}

// windowSnap holds the machine's cumulative window counters. snap reads
// them at a point in time; sub turns two readings into the counts over the
// window between them, and add sums such windows (a sampled run's measured
// intervals). svcSum/svcCount and amatSum/amatCount only advance while a
// window is open.
type windowSnap struct {
	breakdown          [stats.NumKinds]uint64
	dramTxns, tierTxns uint64
	served             uint64
	offered, dropped   uint64
	xmemAcc            uint64
	llcHits, llcMisses uint64
	sweepDrops         uint64
	svcSum, svcCount   uint64
	amatSum, amatCount uint64
}

// apply returns the fieldwise op(s, o).
func (s windowSnap) apply(o windowSnap, op func(a, b uint64) uint64) windowSnap {
	for k := range s.breakdown {
		s.breakdown[k] = op(s.breakdown[k], o.breakdown[k])
	}
	s.dramTxns, s.tierTxns = op(s.dramTxns, o.dramTxns), op(s.tierTxns, o.tierTxns)
	s.served = op(s.served, o.served)
	s.offered, s.dropped = op(s.offered, o.offered), op(s.dropped, o.dropped)
	s.xmemAcc = op(s.xmemAcc, o.xmemAcc)
	s.llcHits, s.llcMisses = op(s.llcHits, o.llcHits), op(s.llcMisses, o.llcMisses)
	s.sweepDrops = op(s.sweepDrops, o.sweepDrops)
	s.svcSum, s.svcCount = op(s.svcSum, o.svcSum), op(s.svcCount, o.svcCount)
	s.amatSum, s.amatCount = op(s.amatSum, o.amatSum), op(s.amatCount, o.amatCount)
	return s
}

func (s windowSnap) sub(o windowSnap) windowSnap {
	return s.apply(o, func(a, b uint64) uint64 { return a - b })
}

func (s windowSnap) add(o windowSnap) windowSnap {
	return s.apply(o, func(a, b uint64) uint64 { return a + b })
}

// start schedules every component's initial event: cores, tenant cores, the
// traffic generator and the dynamic-DDIO controller, in that order.
func (m *Machine) start() { m.startWith(nil) }

// startWith is start with the generator slot pluggable: startGen, when
// non-nil, runs at exactly the point the machine's own open-loop generator
// would start — after the cores, before the dynamic-DDIO controller. The
// cluster front end occupies this slot on external-traffic nodes, so event
// sequence numbers (and therefore dispatch order) match a standalone
// machine exactly.
func (m *Machine) startWith(startGen func()) {
	for _, c := range m.cores {
		c.Start()
	}
	for _, x := range m.xmem {
		x.Start()
	}
	switch {
	case m.cgen != nil:
		m.cgen.Start(m.eng.Now())
	case m.agen != nil:
		m.agen.Start()
	}
	if startGen != nil {
		startGen()
	}
	if m.cfg.DynamicDDIOEpoch > 0 && m.cfg.NICMode == nic.ModeDDIO {
		m.dp.startDynamicDDIO(m.cfg.DDIOWays)
	}
}

// DynamicDDIOWays reports the controller's current allocation and how many
// adjustments it has made (zero when the controller is off).
func (m *Machine) DynamicDDIOWays() (ways int, adjustments uint64) {
	return m.dp.dynWays, m.dp.dynAdjustments
}

func (m *Machine) snap() windowSnap {
	s := windowSnap{
		breakdown: m.dp.breakdown.Snapshot(),
		dramTxns:  m.dp.dram.Transactions(),
		served:    m.served,
		dropped:   m.nicD.Dropped(),
		llcHits:   m.dp.hier.LLC().Hits(),
		llcMisses: m.dp.hier.LLC().Misses(),
		svcSum:    m.svcSum,
		svcCount:  m.svcCount,
		amatSum:   m.amatSum,
		amatCount: m.amatCount,
	}
	if m.dp.tier1 != nil {
		s.tierTxns = m.dp.tier1.Transactions()
	}
	if m.agen != nil {
		s.offered = m.agen.Offered()
	} else if m.extOffered != nil {
		s.offered = m.extOffered()
	}
	for _, x := range m.xmem {
		s.xmemAcc += x.Accesses()
	}
	_, s.sweepDrops = m.dp.hier.Sweeps()
	return s
}

// Run executes the machine for warmup cycles, then measures for measure
// cycles, returning the window's results. A machine runs exactly once.
func (m *Machine) Run(warmup, measure uint64) Results {
	m.beginRun(warmup, measure)
	m.start()
	if m.cfg.Sampling.Enabled() {
		return m.runSampled(warmup)
	}
	m.eng.RunUntil(warmup)
	m.BeginWindow()
	m.eng.RunUntil(warmup + measure)
	return m.EndWindow(measure)
}

// beginRun performs the once-per-run bookkeeping shared by Run and
// StartNode: the run-once guard, window recording, and sampler arming.
func (m *Machine) beginRun(warmup, measure uint64) {
	if m.ran {
		panic("machine: Run called twice; build a fresh Machine per run")
	}
	if measure == 0 {
		panic("machine: measurement window must be positive")
	}
	m.ran = true
	m.lastWarmup, m.lastMeasure = warmup, measure
	if m.obsOn || m.cfg.ObsSampleCycles > 0 {
		m.sampler = obs.NewSampler(m.eng, m.Metrics(), m.sampleCadence(warmup+measure))
		m.sampler.Start()
	}
}

// StartNode begins a cluster node's run on the shared engine: run-once
// bookkeeping plus every component's initial event. startGen, when
// non-nil, runs in the node's generator slot (see startWith); the cluster
// passes its front end's Start for exactly one node so the shared arrival
// process enters the event sequence where a local generator would. The
// engine is not advanced — the cluster drives RunUntil across all nodes
// and brackets the measurement window with BeginWindow/EndWindow.
func (m *Machine) StartNode(warmup, measure uint64, startGen func()) {
	if m.cfg.Sampling.Enabled() {
		panic("machine: sampled simulation is not supported on cluster nodes")
	}
	m.beginRun(warmup, measure)
	m.startWith(startGen)
}

// BeginWindow resets the window accumulators and opens the measurement
// window. Run calls it at the warmup boundary, a sampled run before each
// measured interval, and the cluster layer on every node when the shared
// engine reaches the cluster's warmup.
func (m *Machine) BeginWindow() {
	m.dp.dramLat.Reset()
	m.reqLat.Reset()
	m.measuring = true
	m.dp.measuring = true
	m.winSnap = m.snap()
}

// closeWindow closes the window BeginWindow opened and returns its counts;
// the latency histograms hold its distributions until the next BeginWindow.
func (m *Machine) closeWindow() windowSnap {
	m.measuring = false
	m.dp.measuring = false
	return m.snap().sub(m.winSnap)
}

// EndWindow closes the measurement window opened by BeginWindow and
// returns its Results.
func (m *Machine) EndWindow(measure uint64) Results {
	w := m.closeWindow()
	m.finishRun()
	return m.results(w, measure, m.dp.dramLat, m.reqLat)
}

// finishRun closes out a run: the sampler's final sample and the debug
// build's end-of-run structural check (set mapping and tag uniqueness across
// every cache level).
func (m *Machine) finishRun() {
	if m.sampler != nil {
		m.sampler.Finish(m.eng.Now())
	}
	if obs.ProbesEnabled {
		if err := m.dp.hier.CheckInvariants(); err != nil {
			obs.Failf("machine: cache hierarchy inconsistent after run: %v", err)
		}
	}
}

// results assembles the Results of a window of measure cycles from its
// counts and its DRAM and request latency distributions.
func (m *Machine) results(w windowSnap, measure uint64, dramLat, reqLat *stats.Histogram) Results {
	r := Results{MeasuredCycles: measure}
	freq := m.cfg.FreqHz

	r.Served = w.served
	r.ThroughputMrps = stats.Mrps(r.Served, measure, freq)

	r.MemBWGBps = stats.GBps(w.dramTxns, measure, freq)
	r.MemBWUtilization = r.MemBWGBps / m.dp.dram.PeakGBps(freq)

	if m.dp.tier1 != nil {
		r.Tier1Accesses = w.tierTxns
		r.Tier1BWGBps = stats.GBps(r.Tier1Accesses, measure, freq)
	}

	r.AccessCounts = w.breakdown
	r.AccessesPerRequest = stats.PerRequest(r.AccessCounts, r.Served)

	r.DRAMLatMean = dramLat.Mean()
	r.DRAMLatP50 = dramLat.Percentile(0.50)
	r.DRAMLatP99 = dramLat.Percentile(0.99)
	r.DRAMLatCDF = dramLat.CDF()

	r.ReqLatMean = reqLat.Mean()
	r.ReqLatP99 = reqLat.Percentile(0.99)
	r.ReqLatP999 = reqLat.Percentile(0.999)
	if w.amatCount > 0 {
		r.AMATCycles = float64(w.amatSum) / float64(w.amatCount)
	}
	if w.svcCount > 0 {
		r.AvgServiceCycles = float64(w.svcSum) / float64(w.svcCount)
	}

	r.Offered = w.offered
	r.Dropped = w.dropped
	if r.Offered > 0 {
		r.DropRate = float64(r.Dropped) / float64(r.Offered)
	}

	if len(m.xmem) > 0 {
		r.XMemAccesses = w.xmemAcc
		perCore := float64(w.xmemAcc) / float64(len(m.xmem))
		instr := float64(m.xmem[0].Stream().InstrPerAccess())
		r.XMemIPC = perCore * instr / float64(measure)
	}

	if w.llcHits+w.llcMisses > 0 {
		r.LLCMissRatio = float64(w.llcMisses) / float64(w.llcHits+w.llcMisses)
	}

	r.Sweeper = m.sweep.Stats()
	r.SweeperSavedGBps = stats.GBps(w.sweepDrops, measure, freq)
	return r
}
