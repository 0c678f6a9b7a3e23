package machine

import (
	"math"

	"sweeper/internal/addr"
	"sweeper/internal/nic"
	"sweeper/internal/stats"
)

// Sampled simulation (DESIGN.md §12). A sampled run replaces one long
// detailed measurement window with a SMARTS-style schedule:
//
//	[functional warm-up] ([detailed-warm][detailed][fast-forward])*
//
// Fast-forward spans execute every request functionally — caches, DRAM row
// buffers and workload state stay warm, but no timing-wheel traffic is
// generated per memory access — while detailed spans run the full timing
// model. Each measured interval is preceded by an unmeasured detailed-warm
// prefix that re-establishes queue and MSHR-level timing state before
// statistics are recorded. Per-interval results feed Welford accumulators,
// so the run reports point estimates with 95% confidence intervals.

// Phase labels stamped into the observability time-series during a sampled
// run (obs.Sampler.SetPhase).
const (
	phaseWarmupFF     = "warmup-ff"
	phaseDetailedWarm = "detailed-warm"
	phaseDetailed     = "detailed"
	phaseFastForward  = "fast-forward"
)

// minCIIntervals is the smallest sample "ci" mode will stop at: below four
// intervals the Student-t half-width is too wide to mean anything.
const minCIIntervals = 4

// SamplingSummary reports what a sampled run did and the per-metric interval
// estimates. Results.Sampled carries it; full detailed runs leave it nil.
type SamplingSummary struct {
	// Mode is the sampling mode that ran ("fixed" or "ci").
	Mode string `json:"mode"`
	// Intervals is the number of measured detailed intervals.
	Intervals int `json:"intervals"`
	// DetailedCycles and FastForwardCycles are the resolved interval lengths.
	DetailedCycles    uint64 `json:"detailed_cycles"`
	FastForwardCycles uint64 `json:"fast_forward_cycles"`
	// WarmupDetected reports whether the steady-state detector fired before
	// the warm-up budget expired; WarmupEndCycle is where warm-up ended
	// either way.
	WarmupDetected bool   `json:"warmup_detected"`
	WarmupEndCycle uint64 `json:"warmup_end_cycle"`
	// SimulatedCycles is the total simulated span (warm-up, detailed and
	// fast-forward); MeasuredCycles is the detailed-interval sum — their
	// ratio against a full run's span is the sampling speedup lever.
	SimulatedCycles uint64 `json:"simulated_cycles"`
	MeasuredCycles  uint64 `json:"measured_cycles"`
	// Per-metric interval estimates: mean over the measured intervals with
	// the 95% CI half-width (Student-t below 30 intervals). Throughput and
	// MemBW count every interval; AMAT and the latency estimates count only
	// intervals that recorded samples, so their N can fall below Intervals
	// at low load (and is 0, with a 0 mean, when nothing was sampled).
	Throughput  stats.Estimate `json:"throughput_mrps"`
	AMAT        stats.Estimate `json:"amat_cycles"`
	MemBW       stats.Estimate `json:"mem_bw_gbps"`
	DRAMLatMean stats.Estimate `json:"dram_lat_mean"`
	ReqLatMean  stats.Estimate `json:"req_lat_mean"`
	ReqLatP99   stats.Estimate `json:"req_lat_p99"`
}

// FastForwarding implements cpu.FFEnv.
func (m *Machine) FastForwarding() bool { return m.ff }

// setFastForward flips the whole machine between timed and functional
// execution: the hierarchy reroutes its memory sink to the functional
// datapath entry points (misses complete at the owning tier's unloaded
// latency), and cores pick up the flag on their next poll. On tiered
// machines a per-address stamp replaces the flat DRAM estimate — an
// NVM-resident page's miss must cost its own tier's latency.
func (m *Machine) setFastForward(on bool) {
	m.ff = on
	m.dp.hier.SetFastForward(on, m.dp.dram.UnloadedReadLatency())
	if on && m.dp.tier1 != nil {
		m.dp.hier.SetFastForwardLatency(m.dp.ffLat)
	}
}

// setPhase tags the observability time-series, when one is armed.
func (m *Machine) setPhase(phase string) {
	if m.sampler != nil {
		m.sampler.SetPhase(phase)
	}
}

// ffBatch approximates MLP overlap without per-access events: independent
// accesses accumulate in batches of width, each batch contributing its
// slowest member to the serial total — the same max-of-batch rule the timed
// core applies per step.
type ffBatch struct {
	width    int
	n        int
	max, sum uint64
}

func (b *ffBatch) add(lat uint64) {
	if lat > b.max {
		b.max = lat
	}
	if b.n++; b.n == b.width {
		b.sum += b.max
		b.n, b.max = 0, 0
	}
}

func (b *ffBatch) finish() uint64 {
	b.sum += b.max
	b.n, b.max = 0, 0
	return b.sum
}

// FFServe implements cpu.FFEnv: one whole request served functionally in a
// single call. Every cache touch the timed pipeline would perform happens
// (RX payload reads, the workload's accesses, TX stores, the relinquish
// sweep), so the hierarchy's content evolves exactly as under detailed
// execution; only the per-access event traffic and DRAM bank/bus timing are
// skipped. The returned completion cycle is a flat-latency approximation —
// good enough to keep closed-loop pacing and ring occupancy realistic, never
// used for measurement.
//
// Access order differs from the timed pipeline in one way: the plan's
// application accesses come before the remaining RX payload lines instead of
// after. Within a single request that only permutes recency order, which has
// no observable effect at sampling granularity.
func (m *Machine) FFServe(now uint64, c int, p nic.Packet, txAddr uint64) (uint64, bool) {
	t := now + m.cfg.PollCycles
	b := ffBatch{width: m.cfg.MLPWidth}

	// Header line first, as the timed pipeline does.
	b.add(m.RXRead(t, c, p.Addr) - t)

	plan := &m.ffPlan
	m.drv.PlanRequest(p.Tag, p.Size, plan)
	for _, op := range plan.Ops {
		var d uint64
		switch {
		case op.Write && op.FullLine:
			d = m.AppWriteFull(t, c, op.Addr)
		case op.Write:
			d = m.AppWrite(t, c, op.Addr)
		default:
			d = m.AppRead(t, c, op.Addr)
		}
		b.add(d - t)
	}

	if plan.ReadFullPacket && p.Size > addr.LineBytes {
		m.ffLines = addr.LineAddrs(m.ffLines[:0], p.Addr, p.Size)
		for _, a := range m.ffLines[1:] {
			b.add(m.RXRead(t, c, a) - t)
		}
	}

	done := t + b.finish() + plan.ComputeCycles + m.ExtraServiceCycles(c, p.Tag)

	// Consume the buffer: relinquish before recycling the slot, the §V-A
	// ordering the timed pipeline enforces. Both calls are functional-safe —
	// sweeps route dropped writebacks through the functional sink.
	done = m.Relinquish(done, c, p.Addr, p.Size)
	m.FreeRXSlot(c)

	txBytes := plan.RespBytes
	if txBytes > m.ffRespSlot {
		txBytes = m.ffRespSlot
	}
	if txBytes > 0 {
		m.ffLines = addr.LineAddrs(m.ffLines[:0], txAddr, txBytes)
		tb := ffBatch{width: m.cfg.MLPWidth}
		for _, a := range m.ffLines {
			tb.add(m.TXWrite(done, c, a) - done)
		}
		done += tb.finish()
		m.Transmit(done, nic.WorkQueueEntry{
			Owner:       c,
			BufAddr:     txAddr,
			Size:        txBytes,
			SweepBuffer: m.cfg.SweepTX,
		})
	}

	m.ffLatSum += done - now
	m.ffLatCount++
	m.OnRequestDone(done, c, p, done-now)
	return done, txBytes > 0
}

// warmupWindow holds one warm-up detector window's metrics — served
// requests, LLC hit rate and the functional request-latency proxy — plus the
// sample counts behind them, which set each metric's noise floor.
type warmupWindow struct {
	served  float64
	hitRate float64
	ffLat   float64
	reqs    float64 // served count: Poisson noise floor for served and ffLat
	accs    float64 // LLC accesses: binomial noise floor for hitRate
}

// stableAgainst reports whether cur's windowed deltas from prev all sit
// within tolerance. Each metric's tolerance is floored at 3x its own
// per-window sampling noise — Poisson relative noise 1/√n for the served
// count and the latency mean, binomial √(p(1-p)/n)/p for the hit rate — so
// a single knob expresses genuinely detectable drift: shot noise on a
// low-traffic window can never be mistaken for a warming transient, and a
// slow drift buried below the noise floor is, by construction, smaller than
// the run-to-run noise of a full detailed window of the same length.
func (cur warmupWindow) stableAgainst(prev warmupWindow, tol float64) bool {
	countTol := tol
	if n := math.Min(prev.reqs, cur.reqs); n > 0 {
		countTol = math.Max(tol, 3/math.Sqrt(n))
	}
	rateTol := tol
	if n := math.Min(prev.accs, cur.accs); n > 0 {
		if p := (prev.hitRate + cur.hitRate) / 2; p > 0 && p < 1 {
			rateTol = math.Max(tol, 3*math.Sqrt(p*(1-p)/n)/p)
		}
	}
	return relDelta(prev.served, cur.served) <= countTol &&
		relDelta(prev.hitRate, cur.hitRate) <= rateTol &&
		relDelta(prev.ffLat, cur.ffLat) <= countTol
}

// relDelta is the detector's stability measure between consecutive windows.
// Two zero windows are stable (an idle metric has converged); a metric
// appearing from zero is maximally unstable.
func relDelta(prev, cur float64) float64 {
	if prev == cur {
		return 0
	}
	if prev == 0 {
		return 1
	}
	return math.Abs(cur-prev) / math.Abs(prev)
}

// sampleDone is the interval scheduler's stop rule. n counts measured
// intervals; amat holds only the intervals that had AMAT samples, so at low
// load it can lag n. "ci" mode needs minCIIntervals of those before an AMAT
// half-width means anything (below two samples it reads 0); as amat.N() <=
// n, that also keeps the floor on intervals.
func sampleDone(sc SamplingConfig, n int, tput, amat *stats.Welford) bool {
	if sc.Mode == samplingModeFixed {
		return n >= sc.Intervals
	}
	// "ci": stop when both primary metrics are tight enough, bounded above.
	if n >= sc.MaxIntervals {
		return true
	}
	if amat.N() < minCIIntervals {
		return false
	}
	return tput.Estimate().RelHalfWidth() <= sc.MaxRelCI &&
		amat.Estimate().RelHalfWidth() <= sc.MaxRelCI
}

// runSampled executes the sampled-simulation schedule; Run dispatches here
// (after arming the sampler and starting every component) when
// Config.Sampling selects a mode. The warmup argument is a budget, not a
// fixed span: fast-forward warm-up ends as soon as the steady-state detector
// fires.
func (m *Machine) runSampled(warmup uint64) Results {
	sc := m.cfg.Sampling.withDefaults()

	// Phase 1 — functional warm-up with steady-state detection: fast-forward
	// in windows, watching windowed deltas of served throughput, LLC hit
	// rate and the functional latency proxy. All three within tolerance for
	// WarmupWindows consecutive windows ⇒ steady state.
	m.setFastForward(true)
	m.setPhase(phaseWarmupFF)
	var (
		detected bool
		prev     warmupWindow
		havePrev bool
		stable   int
	)
	for m.eng.Now() < warmup {
		next := m.eng.Now() + sc.WarmupWindowCycles
		if next > warmup {
			next = warmup
		}
		s0 := m.snap()
		ffSum0, ffCnt0 := m.ffLatSum, m.ffLatCount
		m.eng.RunUntil(next)

		d := m.snap().sub(s0)
		cur := warmupWindow{served: float64(d.served)}
		cur.reqs = cur.served
		cur.accs = float64(d.llcHits + d.llcMisses)
		if cur.accs > 0 {
			cur.hitRate = float64(d.llcHits) / cur.accs
		}
		if dc := m.ffLatCount - ffCnt0; dc > 0 {
			cur.ffLat = float64(m.ffLatSum-ffSum0) / float64(dc)
		}
		if havePrev && cur.stableAgainst(prev, sc.WarmupMetricTol) {
			stable++
		} else {
			stable = 0
		}
		prev, havePrev = cur, true
		if stable >= sc.WarmupWindows {
			detected = true
			break
		}
	}
	warmupEnd := m.eng.Now()

	// Phase 2 — alternating intervals. Each iteration: timed-but-unmeasured
	// detailed-warm prefix, measured detailed interval (a window of its own,
	// its Results fed into the accumulators and its counts into the run's
	// total), then — unless the stop rule fires — a fast-forward span.
	warmPrefix := sc.DetailedCycles
	accDram := stats.NewHistogram(4, 8192)
	accReq := stats.NewHistogram(64, 8192)
	var (
		wTput, wAMAT, wBW, wDram, wReq, wP99 stats.Welford

		total     windowSnap
		intervals int
	)
	for {
		m.setFastForward(false)
		m.setPhase(phaseDetailedWarm)
		m.eng.RunUntil(m.eng.Now() + warmPrefix)

		m.BeginWindow()
		m.setPhase(phaseDetailed)
		m.eng.RunUntil(m.eng.Now() + sc.DetailedCycles)
		w := m.closeWindow()

		ri := m.results(w, sc.DetailedCycles, m.dp.dramLat, m.reqLat)
		intervals++
		wTput.Add(ri.ThroughputMrps)
		wBW.Add(ri.MemBWGBps)
		// A latency or AMAT mean is undefined over an interval without
		// samples (results reports it as 0); averaging that 0 in would
		// invent a value. Rates are defined either way: an idle interval
		// really served 0 Mrps.
		if w.amatCount > 0 {
			wAMAT.Add(ri.AMATCycles)
		}
		if m.dp.dramLat.Count() > 0 {
			wDram.Add(ri.DRAMLatMean)
		}
		if m.reqLat.Count() > 0 {
			wReq.Add(ri.ReqLatMean)
			wP99.Add(float64(ri.ReqLatP99))
		}
		total = total.add(w)
		accDram.Merge(m.dp.dramLat)
		accReq.Merge(m.reqLat)

		if sampleDone(sc, intervals, &wTput, &wAMAT) {
			break
		}
		m.setFastForward(true)
		m.setPhase(phaseFastForward)
		m.eng.RunUntil(m.eng.Now() + sc.FastForwardCycles)
	}
	m.setFastForward(false)
	m.finishRun()

	// The run's Results come from the summed counts and the merged
	// histograms, as a detailed window's do. The rate metrics are interval
	// means instead (with CIs in Sampled): a mean of per-interval rates is
	// not, bit for bit, the rate of the summed counts.
	measured := uint64(intervals) * sc.DetailedCycles
	r := m.results(total, measured, accDram, accReq)
	r.ThroughputMrps = wTput.Mean()
	r.AMATCycles = wAMAT.Mean()
	r.MemBWGBps = wBW.Mean()
	r.MemBWUtilization = r.MemBWGBps / m.dp.dram.PeakGBps(m.cfg.FreqHz)
	// Known gap: sampled runs do not estimate the p99.9 tail yet, so it
	// reads 0 rather than the merged histogram's value.
	r.ReqLatP999 = 0
	r.Sampled = &SamplingSummary{
		Mode:              sc.Mode,
		Intervals:         intervals,
		DetailedCycles:    sc.DetailedCycles,
		FastForwardCycles: sc.FastForwardCycles,
		WarmupDetected:    detected,
		WarmupEndCycle:    warmupEnd,
		SimulatedCycles:   m.eng.Now(),
		MeasuredCycles:    measured,
		Throughput:        wTput.Estimate(),
		AMAT:              wAMAT.Estimate(),
		MemBW:             wBW.Estimate(),
		DRAMLatMean:       wDram.Estimate(),
		ReqLatMean:        wReq.Estimate(),
		ReqLatP99:         wP99.Estimate(),
	}
	return r
}
