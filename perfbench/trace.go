package main

import (
	"bytes"
	"fmt"
	"runtime/pprof"
	"sync"

	"sweeper/internal/cluster"
	"sweeper/internal/experiments"
	"sweeper/internal/machine"
	"sweeper/internal/scenario"
)

// profiled runs iterations for the budget under a CPU profile, with every
// span labelled, and decodes the profile.
func (b *bench) profiled(w *workload, budget float64) ([]iteration, *profile, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	b.traced = true
	iters := b.measureIterations(w, budget, 1)
	b.traced = false
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	return iters, p, err
}

// counts is the simulated work of one iteration, read from the program's
// public counters after each run. Cumulative counters cover the whole run,
// warm-up and warm fill included.
type counts struct {
	machineRuns                 float64
	requests                    float64
	l1Acc, l1Hit, l2Acc, l2Hit  float64
	llcAcc, llcHit              float64
	swept, wbAvoided            float64
	memTxns, busBusy, busCycles float64
	backlog                     float64
	arrivals, drops             float64
	fabMsgs, fabRetries, remote float64
	sampledCycles, ffCycles     float64
	intervals                   float64
	cells                       float64
}

// addMachine reads one machine's counters after its run.
func (c *counts) addMachine(m *machine.Machine, r machine.Results) {
	now := m.Engine().Now()
	h := m.Hierarchy()
	cfg := m.Config()
	for i := 0; i < cfg.NetCores+cfg.XMemCores; i++ {
		l1, l2 := h.L1(i), h.L2(i)
		c.l1Acc += float64(l1.Hits() + l1.Misses())
		c.l1Hit += float64(l1.Hits())
		c.l2Acc += float64(l2.Hits() + l2.Misses())
		c.l2Hit += float64(l2.Hits())
	}
	c.llcAcc += float64(h.LLC().Hits() + h.LLC().Misses())
	c.llcHit += float64(h.LLC().Hits())

	fin := m.Metrics().Final(now)
	c.machineRuns++
	c.requests += fin["cpu.served"]
	c.busBusy += fin["mem.bus_busy_cycles"]
	c.backlog += fin["mem.bus_backlog_cycles"]
	c.busCycles += float64(now) * float64(m.DRAM().Config().Channels)
	c.memTxns += float64(m.DRAM().Transactions())
	c.arrivals += float64(m.NIC().Injected() + m.NIC().Dropped())
	c.drops += float64(m.NIC().Dropped())
	c.swept += float64(r.Sweeper.SweptLines)
	c.wbAvoided += float64(r.Sweeper.DroppedDirtyLines)
}

// addSampling records how a sampled run split its simulated cycles: the
// warm-up and every fast-forward span run functionally.
func (c *counts) addSampling(s *machine.SamplingSummary) {
	c.sampledCycles += float64(s.SimulatedCycles)
	ff := s.WarmupEndCycle
	if s.Intervals > 1 {
		ff += uint64(s.Intervals-1) * s.FastForwardCycles
	}
	c.ffCycles += float64(ff)
	c.intervals += float64(s.Intervals)
}

// addCluster reads every node's counters plus the fabric's.
func (c *counts) addCluster(cl *cluster.Cluster, r cluster.Results) {
	for i := 0; i < cl.NumNodes(); i++ {
		c.addMachine(cl.Node(i), r.Nodes[i])
	}
	st := cl.Fabric().Stats()
	c.fabMsgs += float64(st.Messages)
	c.fabRetries += float64(st.Retries)
	c.remote += float64(cl.RemoteReads())
}

// fig2Counts reruns Figure 2's jobs on machines of its own, two at a time,
// to read the counters experiments.Fig2 keeps private. It runs outside the
// profile. Every count is a whole number, so the sum does not depend on the
// order the workers finish in.
func fig2Counts(jobs []scenario.Run, sc experiments.Scale) (counts, error) {
	var (
		total counts
		first error
		mu    sync.Mutex
		wg    sync.WaitGroup
	)
	next := make(chan scenario.Run)
	for w := 0; w < fig2Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pool := machine.NewPool(1)
			for j := range next {
				m, err := pool.Get(j.Config)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					continue
				}
				r := m.Run(sc.Warmup, sc.Measure)
				mu.Lock()
				total.addMachine(m, r)
				mu.Unlock()
				pool.Put(m)
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	return total, first
}

// perLayerSpec lists the traced run's metrics, in BENCHMARK.json order.
var perLayerSpec = []struct{ name, unit, better string }{
	{"span.setup_s", "s", "lower"},
	{"span.warm_s", "s", "lower"},
	{"span.measure_s", "s", "lower"},
	{"span.run_s", "s", "lower"},
	{"span.figure_s", "s", "lower"},
	{"sim.self_s", "s", "lower"},
	{"cpu.self_s", "s", "lower"},
	{"cache.self_s", "s", "lower"},
	{"mem.self_s", "s", "lower"},
	{"nic.self_s", "s", "lower"},
	{"workload.self_s", "s", "lower"},
	{"core.self_s", "s", "lower"},
	{"machine.self_s", "s", "lower"},
	{"fabric.self_s", "s", "lower"},
	{"cluster.self_s", "s", "lower"},
	{"experiments.self_s", "s", "lower"},
	{"stats.self_s", "s", "lower"},
	{"runtime.gc_s", "s", "lower"},
	{"other.self_s", "s", "lower"},
	{"setup.cache.self_s", "s", "lower"},
	{"setup.machine.self_s", "s", "lower"},
	{"setup.runtime.gc_s", "s", "lower"},
	{"cpu.requests", "count", "higher"},
	{"cache.l1.accesses", "count", "lower"},
	{"cache.l2.accesses", "count", "lower"},
	{"cache.llc.accesses", "count", "lower"},
	{"cache.l1.hit_ratio", "ratio", "higher"},
	{"cache.l2.hit_ratio", "ratio", "higher"},
	{"cache.llc.hit_ratio", "ratio", "higher"},
	{"core.swept_lines", "count", "higher"},
	{"core.writebacks_avoided", "count", "higher"},
	{"mem.txns", "count", "lower"},
	{"mem.bus_busy_frac", "ratio", "lower"},
	{"mem.bus_backlog_cycles", "cycles", "lower"},
	{"nic.arrivals", "count", "higher"},
	{"nic.drop_ratio", "ratio", "lower"},
	{"fabric.messages", "count", "lower"},
	{"fabric.retry_ratio", "ratio", "lower"},
	{"cluster.remote_reads", "count", "lower"},
	{"sampling.ff_share", "ratio", "higher"},
	{"sampling.intervals", "count", "lower"},
	{"sampled_membw_err_pct", "%", "lower"},
	{"sampled_tput_err_pct", "%", "lower"},
	{"experiments.cells", "count", "higher"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.allocs", "count", "lower"},
	{"cache.ns_per_access", "ns", "lower"},
	{"mem.ns_per_txn", "ns", "lower"},
	{"nic.ns_per_arrival", "ns", "lower"},
	{"workload.ns_per_request", "ns", "lower"},
	{"sim.ns_per_request", "ns", "lower"},
	{"fabric.ns_per_msg", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

var perLayerNames = func() []string {
	out := make([]string, len(perLayerSpec))
	for i, s := range perLayerSpec {
		out[i] = s.name
	}
	return out
}()

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer assembles the traced run's metrics. Spans are per-iteration
// medians; self times are profile seconds per traced iteration; counts are
// one iteration's simulated work (every iteration repeats it exactly).
func perLayer(w *workload, untraced, traced []iteration, p *profile) (map[string]metric, error) {
	out := map[string]metric{}
	n := float64(len(traced))
	for _, s := range spanNames {
		vs := make([]float64, len(traced))
		for i, it := range traced {
			vs[i] = it.spans[s]
		}
		out["span."+s+"_s"] = metric{median(vs), "s"}
	}

	self, _ := p.selfTimes("")
	selfOf := func(layer string) float64 { return self[layer] / n }
	for _, l := range layers {
		out[l+".self_s"] = metric{selfOf(l), "s"}
	}
	out["runtime.gc_s"] = metric{selfOf(layerGC), "s"}
	out["other.self_s"] = metric{selfOf(layerOther), "s"}
	setup, _ := p.selfTimes(spanSetup)
	out["setup.cache.self_s"] = metric{setup["cache"] / n, "s"}
	out["setup.machine.self_s"] = metric{setup["machine"] / n, "s"}
	out["setup.runtime.gc_s"] = metric{setup[layerGC] / n, "s"}

	c := traced[0].counts
	if w.countPass != nil {
		pc, err := w.countPass()
		if err != nil {
			return nil, fmt.Errorf("count pass: %w", err)
		}
		pc.cells = c.cells
		c = pc
	}
	cnt := func(name string, v float64) { out[name] = metric{v, "count"} }
	rat := func(name string, v float64) { out[name] = metric{v, "ratio"} }
	cnt("cpu.requests", c.requests)
	cnt("cache.l1.accesses", c.l1Acc)
	cnt("cache.l2.accesses", c.l2Acc)
	cnt("cache.llc.accesses", c.llcAcc)
	rat("cache.l1.hit_ratio", ratio(c.l1Hit, c.l1Acc))
	rat("cache.l2.hit_ratio", ratio(c.l2Hit, c.l2Acc))
	rat("cache.llc.hit_ratio", ratio(c.llcHit, c.llcAcc))
	cnt("core.swept_lines", c.swept)
	cnt("core.writebacks_avoided", c.wbAvoided)
	cnt("mem.txns", c.memTxns)
	rat("mem.bus_busy_frac", ratio(c.busBusy, c.busCycles))
	out["mem.bus_backlog_cycles"] = metric{ratio(c.backlog, c.machineRuns), "cycles"}
	cnt("nic.arrivals", c.arrivals)
	rat("nic.drop_ratio", ratio(c.drops, c.arrivals))
	cnt("fabric.messages", c.fabMsgs)
	rat("fabric.retry_ratio", ratio(c.fabRetries, c.fabMsgs))
	cnt("cluster.remote_reads", c.remote)
	rat("sampling.ff_share", ratio(c.ffCycles, c.sampledCycles))
	cnt("sampling.intervals", c.intervals)
	cnt("experiments.cells", c.cells)

	gcs := make([]float64, len(traced))
	allocs := make([]float64, len(traced))
	for i, it := range traced {
		gcs[i], allocs[i] = float64(it.gcs), float64(it.mallocs)
	}
	cnt("runtime.gc_cycles", median(gcs))
	cnt("runtime.allocs", median(allocs))

	ns := func(name string, secs, units float64) { out[name] = metric{1e9 * ratio(secs, units), "ns"} }
	ns("cache.ns_per_access", selfOf("cache"), c.l1Acc+c.l2Acc+c.llcAcc)
	ns("mem.ns_per_txn", selfOf("mem"), c.memTxns)
	ns("nic.ns_per_arrival", selfOf("nic"), c.arrivals)
	ns("workload.ns_per_request", selfOf("workload"), c.requests)
	ns("sim.ns_per_request", selfOf("sim"), c.requests)
	ns("fabric.ns_per_msg", selfOf("fabric"), c.fabMsgs)

	if w.extraE2E != nil {
		for k, v := range w.extraE2E() {
			out[k] = v
		}
	}
	for _, k := range []string{"sampled_membw_err_pct", "sampled_tput_err_pct"} {
		if _, ok := out[k]; !ok {
			out[k] = metric{0, "%"} // no sampled estimate on this workload
		}
	}

	wall := func(its []iteration) float64 {
		vs := make([]float64, len(its))
		for i, it := range its {
			vs[i] = it.wall
		}
		return median(vs)
	}
	out["trace.overhead_pct"] = metric{100 * (wall(traced)/wall(untraced) - 1), "%"}
	return out, nil
}
