package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"sweeper/internal/cluster"
	"sweeper/internal/experiments"
	"sweeper/internal/machine"
	"sweeper/internal/scenario"
)

// workload is one named input set. Every iteration of a workload repeats
// the same simulated runs at the same seed, so each rerun doubles as the
// determinism check against the first.
type workload struct {
	name   string
	seeded bool           // fig2-quick's inputs are fixed by its goldens
	params map[string]any // recorded in the host-facts header
	// threads is how many goroutines the workload keeps busy at once; the
	// host is calibrated on as many threads.
	threads int

	// prepare, when set, does untimed set-up: loading goldens and the
	// reference, computing the sampled ladder's full-detail reference off
	// the default seed.
	prepare func(b *bench) error
	// iterate performs one iteration's runs through b.attempt.
	iterate func(b *bench)
	// setupSeconds reduces the iterations to the set-up metric, in CPU
	// seconds at the reference speed, in CPU seconds and in elapsed seconds.
	setupSeconds func(iters []iteration) (ref, cpu, wall float64)
	// extraE2E, when set, adds workload-specific metrics to the printed
	// report and the traced run (they are not in the untraced JSON result,
	// which every workload reports alike).
	extraE2E func() map[string]metric
	// digest fingerprints the simulated results of the first iteration.
	digest func() string
	// countPass, when set, measures the per-layer counts of a traced run
	// outside the profile (fig2-quick's machines are private to the
	// experiments package).
	countPass func() (counts, error)
}

// Workload parameters. Changing any of them changes the simulated results:
// regenerate the reference with -write-reference.
const (
	pooledMrps      = 30 // ~80% of the Table I knee (37.7 Mrps)
	rackNodes       = 4
	rackNodeMrps    = 8
	fig2Workers     = 2
	fig2SetupRounds = 25 // timed rounds of fig2-quick's set-up probe
)

// sizes are the simulated window lengths, in cycles. The sampled runs and
// their full-detail reference share the warm-up length, so the accuracy
// error isolates what fast-forwarding changes.
type sizes struct {
	pooledWarmup, pooledMeasure   uint64
	sampledWarmup, sampledMeasure uint64
	rackWarmup, rackMeasure       uint64
	fig2                          experiments.Scale
}

// benchSizes are the benchmark's; the committed reference is for them.
func benchSizes() sizes {
	return sizes{
		pooledWarmup: 2_000_000, pooledMeasure: 4_000_000,
		sampledWarmup: 3_000_000, sampledMeasure: 1_000_000,
		rackWarmup: 500_000, rackMeasure: 1_000_000,
		fig2: experiments.QuickScale(), // the scale of the committed goldens
	}
}

// shortSizes run every workload in well under a second per run, for the
// benchmark's own tests. Goldens and digests do not apply to them.
func shortSizes() sizes {
	return sizes{
		pooledWarmup: 100_000, pooledMeasure: 200_000,
		sampledWarmup: 300_000, sampledMeasure: 100_000,
		rackWarmup: 100_000, rackMeasure: 200_000,
		fig2: experiments.Scale{Warmup: 100_000, Measure: 100_000, SearchIters: 1},
	}
}

// sampledRates is the sampled ladder's offered load per point, each run
// with Sweeper off and on.
var sampledRates = []float64{10, 22, 34}

// newWorkloads builds every workload with fresh state.
func newWorkloads(sz sizes) []*workload {
	return []*workload{kvsPooled(sz), fig2Quick(sz), kvsSampledSweep(sz), rack4KVS(sz)}
}

func workloadNames() []string {
	var out []string
	for _, w := range newWorkloads(benchSizes()) {
		out = append(out, w.name)
	}
	return out
}

func workloadByName(name string, sz sizes) (*workload, bool) {
	for _, w := range newWorkloads(sz) {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// medianSetup is the set-up metric of workloads whose iterations contain
// their set-up spans.
func medianSetup(iters []iteration) (ref, cpu, wall float64) {
	rs, cs, ws := make([]float64, len(iters)), make([]float64, len(iters)), make([]float64, len(iters))
	for i, it := range iters {
		rs[i], cs[i], ws[i] = it.setupCPU/it.scale, it.setupCPU, it.setupWall
	}
	return median(rs), median(cs), median(ws)
}

// kvsConfig is the Table I KVS (1 KB items, 1024 buffers, 2-way DDIO) at
// an offered load and seed.
func kvsConfig(mrps float64, seed int64, sweeper bool) machine.Config {
	cfg := scenario.MustConfig("kvs", map[string]float64{"offered_mrps": mrps})
	cfg.Seed = seed
	cfg.Sweeper.RXSweep = sweeper
	return cfg
}

// kvsPooled is the paper's headline configuration on one recycled machine,
// with the run split into set-up, warm-up and measurement.
func kvsPooled(sz sizes) *workload {
	var (
		pool  = machine.NewPool(1)
		rr    reruns
		cycle = float64(sz.pooledWarmup + sz.pooledMeasure)
	)
	w := &workload{
		name:    "kvs-pooled",
		seeded:  true,
		threads: 1,
		params: map[string]any{
			"scenario": "kvs", "offered_mrps": pooledMrps, "sweeper": true,
			"warmup_cycles": sz.pooledWarmup, "measure_cycles": sz.pooledMeasure,
			"pool": "machine.Pool, one machine",
		},
		setupSeconds: medianSetup,
	}
	w.iterate = func(b *bench) {
		b.attempt("kvs-pooled run", func() error {
			cfg := kvsConfig(pooledMrps, b.seed, true)
			var m *machine.Machine
			var err error
			b.span(spanSetup, func() { m, err = pool.Get(cfg) })
			if err != nil {
				return err
			}
			defer pool.Put(m)
			var r machine.Results
			b.span(spanWarm, func() {
				m.StartNode(sz.pooledWarmup, sz.pooledMeasure, nil)
				m.Engine().RunUntil(sz.pooledWarmup)
			})
			b.span(spanMeasure, func() {
				m.BeginWindow()
				m.Engine().RunUntil(sz.pooledWarmup + sz.pooledMeasure)
				r = m.EndWindow(sz.pooledMeasure)
			})
			b.cur.simCycles += cycle
			b.cur.counts.addMachine(m, r)
			if err := checkMachine(m, r); err != nil {
				return err
			}
			return rr.check("kvs-pooled", r)
		})
	}
	w.digest = rr.digest
	return w
}

// fig2Quick regenerates Figure 2 at QuickScale (the scale of the committed
// goldens) and byte-compares it with them.
func fig2Quick(sz sizes) *workload {
	var (
		golden     map[string][]byte
		probes     [2][]float64 // CPU and elapsed seconds per round
		probeScale float64      // host slowdown around the rounds
		rr         reruns
		jobs       []scenario.Run
	)
	sc := sz.fig2
	sc.Parallelism = fig2Workers // explicit, so SWEEPER_WORKERS cannot leak in
	w := &workload{
		name:    "fig2-quick",
		seeded:  false,
		threads: fig2Workers,
		params: map[string]any{
			"figure": "fig2", "parallelism": fig2Workers,
			"warmup_cycles": sc.Warmup, "measure_cycles": sc.Measure,
			"goldens": "results/fig2{a,b,c}.csv",
		},
	}
	w.prepare = func(b *bench) error {
		var err error
		if golden, err = loadGoldens(b.env.resultsDir); err != nil {
			return err
		}
		if jobs, err = scenario.MustSpec("fig2").Expand(); err != nil {
			return err
		}
		// Figure 2 builds and resets its machines inside experiments.Fig2,
		// where set-up cannot be timed apart. setup_s is instead what the
		// figure's runs pay for it: one pooled machine taken through every
		// job's configuration, as a worker's pool does, timed per round.
		pool := machine.NewPool(1)
		before := calibrate(fig2Workers)
		for i := 0; i <= fig2SetupRounds; i++ {
			t0, cpu0 := time.Now(), processCPU()
			for _, j := range jobs {
				m, err := pool.Get(j.Config)
				if err != nil {
					return err
				}
				pool.Put(m)
			}
			if i > 0 { // round 0 builds the machine
				probes[0] = append(probes[0], processCPU()-cpu0)
				probes[1] = append(probes[1], time.Since(t0).Seconds())
			}
		}
		probeScale = (before + calibrate(fig2Workers)) / 2
		return nil
	}
	w.setupSeconds = func([]iteration) (ref, cpu, wall float64) {
		return median(probes[0]) / probeScale, median(probes[0]), median(probes[1])
	}
	w.iterate = func(b *bench) {
		b.attempt("fig2-quick figure", func() error {
			var tables []experiments.Table
			b.span(spanFigure, func() { tables = experiments.Fig2(sc) })
			b.cur.simCycles += float64(len(jobs)) * float64(sc.Warmup+sc.Measure)
			b.cur.counts.cells += float64(len(tables[0].Cells))
			got, err := renderTables(tables)
			if err != nil {
				return err
			}
			if !b.short {
				if err := compareGoldens(got, golden); err != nil {
					return err
				}
			}
			return rr.check("fig2", got)
		})
	}
	w.digest = rr.digest
	w.countPass = func() (counts, error) { return fig2Counts(jobs, sc) }
	return w
}

// renderTables writes each table as the CSV experiments commits.
func renderTables(tables []experiments.Table) (map[string][]byte, error) {
	out := map[string][]byte{}
	for i := range tables {
		var buf bytes.Buffer
		if err := tables[i].WriteCSV(&buf); err != nil {
			return nil, err
		}
		out[tables[i].ID+".csv"] = buf.Bytes()
	}
	return out, nil
}

var fig2Goldens = []string{"fig2a.csv", "fig2b.csv", "fig2c.csv"}

func loadGoldens(dir string) (map[string][]byte, error) {
	out := map[string][]byte{}
	for _, name := range fig2Goldens {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("fig2-quick golden: %w", err)
		}
		out[name] = data
	}
	return out, nil
}

// compareGoldens requires every golden to be regenerated byte for byte,
// naming the first differing line.
func compareGoldens(got, want map[string][]byte) error {
	names := make([]string, 0, len(want))
	for n := range want {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g, ok := got[n]
		if !ok {
			return fmt.Errorf("%s not regenerated", n)
		}
		if bytes.Equal(g, want[n]) {
			continue
		}
		gl, wl := bytes.Split(g, []byte("\n")), bytes.Split(want[n], []byte("\n"))
		for i := 0; i < len(gl) || i < len(wl); i++ {
			if i >= len(gl) || i >= len(wl) || !bytes.Equal(gl[i], wl[i]) {
				return fmt.Errorf("%s differs from the golden at line %d", n, i+1)
			}
		}
	}
	return nil
}

// sampledPoint is one rung of the sampled ladder.
type sampledPoint struct {
	Mrps    float64 `json:"offered_mrps"`
	Sweeper bool    `json:"sweeper"`
}

func (p sampledPoint) String() string {
	return fmt.Sprintf("%g Mrps sweeper=%v", p.Mrps, p.Sweeper)
}

func sampledPoints() []sampledPoint {
	var out []sampledPoint
	for _, sw := range []bool{false, true} {
		for _, r := range sampledRates {
			out = append(out, sampledPoint{r, sw})
		}
	}
	return out
}

// fullRef is the full detailed run of one sampled point.
type fullRef struct {
	sampledPoint
	ThroughputMrps float64 `json:"throughput_mrps"`
	MemBWGBps      float64 `json:"mem_bw_gbps"`
}

// kvsSampledSweep runs sampled mode across a load ladder, Sweeper off and
// on, and scores it against full detailed runs of the same points.
func kvsSampledSweep(sz sizes) *workload {
	var (
		pool   = machine.NewPool(1)
		rr     reruns
		ref    []fullRef
		latest = map[sampledPoint]machine.Results{}
	)
	points := sampledPoints()
	w := &workload{
		name:    "kvs-sampled-sweep",
		seeded:  true,
		threads: 1,
		params: map[string]any{
			"scenario": "kvs", "sampling": "fixed", "offered_mrps": sampledRates,
			"sweeper": []bool{false, true}, "warmup_cycles": sz.sampledWarmup,
			"warmup_detection": "off",
			"reference":        fmt.Sprintf("full detailed runs, %d warm-up + %d measured cycles", sz.sampledWarmup, sz.sampledMeasure),
			"pool":             "machine.Pool, one machine",
		},
		setupSeconds: medianSetup,
	}
	w.prepare = func(b *bench) error {
		var err error
		if b.seed == defaultSeed && !b.regenerate && !b.short {
			ref, err = loadSampledReference(b.env.refPath)
		} else {
			ref, err = fullReference(pool, b.seed, sz)
		}
		return err
	}
	w.iterate = func(b *bench) {
		for _, p := range points {
			p := p
			b.attempt("kvs-sampled-sweep "+p.String(), func() error {
				cfg := sampledConfig(p, b.seed)
				var m *machine.Machine
				var err error
				b.span(spanSetup, func() { m, err = pool.Get(cfg) })
				if err != nil {
					return err
				}
				defer pool.Put(m)
				var r machine.Results
				b.span(spanRun, func() { r = m.Run(sz.sampledWarmup, sz.sampledMeasure) })
				if r.Sampled == nil {
					return fmt.Errorf("%v: no sampling summary", p)
				}
				b.cur.simCycles += float64(r.Sampled.SimulatedCycles)
				b.cur.counts.addMachine(m, r)
				b.cur.counts.addSampling(r.Sampled)
				if err := checkMachine(m, r); err != nil {
					return fmt.Errorf("%v: %w", p, err)
				}
				if err := checkSampled(r.Sampled); err != nil {
					return fmt.Errorf("%v: %w", p, err)
				}
				latest[p] = r
				return rr.check(p.String(), r)
			})
		}
	}
	w.extraE2E = func() map[string]metric {
		bw, tput := sampledErrors(ref, latest)
		return map[string]metric{
			"sampled_membw_err_pct": {bw, "%"},
			"sampled_tput_err_pct":  {tput, "%"},
		}
	}
	w.digest = rr.digest
	return w
}

// sampledConfig is a ladder point in sampled mode. Warm-up detection is
// held off, so warm-up always runs the whole budget: left on, it ends
// warm-up anywhere between 0.4M and 3.4M cycles depending on the seed, and
// the simulated work of one ladder would vary more than twofold between
// seeds. The fast-forward path, the interval schedule and the warm install
// are unchanged.
func sampledConfig(p sampledPoint, seed int64) machine.Config {
	cfg := kvsConfig(p.Mrps, seed, p.Sweeper)
	cfg.Sampling.Mode = "fixed"
	cfg.Sampling.WarmupWindows = math.MaxInt32
	return cfg
}

// fullReference runs every sampled point in full detail: the accuracy
// reference on seeds the committed file does not cover. It is untimed.
func fullReference(pool *machine.Pool, seed int64, sz sizes) ([]fullRef, error) {
	var out []fullRef
	for _, p := range sampledPoints() {
		m, err := pool.Get(kvsConfig(p.Mrps, seed, p.Sweeper))
		if err != nil {
			return nil, err
		}
		r := m.Run(sz.sampledWarmup, sz.sampledMeasure)
		pool.Put(m)
		if r.Served == 0 {
			return nil, fmt.Errorf("full reference %v served nothing", p)
		}
		out = append(out, fullRef{p, r.ThroughputMrps, r.MemBWGBps})
	}
	return out, nil
}

// sampledErrors is the mean absolute relative error, in percent, of the
// sampled DRAM bandwidth and throughput against the full-detail reference
// over the ladder's points.
func sampledErrors(ref []fullRef, got map[sampledPoint]machine.Results) (bwPct, tputPct float64) {
	n := 0
	for _, f := range ref {
		r, ok := got[f.sampledPoint]
		if !ok || f.MemBWGBps == 0 || f.ThroughputMrps == 0 {
			continue
		}
		bwPct += math.Abs(r.MemBWGBps-f.MemBWGBps) / f.MemBWGBps
		tputPct += math.Abs(r.ThroughputMrps-f.ThroughputMrps) / f.ThroughputMrps
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return 100 * bwPct / float64(n), 100 * tputPct / float64(n)
}

// rack4KVS builds a fresh 4-node KVS rack per run, as every rack user does.
func rack4KVS(sz sizes) *workload {
	var rr reruns
	cycles := float64(rackNodes) * float64(sz.rackWarmup+sz.rackMeasure)
	w := &workload{
		name:    "rack4-kvs",
		seeded:  true,
		threads: 1,
		params: map[string]any{
			"scenario": "kvs", "nodes": rackNodes, "topology": "star", "lb_policy": "flow-hash",
			"offered_mrps_per_node": rackNodeMrps, "warmup_cycles": sz.rackWarmup,
			"measure_cycles": sz.rackMeasure, "construction": "fresh cluster.New per run",
		},
		setupSeconds: medianSetup,
	}
	w.iterate = func(b *bench) {
		b.attempt("rack4-kvs run", func() error {
			b.resident = nil // the previous cluster is garbage, as for any user
			cfg := cluster.Config{
				Node:     kvsConfig(rackNodeMrps, b.seed, false),
				Nodes:    rackNodes,
				Topology: "star",
				LBPolicy: "flow-hash",
			}
			var cl *cluster.Cluster
			var err error
			b.span(spanSetup, func() { cl, err = cluster.New(cfg) })
			if err != nil {
				return err
			}
			var r cluster.Results
			b.span(spanRun, func() { r = cl.Run(sz.rackWarmup, sz.rackMeasure) })
			b.resident = cl
			b.cur.simCycles += cycles
			b.cur.counts.addCluster(cl, r)
			if err := checkCluster(cl, r); err != nil {
				return err
			}
			return rr.check("rack4-kvs", r)
		})
	}
	w.digest = rr.digest
	return w
}
