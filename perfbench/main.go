// Command perfbench is the repository benchmark: it runs one named workload
// against the simulator for a fixed host-time budget, checks every simulated
// output, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics) as one JSON object on the last line of standard output.
//
//	bash perfbench/run.sh --workload kvs-pooled --seed 3 --seconds 20 --trace 0
//
// It must run from the repository root: the fig2-quick check reads the
// committed goldens under results/, and the default-seed reference lives in
// perfbench/reference.json. See perfbench/README.md for the workloads, the
// metrics and how to read a traced run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

// defaultSeed is the seed the committed reference (digests and the sampled
// ladder's full-detail runs) was generated at.
const defaultSeed = 1

func main() {
	var (
		name     = flag.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed     = flag.Int64("seed", defaultSeed, "workload seed (fig2-quick is fixed by its goldens and ignores it)")
		seconds  = flag.Float64("seconds", 20, "host seconds to keep starting iterations")
		trace    = flag.Int("trace", 0, "1: traced run printing per-layer metrics")
		writeRef = flag.Bool("write-reference", false, "regenerate "+repoEnv.refPath+" at the default seed and exit")
	)
	flag.Parse()
	env := &repoEnv

	if *writeRef {
		if err := writeReference(env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	w, ok := workloadByName(*name, benchSizes())
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(env, w, options{seed: *seed, seconds: *seconds, traced: *trace == 1})
	if err != nil {
		// Set-up failures (missing goldens or reference, unbuildable
		// configuration) leave nothing to report.
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// env locates the benchmark's inputs in the checkout.
type env struct {
	refPath    string
	resultsDir string
}

// repoEnv is where they are relative to the repository root.
var repoEnv = env{refPath: "perfbench/reference.json", resultsDir: "results"}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hostFacts identifies the build, the host and the inputs of one output.
type hostFacts struct {
	Go         string         `json:"go"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Revision   string         `json:"revision"`
	Workload   string         `json:"workload"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Params     map[string]any `json:"params"`
}

func newHostFacts(w *workload, seed int64, seconds float64, traced bool) hostFacts {
	rev := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				rev = s.Value
			}
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.modified" && s.Value == "true" {
				rev += "+dirty"
			}
		}
	}
	return hostFacts{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Revision:   rev,
		Workload:   w.name,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
		Params:     w.params,
	}
}

// iteration is the host cost and simulated work of one pass over a
// workload's runs.
type iteration struct {
	wall, cpu  float64 // host seconds: elapsed, and process CPU
	setupWall  float64 // the same inside construction or Reset
	setupCPU   float64
	simCycles  float64
	allocBytes uint64
	mallocs    uint64
	gcs        uint64
	spans      map[string]float64
	counts     counts
	runs       int
	failed     int
	// scale is how much slower than the reference the host ran around the
	// iteration (see calib.go); host times over scale are reference times.
	scale float64
}

// bench is the state one workload's iterations share.
type bench struct {
	env    *env
	seed   int64
	traced bool // label profile samples with their span
	// regenerate marks a -write-reference pass, which computes what it
	// would otherwise read from the reference file.
	regenerate bool
	short      bool // see options
	// resident holds simulated state no pool keeps (the rack's latest
	// cluster) on the heap for the live-heap measurement.
	resident any
	ctx      context.Context
	cur      *iteration
}

// span times fn as the named phase of the current iteration and, in a
// traced run, labels its profile samples (and those of goroutines it
// starts) with the name.
func (b *bench) span(name string, fn func()) {
	t0, cpu0 := time.Now(), processCPU()
	if b.traced {
		pprof.Do(b.ctx, pprof.Labels("span", name), func(context.Context) { fn() })
	} else {
		fn()
	}
	d := time.Since(t0).Seconds()
	b.cur.spans[name] += d
	if name == spanSetup {
		b.cur.setupWall += d
		b.cur.setupCPU += processCPU() - cpu0
	}
}

// Span names. A span covers the calls into the program for one phase.
const (
	spanSetup   = "setup"   // machine/cluster construction or Reset, warm fill included
	spanWarm    = "warm"    // StartNode and the warm-up RunUntil
	spanMeasure = "measure" // BeginWindow, the measured RunUntil, EndWindow
	spanRun     = "run"     // a simulate call that cannot be split
	spanFigure  = "figure"  // experiments.Fig2
)

var spanNames = []string{spanSetup, spanWarm, spanMeasure, spanRun, spanFigure}

// minIterations is the fewest iterations a measurement makes after the
// warm-up, so that even fig2-quick's median has a middle value.
const minIterations = 3

// measureIterations runs whole iterations until the budget has elapsed
// (the last one may overrun) and returns their records. A panicking run
// counts as failed; the iteration goes on to the next run where it can.
// Untraced, the host is calibrated before the first iteration and after
// each one, and an iteration's scale is the mean of the two around it; a
// traced run leaves the calibration loop out of its profile.
func (b *bench) measureIterations(w *workload, budget float64, min int) []iteration {
	var iters []iteration
	start := time.Now()
	var before float64
	if !b.traced {
		before = calibrate(w.threads)
	}
	for len(iters) < min || time.Since(start).Seconds() < budget {
		it := b.oneIteration(w)
		if !b.traced {
			after := calibrate(w.threads)
			it.scale = (before + after) / 2
			before = after
		}
		iters = append(iters, it)
	}
	return iters
}

func (b *bench) oneIteration(w *workload) iteration {
	it := iteration{spans: map[string]float64{}}
	b.cur = &it
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := processCPU()
	t0 := time.Now()

	w.iterate(b)

	it.wall = time.Since(t0).Seconds()
	it.cpu = processCPU() - cpu0
	runtime.ReadMemStats(&ms1)
	it.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	it.mallocs = ms1.Mallocs - ms0.Mallocs
	it.gcs = uint64(ms1.NumGC - ms0.NumGC)
	b.cur = nil
	return it
}

// attempt runs one simulated run and its checks, counting it in the
// current iteration and converting a panic into a failure.
func (b *bench) attempt(label string, fn func() error) {
	b.cur.runs++
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("panic: %v", p)
			}
		}()
		return fn()
	}()
	if err != nil {
		b.cur.failed++
		fmt.Printf("# perfbench FAILED %s: %v\n", label, err)
	}
}

// processCPU returns user plus system CPU seconds of the process so far.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB returns the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// options select one run of a workload.
type options struct {
	seed    int64
	seconds float64
	traced  bool
	short   bool // test-sized windows: no golden or digest check
}

// run executes one workload end to end and assembles the result.
func run(e *env, w *workload, o options) (*result, error) {
	seed, seconds, traced := o.seed, o.seconds, o.traced
	if !w.seeded {
		seed = defaultSeed
	}
	facts := newHostFacts(w, seed, seconds, traced)
	hf, _ := json.Marshal(facts)
	fmt.Printf("# perfbench host %s\n", hf)

	b := &bench{env: e, seed: seed, short: o.short, ctx: context.Background()}
	if w.prepare != nil {
		if err := w.prepare(b); err != nil {
			return nil, err
		}
	}

	// The first iteration warms the process (pools, lazily built tables,
	// the heap) and counts for correctness only; the budget starts after it.
	warmup := b.oneIteration(w)
	var iters, tracedIters []iteration
	var prof *profile
	if !traced {
		iters = b.measureIterations(w, seconds, minIterations)
	} else {
		// Half the budget untraced, half traced: their wall-time medians
		// give the tracing overhead.
		iters = b.measureIterations(w, seconds/2, minIterations)
		var err error
		tracedIters, prof, err = b.profiled(w, seconds/2)
		if err != nil {
			return nil, err
		}
	}
	all := append(append([]iteration{warmup}, iters...), tracedIters...)

	// The live heap with the last iteration's machines (held by the pools)
	// or cluster (b.resident) still referenced: the memory the workload's
	// simulated state needs.
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	liveHeap := float64(ms.HeapAlloc)

	res := &result{Metrics: map[string]metric{}}
	for _, it := range all {
		res.Attempted += it.runs
		res.Failed += it.failed
	}
	if err := checkDigest(b, w.name, w.digest()); err != nil {
		res.Failed++
		res.Attempted++
		fmt.Printf("# perfbench FAILED %s: %v\n", w.name, err)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0

	printIterations(w.name, warmup, iters)
	e2e := endToEnd(w, iters, liveHeap)
	e2e["failed_share"] = metric{float64(res.Failed) / float64(res.Attempted), "ratio"}
	if w.extraE2E != nil {
		for k, v := range w.extraE2E() {
			e2e[k] = v
		}
	}
	printMetrics(w.name, e2e)
	if !traced {
		for _, m := range endToEndNames {
			res.Metrics[m] = e2e[m]
		}
		return res, nil
	}
	per, err := perLayer(w, iters, tracedIters, prof)
	if err != nil {
		return nil, err
	}
	printMetrics(w.name, per)
	for _, m := range perLayerNames {
		v, ok := per[m]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s not produced", m)
		}
		res.Metrics[m] = v
	}
	return res, nil
}

// endToEndNames are the metrics of an untraced run, in BENCHMARK.json order.
// Host time is taken as process CPU time, because on a shared host elapsed
// time also counts the stretches in which neighbours take the CPU, and at
// the reference speed (calib.go), because the host's own speed drifts. Over
// ten runs of each workload on a 2-vCPU VM, elapsed time spread by up to
// 0.23 of its median and raw CPU time by up to 0.30. The elapsed and raw
// CPU figures are printed alongside.
var endToEndNames = []string{"setup_s", "cpu_ref_s", "sim_mcycles_per_ref_s", "alloc_mb", "peak_heap_mb"}

func endToEnd(w *workload, iters []iteration, liveHeap float64) map[string]metric {
	pick := func(f func(it iteration) float64) float64 {
		vs := make([]float64, len(iters))
		for i, it := range iters {
			vs[i] = f(it)
		}
		return median(vs)
	}
	setupRef, setupCPU, setupWall := w.setupSeconds(iters)
	return map[string]metric{
		"setup_s":   {setupRef, "s"},
		"cpu_ref_s": {pick(func(it iteration) float64 { return it.cpu / it.scale }), "s"},
		"sim_mcycles_per_ref_s": {pick(func(it iteration) float64 {
			return it.simCycles / ((it.cpu - it.setupCPU) / it.scale) / 1e6
		}), "Mcycles/s"},
		"alloc_mb":     {pick(func(it iteration) float64 { return float64(it.allocBytes) / (1 << 20) }), "MB"},
		"peak_heap_mb": {liveHeap / (1 << 20), "MB"},

		"host_scale":   {pick(func(it iteration) float64 { return it.scale }), "ratio"},
		"cpu_s":        {pick(func(it iteration) float64 { return it.cpu }), "s"},
		"setup_cpu_s":  {setupCPU, "s"},
		"wall_s":       {pick(func(it iteration) float64 { return it.wall }), "s"},
		"setup_wall_s": {setupWall, "s"},
		"sim_mcycles_per_cpu_s": {pick(func(it iteration) float64 {
			return it.simCycles / (it.cpu - it.setupCPU) / 1e6
		}), "Mcycles/s"},
		"sim_mcycles_per_s": {pick(func(it iteration) float64 {
			return it.simCycles / (it.wall - it.setupWall) / 1e6
		}), "Mcycles/s"},
		// The resident high-water mark moves with garbage-collector timing
		// by up to a third between runs of the rack.
		"peak_rss_mb": {peakRSSMB(), "MB"},
	}
}

// printIterations records the per-iteration samples behind the medians.
func printIterations(workload string, warmup iteration, iters []iteration) {
	var wall, cpu, setup, scale []string
	for _, it := range iters {
		wall = append(wall, fmt.Sprintf("%.4f", it.wall))
		cpu = append(cpu, fmt.Sprintf("%.4f", it.cpu))
		setup = append(setup, fmt.Sprintf("%.4f", it.setupCPU))
		scale = append(scale, fmt.Sprintf("%.4f", it.scale))
	}
	fmt.Printf("# perfbench %s warm-up iteration wall_s=%.4f cpu_s=%.4f setup_cpu_s=%.4f alloc_mb=%.3f\n",
		workload, warmup.wall, warmup.cpu, warmup.setupCPU, float64(warmup.allocBytes)/(1<<20))
	fmt.Printf("# perfbench %s iterations=%d wall_s=[%s] cpu_s=[%s] setup_cpu_s=[%s] host_scale=[%s]\n", workload, len(iters),
		strings.Join(wall, " "), strings.Join(cpu, " "), strings.Join(setup, " "), strings.Join(scale, " "))
}

func printMetrics(workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("# perfbench %s %s = %.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
