package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"sweeper/internal/machine"
)

// raceEnabled is set by race_on_test.go.
var raceEnabled bool

// The tests run from perfbench/; the benchmark's inputs sit one level up.
func testEnv() *env {
	return &env{refPath: "reference.json", resultsDir: filepath.Join("..", "results")}
}

// quiet silences the benchmark's report lines for the duration of a test.
func quiet(t *testing.T) {
	t.Helper()
	null, err := os.Open(os.DevNull)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = null
	t.Cleanup(func() {
		os.Stdout = saved
		null.Close()
	})
}

// TestShortModeEmitsEveryMetric runs every workload at test size, untraced
// and traced, and requires every metric BENCHMARK.json names.
func TestShortModeEmitsEveryMetric(t *testing.T) {
	quiet(t)
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			w, _ := workloadByName(name, shortSizes())
			res, err := run(testEnv(), w, options{seed: 7, seconds: 0.01, traced: traced, short: true})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEndNames
			if traced {
				want = perLayerNames
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := res.Metrics[m]
				if !ok || v.Unit == "" || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v, present %v", name, traced, m, v, ok)
				}
			}
		}
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and metric
// lists in step with what the command emits.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("workloads %v, command has %v", names, workloadNames())
	}
	names = nil
	for _, m := range spec.EndToEnd {
		names = append(names, m.Name)
	}
	if !reflect.DeepEqual(names, endToEndNames) {
		t.Errorf("end_to_end %v, command emits %v", names, endToEndNames)
	}
	if len(spec.PerLayer) != len(perLayerSpec) {
		t.Fatalf("per_layer has %d metrics, command emits %d", len(spec.PerLayer), len(perLayerSpec))
	}
	for i, m := range spec.PerLayer {
		s := perLayerSpec[i]
		if m.Name != s.name || m.Unit != s.unit || m.Better != s.better {
			t.Errorf("per_layer[%d] = %+v, command has %+v", i, m, s)
		}
	}
}

// TestGoldenCheckFiresOnPerturbedRow perturbs one row of a committed
// golden: the regenerated (here: committed) tables must then fail.
func TestGoldenCheckFiresOnPerturbedRow(t *testing.T) {
	golden, err := loadGoldens(testEnv().resultsDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := compareGoldens(golden, golden); err != nil {
		t.Fatalf("identical tables rejected: %v", err)
	}
	bad := map[string][]byte{}
	for k, v := range golden {
		bad[k] = v
	}
	lines := bytes.Split(golden["fig2b.csv"], []byte("\n"))
	lines[3] = bytes.Replace(lines[3], []byte("."), []byte("9."), 1)
	bad["fig2b.csv"] = bytes.Join(lines, []byte("\n"))
	err = compareGoldens(golden, bad)
	if err == nil || !strings.Contains(err.Error(), "fig2b.csv differs from the golden at line 4") {
		t.Fatalf("perturbed golden row: err = %v", err)
	}
	delete(bad, "fig2b.csv")
	if err := compareGoldens(bad, golden); err == nil {
		t.Fatal("missing table accepted")
	}
}

// TestDigestCheckFiresOnPerturbedDigest runs kvs-pooled once at the default
// seed: its digest must match the committed reference, and a reference with
// one digit changed must fail the run.
func TestDigestCheckFiresOnPerturbedDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("one full-size kvs-pooled run")
	}
	quiet(t)
	ref, err := loadReference(testEnv().refPath)
	if err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("kvs-pooled", benchSizes())
	res, err := run(testEnv(), w, options{seed: defaultSeed, seconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("default-seed run against the committed reference: %+v", res)
	}

	d := []byte(ref.Digests["kvs-pooled"])
	if d[0] == '0' {
		d[0] = '1'
	} else {
		d[0] = '0'
	}
	ref.Digests["kvs-pooled"] = string(d)
	bad := filepath.Join(t.TempDir(), "reference.json")
	data, _ := json.Marshal(ref)
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, _ = workloadByName("kvs-pooled", benchSizes())
	res, err = run(&env{refPath: bad, resultsDir: testEnv().resultsDir}, w, options{seed: defaultSeed, seconds: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 {
		t.Fatalf("perturbed digest: correct=%v failed=%d", res.Correct, res.Failed)
	}
}

// TestRerunCheckFiresOnDivergence feeds the rerun check a result that
// differs in one counter.
func TestRerunCheckFiresOnDivergence(t *testing.T) {
	var rr reruns
	r := machine.Results{Served: 10, MemBWGBps: 1.5}
	if err := rr.check("x", r); err != nil {
		t.Fatal(err)
	}
	if err := rr.check("x", r); err != nil {
		t.Fatalf("identical rerun rejected: %v", err)
	}
	d := rr.digest()
	r.Served++
	if err := rr.check("x", r); err == nil {
		t.Fatal("diverged rerun accepted")
	}
	if rr.digest() != d {
		t.Fatal("digest must cover the first run only")
	}
}

// TestSplitWindowMatchesRun pins that kvs-pooled's StartNode/BeginWindow/
// EndWindow split simulates exactly what Machine.Run does.
func TestSplitWindowMatchesRun(t *testing.T) {
	sz := shortSizes()
	cfg := kvsConfig(pooledMrps, 5, true)
	whole := machine.MustNew(cfg).Run(sz.pooledWarmup, sz.pooledMeasure)

	m := machine.MustNew(cfg)
	m.StartNode(sz.pooledWarmup, sz.pooledMeasure, nil)
	m.Engine().RunUntil(sz.pooledWarmup)
	m.BeginWindow()
	m.Engine().RunUntil(sz.pooledWarmup + sz.pooledMeasure)
	split := m.EndWindow(sz.pooledMeasure)
	if !reflect.DeepEqual(whole, split) {
		t.Fatalf("split window diverged from Run:\n%+v\n%+v", whole, split)
	}
}

// TestSelfTimesSumToProfileTotal profiles a short labelled run and checks
// that the layers partition the profile exactly, with the simulator's own
// layers holding most of it.
func TestSelfTimesSumToProfileTotal(t *testing.T) {
	quiet(t)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	w, _ := workloadByName("kvs-pooled", shortSizes())
	b := &bench{env: testEnv(), seed: 3, short: true, traced: true, ctx: context.Background()}
	b.measureIterations(w, 1.0, 1)
	pprof.StopCPUProfile()

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(p.samples) == 0 {
		t.Fatal("empty profile")
	}
	for _, span := range []string{"", spanSetup} {
		self, total := p.selfTimes(span)
		var sum float64
		for _, v := range self {
			sum += v
		}
		if math.Abs(sum-total) > 1e-9 {
			t.Errorf("span %q: layers sum to %v, profile total %v", span, sum, total)
		}
	}
	self, total := p.selfTimes("")
	if self["cache"] <= 0 {
		t.Errorf("no cache self time in %v", self)
	}
	if other := self[layerOther]; other > 0.25*total && !raceEnabled {
		t.Errorf("other holds %.0f%% of the profile: %v", 100*other/total, self)
	}
	labelled := 0
	for _, s := range p.samples {
		if s.span != "" {
			labelled++
		}
	}
	if labelled == 0 {
		t.Error("no sample carries a span label")
	}
}

// TestLayerAttribution pins the attribution rules on synthetic stacks.
func TestLayerAttribution(t *testing.T) {
	cases := []struct {
		stack []string
		want  string
	}{
		{[]string{"sweeper/internal/cache.(*SetAssoc).Insert", "sweeper/internal/machine.(*datapath).warmLLC"}, "cache"},
		{[]string{"runtime.memclrNoHeapPointers", "sweeper/internal/cache.(*SetAssoc).Reset"}, "cache"},
		{[]string{"sweeper/internal/fastdiv.Divisor.Mod", "sweeper/internal/mem.(*DDR4).Read"}, "mem"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, layerGC},
		{[]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "sweeper/internal/cluster.New"}, layerGC},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, layerOther},
		{[]string{"main.(*bench).oneIteration"}, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("layerOf(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}
