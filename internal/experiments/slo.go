package experiments

import (
	"fmt"

	"sweeper/internal/machine"
	"sweeper/internal/nic"
)

// sloApp is one server of the SLO-headroom study.
type sloApp struct {
	name string
	cfg  machine.Config
}

// sloApps are the servers the study sweeps: the Table I KVS and the §IV-B
// forwarder, both at 1024-deep rings.
func sloApps() []sloApp {
	return []sloApp{
		{"kvs", KVSConfig(1024, 1024)},
		{"l3fwd", L3FwdConfig(1024)},
	}
}

// sloArrivals are the arrival processes the curves contrast: memoryless
// Poisson against a bursty 2-state MMPP (8x on/off rate ratio, ~41us
// dwells at 3.2GHz). Trace replay shares the open-loop machinery and is
// exercised by the traffic smoke instead of a committed figure, which
// would pin a binary trace artifact into the golden set.
func sloArrivals() []struct {
	name string
	cfg  nic.ArrivalConfig
} {
	return []struct {
		name string
		cfg  nic.ArrivalConfig
	}{
		{"poisson", nic.ArrivalConfig{}},
		{"mmpp", nic.ArrivalConfig{
			Process:          nic.ArrivalMMPP,
			BurstRatio:       8,
			BurstDwellCycles: 131_072,
		}},
	}
}

// sloFractions ladder the offered load relative to each configuration's own
// SLO knee, from ample headroom through saturation and just past it.
var sloFractions = []float64{0.3, 0.5, 0.7, 0.85, 0.95, 1.05}

// SLOCurve reproduces the SLO-headroom study: for each server, arrival
// process and 2-way DDIO variant (with and without Sweeper), find the SLO
// knee with the peak search, then measure p99 and p99.9 request latency at
// fixed fractions of that knee. The curves show how much of its nominal
// capacity a server can use before tails blow through the SLO — and how
// much of that headroom burstiness eats.
func SLOCurve(sc Scale) []Table {
	type combo struct {
		app     int
		arrival string
		variant Variant
		cfg     machine.Config // variant already applied
		knee    PeakResult
	}
	var combos []combo
	for ai, app := range sloApps() {
		for _, arr := range sloArrivals() {
			base := app.cfg
			base.Arrival = arr.cfg
			for _, v := range ddioPairs(2) {
				combos = append(combos, combo{
					app: ai, arrival: arr.name, variant: v, cfg: v.Apply(base),
				})
			}
		}
	}
	parallelFor(len(combos), sc, func(i int) {
		combos[i].knee = PeakThroughput(combos[i].cfg, sc)
	})

	type sloJob struct {
		combo int
		frac  float64
		cell  Cell
	}
	var jobs []sloJob
	for ci := range combos {
		for _, f := range sloFractions {
			jobs = append(jobs, sloJob{combo: ci, frac: f})
		}
	}
	parallelFor(len(jobs), sc, func(i int) {
		j := &jobs[i]
		c := &combos[j.combo]
		rate := c.knee.PeakMrps * j.frac
		j.cell = sloCell(fmt.Sprintf("%.0f%% knee", j.frac*100),
			c.variant.Name+" / "+c.arrival, rate, c.knee, RunAtRate(c.cfg, rate, sc))
	})

	apps := sloApps()
	tables := make([]Table, len(apps))
	for i, app := range apps {
		tables[i] = Table{
			ID:     "slo_" + app.name,
			Title:  fmt.Sprintf("SLO headroom (%s): p99.9 latency vs offered load", app.name),
			Metric: "p999_cycles",
		}
	}
	for _, j := range jobs {
		tables[combos[j.combo].app].Cells = append(tables[combos[j.combo].app].Cells, j.cell)
	}
	return tables
}

// sloCell is one ladder point: the run's results at rate against its
// series' knee. Sampled runs do not estimate the p99.9 tail (their
// ReqLatP999 reads 0), so their cells leave p999_cycles out and the tables
// show it as missing rather than plotting a 0.
func sloCell(param, config string, rate float64, knee PeakResult, r machine.Results) Cell {
	cell := CellFromResults(param, config, r).
		WithExtra("offered_mrps", rate).
		WithExtra("knee_mrps", knee.PeakMrps).
		WithExtra("slo_cycles", float64(knee.SLOCycles)).
		WithExtra("p99_cycles", float64(r.ReqLatP99))
	if r.Sampled == nil {
		cell = cell.WithExtra("p999_cycles", float64(r.ReqLatP999))
	}
	return cell.WithExtra("drop_rate", r.DropRate)
}
