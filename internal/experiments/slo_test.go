package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/machine"
)

// TestSLOCurveShape runs the SLO-headroom harness at tiny scale and checks
// the structural contract the committed slo_*.csv files rely on: one table
// per server, every (arrival, variant, fraction) cell present with the
// latency extras, a positive knee for every combo, and tails that actually
// blow up past the knee.
func TestSLOCurveShape(t *testing.T) {
	if testing.Short() {
		t.Skip("8 peak searches + 48 rate points; skipped with -short")
	}
	tables := SLOCurve(tinyScale())
	if len(tables) != 2 || tables[0].ID != "slo_kvs" || tables[1].ID != "slo_l3fwd" {
		t.Fatalf("tables = %v", []string{tables[0].ID, tables[1].ID})
	}
	for _, tb := range tables {
		wantCells := len(sloArrivals()) * 2 * len(sloFractions)
		if len(tb.Cells) != wantCells {
			t.Fatalf("%s has %d cells, want %d", tb.ID, len(tb.Cells), wantCells)
		}
		if tb.Metric != "p999_cycles" {
			t.Errorf("%s metric %q", tb.ID, tb.Metric)
		}
		configs := tb.Configs()
		if len(configs) != len(sloArrivals())*2 {
			t.Fatalf("%s has %d series, want %d", tb.ID, len(configs), len(sloArrivals())*2)
		}
		for _, c := range tb.Cells {
			for _, key := range []string{"offered_mrps", "knee_mrps", "slo_cycles", "p99_cycles", "p999_cycles", "drop_rate"} {
				if _, ok := c.Extra[key]; !ok {
					t.Fatalf("%s cell (%s, %s) missing extra %q", tb.ID, c.Param, c.Config, key)
				}
			}
			if c.Extra["knee_mrps"] <= 0 {
				t.Errorf("%s series %s found no saturation knee", tb.ID, c.Config)
			}
			if c.Extra["p999_cycles"] < c.Extra["p99_cycles"] {
				t.Errorf("%s cell (%s, %s): p99.9 %g below p99 %g",
					tb.ID, c.Param, c.Config, c.Extra["p999_cycles"], c.Extra["p99_cycles"])
			}
		}
		// The headroom story: past the knee the p99.9 tail must be far
		// above the deep-headroom point on every series.
		for _, cf := range configs {
			low, okLow := tb.Find("30% knee", cf)
			high, okHigh := tb.Find("105% knee", cf)
			if !okLow || !okHigh {
				t.Fatalf("%s series %s missing ladder endpoints", tb.ID, cf)
			}
			if high.Extra["p999_cycles"] <= low.Extra["p999_cycles"] {
				t.Errorf("%s series %s: p99.9 at 105%% of knee (%g) not above 30%% (%g)",
					tb.ID, cf, high.Extra["p999_cycles"], low.Extra["p999_cycles"])
			}
		}
	}
}

// TestSLOCellOmitsSampledTail checks that a sampled run, which does not
// estimate p99.9, leaves p999_cycles out of its ladder cell (an empty CSV
// field, "-" in the table) instead of plotting its 0, while a detailed run
// reports its tail.
func TestSLOCellOmitsSampledTail(t *testing.T) {
	knee := PeakResult{PeakMrps: 20, SLOCycles: 5000}
	full := sloCell("50% knee", "ddio", 10, knee, machine.Results{ReqLatP99: 900, ReqLatP999: 2112})
	if v, ok := full.Extra["p999_cycles"]; !ok || v != 2112 {
		t.Fatalf("detailed cell p999_cycles = %g (present %v), want 2112", v, ok)
	}
	sampled := sloCell("50% knee", "ddio", 10, knee,
		machine.Results{ReqLatP99: 900, Sampled: &machine.SamplingSummary{Mode: "fixed"}})
	if v, ok := sampled.Extra["p999_cycles"]; ok {
		t.Fatalf("sampled cell reports p999_cycles = %g", v)
	}
	if v := sampled.Extra["p99_cycles"]; v != 900 {
		t.Errorf("sampled cell p99_cycles = %g, want 900", v)
	}

	tbl := Table{ID: "slo_kvs", Metric: "p999_cycles", Cells: []Cell{full, sampled}}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	col := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "p999_cycles" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no p999_cycles column in %q", lines[0])
	}
	if got := strings.Split(lines[2], ",")[col]; got != "" {
		t.Errorf("sampled p999_cycles field %q, want empty", got)
	}
	if got := formatMetric(sampled, "p999_cycles"); got != "-" {
		t.Errorf("sampled p999_cycles renders %q, want -", got)
	}
}
