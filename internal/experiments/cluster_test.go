package experiments

import (
	"bytes"
	"strings"
	"testing"

	"sweeper/internal/cluster"
)

// TestClusterCellOmitsUndefinedRemoteRate checks that a rack run that
// served nothing carries no remote-read rate, so its CSV field is empty,
// while a run that served requests carries RemoteReads/Served.
func TestClusterCellOmitsUndefinedRemoteRate(t *testing.T) {
	idle := clusterCell(4, "flow-hash", cluster.Results{RemoteReads: 5})
	if v, ok := idle.Extra["remote_per_req"]; ok {
		t.Fatalf("idle rack reports remote_per_req = %g", v)
	}
	busy := clusterCell(4, "flow-hash", cluster.Results{Served: 8, RemoteReads: 2})
	if v := busy.Extra["remote_per_req"]; v != 0.25 {
		t.Fatalf("remote_per_req = %g, want 0.25", v)
	}

	tbl := Table{ID: "cluster", Cells: []Cell{busy, idle}}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	col := -1
	for i, name := range strings.Split(lines[0], ",") {
		if name == "remote_per_req" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("no remote_per_req column in %q", lines[0])
	}
	if got := strings.Split(lines[1], ",")[col]; got != "0.2500" {
		t.Fatalf("busy rack remote_per_req field %q", got)
	}
	if got := strings.Split(lines[2], ",")[col]; got != "" {
		t.Fatalf("idle rack remote_per_req field %q, want empty", got)
	}
}
