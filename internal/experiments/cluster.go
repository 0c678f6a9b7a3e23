package experiments

import (
	"fmt"

	"sweeper/internal/cluster"
)

// clusterOfferedMrps is the per-node offered load of the rack study: well
// below a Table I server's saturation point, so throughput scales with node
// count and the interesting signal is what the fabric and the sharded log
// add on top.
const clusterOfferedMrps = 8

// ClusterScaling runs the rack-scale study: the Table I KVS with its log
// sharded across 1/2/4 nodes behind the flow-hash balancer, plus the other
// balancing policies at the full rack size. One table: throughput and
// memory bandwidth are rack-wide sums; extras carry the remote-read rate,
// the rack's worst p99 and the fabric's delivered messages.
func ClusterScaling(sc Scale) []Table {
	type cjob struct {
		nodes  int
		policy string
		res    cluster.Results
	}
	jobs := []cjob{
		{nodes: 1, policy: "flow-hash"},
		{nodes: 2, policy: "flow-hash"},
		{nodes: 4, policy: "flow-hash"},
		{nodes: 4, policy: "round-robin"},
		{nodes: 4, policy: "least-loaded"},
	}
	parallelFor(len(jobs), sc, func(i int) {
		j := &jobs[i]
		cfg := cluster.Config{Node: KVSConfig(1024, 1024), Nodes: j.nodes, LBPolicy: j.policy}
		cfg.Node.OfferedMrps = clusterOfferedMrps
		j.res = cluster.MustNew(cfg).Run(sc.Warmup, sc.Measure)
	})

	t := Table{
		ID:     "cluster",
		Title:  "KVS rack scaling: sharded log over the fabric",
		Metric: "mrps",
	}
	for _, j := range jobs {
		t.Cells = append(t.Cells, clusterCell(j.nodes, j.policy, j.res))
	}
	return []Table{t}
}

// clusterCell builds the cell of one rack run. The remote-read rate is
// undefined when the rack served no request, so its extra is then left out
// and WriteCSV emits an empty field rather than an invented 0.
func clusterCell(nodes int, policy string, r cluster.Results) Cell {
	cell := Cell{
		Param:  fmt.Sprintf("%d nodes", nodes),
		Config: policy,
		Mrps:   r.ThroughputMrps,
		GBps:   r.MemBWGBps,
	}
	if r.Served > 0 {
		cell = cell.WithExtra("remote_per_req", float64(r.RemoteReads)/float64(r.Served))
	}
	return cell.WithExtra("p99_req", float64(r.ReqLatP99Max)).
		WithExtra("drop_rate", r.DropRate).
		WithExtra("fabric_msgs", float64(r.Fabric.Messages))
}
