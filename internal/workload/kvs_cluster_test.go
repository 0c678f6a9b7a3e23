package workload

import (
	"testing"

	"sweeper/internal/addr"
)

func clusterKVS(t *testing.T, nodes, nodeID int) *KVS {
	t.Helper()
	cfg := KVSConfig{
		Keys:          10_000,
		Buckets:       1 << 12,
		LogBytes:      16 << 20,
		ItemBytes:     1024,
		GetPercent:    5,
		ZipfTheta:     0.99,
		ComputeCycles: 300,
	}
	k := NewKVS(cfg)
	k.SetCluster(nodes, nodeID)
	k.Layout(testSpace())
	return k
}

// TestKVSClusterIdenticalLayout checks the sharding contract: every node's
// instance computes the same home and log location for every key from
// (nodes, key) alone, with identical base addresses.
func TestKVSClusterIdenticalLayout(t *testing.T) {
	insts := make([]*KVS, 4)
	for i := range insts {
		insts[i] = clusterKVS(t, 4, i)
	}
	ref := insts[0]
	for n, k := range insts[1:] {
		if k.logBase != ref.logBase || k.bucketsBase != ref.bucketsBase {
			t.Fatalf("node %d bases (%#x, %#x) differ from node 0 (%#x, %#x)",
				n+1, k.bucketsBase, k.logBase, ref.bucketsBase, ref.logBase)
		}
		for key := uint64(0); key < k.cfg.Keys; key++ {
			if got, want := k.state(key), ref.state(key); got != want {
				t.Fatalf("node %d key %d at (home %d, loc %#x), node 0 says (%d, %#x)",
					n+1, key, got.home, got.loc, want.home, want.loc)
			}
		}
	}
	for key := uint64(0); key < 8; key++ {
		if got := ref.state(key).home; got != uint8(key%4) {
			t.Fatalf("key %d homed on %d, want %d", key, got, key%4)
		}
	}
}

// TestKVSClusterGetAddresses checks a GET's item reads are local log lines
// for a locally homed key and addr.Remote references to the home's log
// lines otherwise; bucket probes stay local either way.
func TestKVSClusterGetAddresses(t *testing.T) {
	k := clusterKVS(t, 4, 1)
	var plan Plan
	var seenLocal, seenRemote bool
	for tag := uint64(0); tag < 2000; tag++ {
		isGet, key := k.DecodeOp(tag)
		if !isGet {
			continue
		}
		st := k.state(key)
		home := int(st.home)
		wantLoc := k.logBase + st.loc
		k.PlanRequest(tag, 64, &plan)
		if bucket := plan.Ops[0].Addr; addr.IsRemote(bucket) {
			t.Fatalf("bucket probe %#x is remote", bucket)
		}
		for i, op := range plan.Ops[1:] {
			a := op.Addr
			if home == 1 {
				seenLocal = true
				if addr.IsRemote(a) || a != wantLoc+uint64(i)*addr.LineBytes {
					t.Fatalf("local GET op %d addr %#x, want %#x", i, a, wantLoc+uint64(i)*addr.LineBytes)
				}
			} else {
				seenRemote = true
				if !addr.IsRemote(a) {
					t.Fatalf("remote GET op %d addr %#x not remote (key homed on %d)", i, a, home)
				}
				n, local := addr.RemoteParts(a)
				if n != home || local != wantLoc+uint64(i)*addr.LineBytes {
					t.Fatalf("remote GET op %d decodes to (%d, %#x), want (%d, %#x)",
						i, n, local, home, wantLoc+uint64(i)*addr.LineBytes)
				}
			}
		}
	}
	if !seenLocal || !seenRemote {
		t.Fatalf("GET sweep covered local=%v remote=%v; need both", seenLocal, seenRemote)
	}
}

// TestKVSClusterSetRehomesLocally checks a SET appends to the serving
// node's own log (local full-line writes, no fabric) and re-homes the key
// there, so a following GET on the same node is local.
func TestKVSClusterSetRehomesLocally(t *testing.T) {
	k := clusterKVS(t, 4, 2)
	var setTag uint64
	var key uint64
	for tag := uint64(0); ; tag++ {
		if isGet, kk := k.DecodeOp(tag); !isGet && k.state(kk).home != 2 {
			setTag, key = tag, kk
			break
		}
	}
	wantHead := k.logHeads[2]
	var plan Plan
	k.PlanRequest(setTag, 1024, &plan)
	for i, op := range plan.Ops {
		if addr.IsRemote(op.Addr) {
			t.Fatalf("SET op %d addr %#x crossed the fabric", i, op.Addr)
		}
	}
	if st := k.state(key); st.home != 2 || st.loc != wantHead {
		t.Fatalf("after SET key %d at (home %d, loc %#x), want (2, %#x)",
			key, st.home, st.loc, wantHead)
	}
	if got := k.itemAddr(key); addr.IsRemote(got) {
		t.Fatalf("re-homed key still reads remotely: %#x", got)
	}
}

// TestKVSStandaloneUnsharded locks that a store without SetCluster never
// allocates per-node cursors, homes every key on node 0 and never emits
// remote addresses.
func TestKVSStandaloneUnsharded(t *testing.T) {
	k := smallKVS(t)
	if k.logHeads != nil {
		t.Fatal("standalone store grew cluster state")
	}
	var plan Plan
	for tag := uint64(0); tag < 500; tag++ {
		if _, key := k.DecodeOp(tag); k.state(key).home != 0 {
			t.Fatalf("tag %d key %d homed on node %d", tag, key, k.state(key).home)
		}
		k.PlanRequest(tag, 1024, &plan)
		for i, op := range plan.Ops {
			if addr.IsRemote(op.Addr) {
				t.Fatalf("tag %d op %d emitted remote address %#x", tag, i, op.Addr)
			}
		}
	}
}
