package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// walkLayout is the O(Keys) pre-population walk the store's closed form
// replaces, kept as its oracle: keys are appended in key order, key i to
// the log of node i%nodes (the single log when nodes <= 1), each append
// taking the cursor's slot and advancing it around the circular log.
func walkLayout(cfg KVSConfig, nodes int) (st []keyState, logHead uint64, logHeads []uint64) {
	next := func(h uint64) uint64 {
		h += cfg.ItemBytes
		if h+cfg.ItemBytes > cfg.LogBytes {
			h = 0
		}
		return h
	}
	st = make([]keyState, cfg.Keys)
	if nodes <= 1 {
		for i := range st {
			st[i] = keyState{loc: logHead, ver: splitmix64(uint64(i))}
			logHead = next(logHead)
		}
		return st, logHead, nil
	}
	logHeads = make([]uint64, nodes)
	for i := range st {
		home := i % nodes
		st[i] = keyState{loc: logHeads[home], ver: splitmix64(uint64(i)), home: uint8(home)}
		logHeads[home] = next(logHeads[home])
	}
	return st, 0, logHeads
}

// checkAgainstWalk compares every key's state and every cursor of a freshly
// laid-out store with the walk.
func checkAgainstWalk(t *testing.T, k *KVS, nodes int) {
	t.Helper()
	want, head, heads := walkLayout(k.cfg, nodes)
	for key := range want {
		if got := k.state(uint64(key)); got != want[key] {
			t.Fatalf("key %d: closed form %+v, walk %+v", key, got, want[key])
		}
	}
	if k.logHead != head {
		t.Fatalf("log head %#x, walk %#x", k.logHead, head)
	}
	if !slices.Equal(k.logHeads, heads) {
		t.Fatalf("per-node log heads %v, walk %v", k.logHeads, heads)
	}
}

// layoutKVS builds and lays out a store; nodes 0 leaves it standalone.
func layoutKVS(cfg KVSConfig, nodes, nodeID int) *KVS {
	k := NewKVS(cfg)
	if nodes > 0 {
		k.SetCluster(nodes, nodeID)
	}
	k.Layout(testSpace())
	return k
}

// TestKVSClosedFormMatchesWalk checks the closed-form initial state against
// the walk over random geometries: logs that are not a whole number of
// items, logs smaller than the key count (wrapping many times) and larger
// (never wrapping), fewer keys than nodes, standalone stores and 1..8 nodes.
func TestKVSClosedFormMatchesWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		item := uint64(1+rng.Intn(16)) * 64
		cfg := KVSConfig{
			Keys:      uint64(1 + rng.Intn(3000)),
			Buckets:   64,
			ItemBytes: item,
			// From one item up to 4000 items, plus a remainder that is
			// often not a multiple of the item size.
			LogBytes:   item*uint64(1+rng.Intn(4000)) + uint64(rng.Intn(int(item))),
			GetPercent: 5,
			ZipfTheta:  0.99,
		}
		if trial%10 == 0 {
			cfg.Keys = uint64(1 + rng.Intn(7)) // fewer keys than most node counts
		}
		nodes := rng.Intn(9) // 0 is a standalone store
		t.Run(fmt.Sprintf("%d", trial), func(t *testing.T) {
			checkAgainstWalk(t, layoutKVS(cfg, nodes, rng.Intn(max(nodes, 1))), nodes)
		})
	}
}

// TestKVSClosedFormDefaultConfig checks the closed form against the walk at
// the paper's scale (2.4M keys, 256MB log), where 1KB items wrap the log.
func TestKVSClosedFormDefaultConfig(t *testing.T) {
	for _, item := range []uint64{512, 1024} {
		for _, nodes := range []int{0, 4} {
			checkAgainstWalk(t, layoutKVS(DefaultKVSConfig(item), nodes, 0), nodes)
		}
	}
}

// TestKVSRelayoutDropsWrites checks that Layout returns a store that has
// served SETs (which move keys, rewrite fingerprints and advance cursors)
// to exactly the walk's initial state.
func TestKVSRelayoutDropsWrites(t *testing.T) {
	for _, nodes := range []int{0, 3} {
		k := layoutKVS(KVSConfig{
			Keys: 5000, Buckets: 64, LogBytes: 1 << 20, ItemBytes: 512,
			GetPercent: 5, ZipfTheta: 0.99,
		}, nodes, 0)
		var plan Plan
		for tag := uint64(0); tag < 3000; tag++ {
			k.PlanRequest(tag, 512, &plan)
		}
		if len(k.written) == 0 {
			t.Fatal("no SET reached the written-key overlay")
		}
		k.Layout(testSpace())
		if len(k.written) != 0 {
			t.Fatalf("Layout kept %d written keys", len(k.written))
		}
		checkAgainstWalk(t, k, nodes)
	}
}
