package machine

import (
	"testing"

	"sweeper/internal/addr"
	"sweeper/internal/cache"
	"sweeper/internal/nic"
)

// warmLLCInsert is warmLLC as it was before SetAssoc.Fill existed: the same
// warm addresses and dirty mix, each line through an unrestricted Insert
// and its full victim scan. It is the reference the scan-free fill must
// reproduce exactly.
func warmLLCInsert(dp *datapath, cfg Config) {
	llcLines := uint64(dp.hier.LLC().Sets() * dp.hier.LLC().Ways())
	l2 := dp.hier.L2(0)
	l2LinesTotal := uint64(l2.Sets()*l2.Ways()) * uint64(cfg.NetCores+cfg.XMemCores)
	base := dp.space.AllocApp((llcLines + 2*l2LinesTotal) * addr.LineBytes)
	var llcDirty10, l2CleanFrac2 int
	aliasClean := false
	switch cfg.NICMode {
	case nic.ModeIdeal:
		llcDirty10, l2CleanFrac2 = 9, 0
	case nic.ModeDMA:
		llcDirty10, l2CleanFrac2 = 5, 1
	default:
		llcDirty10, l2CleanFrac2 = 9, 1
		aliasClean = true
	}

	llc := dp.hier.LLC()
	mask := cache.MaskAll(llc.Ways())
	nLines := uint64(llc.Sets() * llc.Ways())
	for k := uint64(0); k < nLines; k++ {
		llc.Insert(base+k*addr.LineBytes, int(k%10) < llcDirty10, mask)
	}
	total := cfg.NetCores + cfg.XMemCores
	l2Base := base + nLines*addr.LineBytes
	cleanBase := l2Base
	if aliasClean {
		cleanBase = base
	}
	for c := 0; c < total; c++ {
		l2 := dp.hier.L2(c)
		l2Mask := cache.MaskAll(l2.Ways())
		l2Lines := uint64(l2.Sets() * l2.Ways())
		dirtyOff := l2Base + uint64(c)*2*l2Lines*addr.LineBytes
		cleanOff := cleanBase + (uint64(c)*2+1)*l2Lines*addr.LineBytes
		if aliasClean {
			cleanOff = cleanBase + uint64(c)*l2Lines/2*addr.LineBytes
		}
		for k := uint64(0); k < l2Lines; k++ {
			if l2CleanFrac2 == 1 && k%2 == 1 {
				l2.Insert(cleanOff+k/2*addr.LineBytes, false, l2Mask)
			} else {
				l2.Insert(dirtyOff+k*addr.LineBytes, true, l2Mask)
			}
		}
	}
}

// withInsertWarm runs f with configure's warm fill replaced by the Insert
// reference. Callers must not run in parallel with other tests.
func withInsertWarm(f func()) {
	warmCaches = warmLLCInsert
	defer func() { warmCaches = (*datapath).warmLLC }()
	f()
}

// sameWarmCaches fails t unless the LLC and every private L2 of a and b
// hold the same state, LRU stamps and filters included.
func sameWarmCaches(t *testing.T, what string, a, b *Machine) {
	t.Helper()
	if !a.dp.hier.LLC().SameState(b.dp.hier.LLC()) {
		t.Errorf("%s: LLC differs from the Insert-warmed reference", what)
	}
	for c := 0; c < a.cfg.NetCores+a.cfg.XMemCores; c++ {
		if !a.dp.hier.L2(c).SameState(b.dp.hier.L2(c)) {
			t.Errorf("%s: L2 of core %d differs from the Insert-warmed reference", what, c)
		}
	}
}

// TestWarmFillMatchesInsertLoop checks the scan-free warm fill against the
// Insert loop it replaced, on whole machines: for DDIO, DMA and Ideal-DDIO,
// in detailed and sampled configurations (sampled ones install workload
// content on top of the fill), after New and after a pooled Reset that
// follows an unrelated run. Not parallel: it swaps the package's warm fill.
func TestWarmFillMatchesInsertLoop(t *testing.T) {
	for _, mode := range []nic.Mode{nic.ModeDDIO, nic.ModeDMA, nic.ModeIdeal} {
		for _, sampled := range []bool{false, true} {
			cfg := quickCfg()
			cfg.NICMode = mode
			name := mode.String() + "/detailed"
			if sampled {
				cfg.Sampling.Mode = samplingModeFixed
				name = mode.String() + "/sampled"
			}
			t.Run(name, func(t *testing.T) {
				var ref, pooledRef *Machine
				prior := dirtyVariant(cfg)
				withInsertWarm(func() {
					ref = MustNew(cfg)
					pooledRef = MustNew(prior)
					pooledRef.Run(50_000, 50_000)
					if err := pooledRef.Reset(cfg); err != nil {
						t.Fatal(err)
					}
				})
				sameWarmCaches(t, "New", MustNew(cfg), ref)

				pooled := MustNew(prior)
				pooled.Run(50_000, 50_000)
				if err := pooled.Reset(cfg); err != nil {
					t.Fatal(err)
				}
				sameWarmCaches(t, "pooled Reset", pooled, pooledRef)
			})
		}
	}
}
