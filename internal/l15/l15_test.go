package l15

import (
	"testing"
	"testing/quick"

	"l15cache/internal/bitmap"
	"l15cache/internal/mem"
)

// fakeL2 is a NextLevel with fixed latency that records accesses.
type fakeL2 struct {
	latency int
	reads   int
	writes  int
}

func (f *fakeL2) Access(pa mem.PhysAddr, write bool) int {
	if write {
		f.writes++
	} else {
		f.reads++
	}
	return f.latency
}

func newL15(t *testing.T) (*L15, *fakeL2) {
	t.Helper()
	l2 := &fakeL2{latency: 20}
	l, err := New(DefaultConfig(), l2)
	if err != nil {
		t.Fatal(err)
	}
	return l, l2
}

// settle runs the SDU until all demands are satisfied (or a bound).
func settle(l *L15) {
	for i := 0; i < 10*l.Config().Ways; i++ {
		l.Tick()
	}
}

func TestNewErrors(t *testing.T) {
	l2 := &fakeL2{}
	bad := []Config{
		{Ways: 0, WayBytes: 2048, LineBytes: 64, Cores: 4},
		{Ways: 16, WayBytes: 2048, LineBytes: 64, Cores: 0},
		{Ways: 12, WayBytes: 2048, LineBytes: 64, Cores: 4}, // non-power-of-two
	}
	for _, cfg := range bad {
		if _, err := New(cfg, l2); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if _, err := New(DefaultConfig(), nil); err == nil {
		t.Error("nil next level accepted")
	}
}

func TestDemandSupplyOneWayPerTick(t *testing.T) {
	l, _ := newL15(t)
	if err := l.Demand(0, 4); err != nil {
		t.Fatal(err)
	}
	// The Walloc configures exactly one way per tick.
	for i := 1; i <= 4; i++ {
		l.Tick()
		ways, err := l.Supply(0)
		if err != nil {
			t.Fatal(err)
		}
		if ways.Count() != i {
			t.Fatalf("after %d ticks: %d ways assigned", i, ways.Count())
		}
	}
	if l.Pending(0) {
		t.Error("demand still pending after 4 ticks")
	}
	if lat := l.ConfigLatency(0); lat != 4 {
		t.Errorf("config latency = %d, want 4", lat)
	}
	// Further ticks change nothing.
	l.Tick()
	ways, _ := l.Supply(0)
	if ways.Count() != 4 {
		t.Errorf("ways drifted to %d", ways.Count())
	}
}

func TestDemandShrink(t *testing.T) {
	l, _ := newL15(t)
	l.Demand(0, 6)
	settle(l)
	l.Demand(0, 2)
	settle(l)
	ways, _ := l.Supply(0)
	if ways.Count() != 2 {
		t.Errorf("ways = %d after shrink", ways.Count())
	}
	// Freed ways return to the pool and can serve another core.
	l.Demand(1, 10)
	settle(l)
	w1, _ := l.Supply(1)
	if w1.Count() != 10 {
		t.Errorf("core 1 got %d ways", w1.Count())
	}
	w0, _ := l.Supply(0)
	if !w0.Intersect(w1).IsEmpty() {
		t.Error("cores share way ownership")
	}
}

func TestDemandBestEffort(t *testing.T) {
	l, _ := newL15(t)
	l.Demand(0, 16)
	settle(l)
	l.Demand(1, 4) // nothing free: stays pending
	settle(l)
	if !l.Pending(1) {
		t.Error("unsatisfiable demand reported as served")
	}
	w, _ := l.Supply(1)
	if w.Count() != 0 {
		t.Errorf("core 1 has %d ways", w.Count())
	}
	// Releasing capacity lets the SDU finish the job.
	l.Demand(0, 8)
	settle(l)
	if l.Pending(1) {
		t.Error("demand still pending after capacity freed")
	}
}

func TestDemandErrors(t *testing.T) {
	l, _ := newL15(t)
	if err := l.Demand(9, 1); err == nil {
		t.Error("bad core accepted")
	}
	if err := l.Demand(0, 17); err == nil {
		t.Error("over-ζ demand accepted")
	}
	if err := l.Demand(0, -1); err == nil {
		t.Error("negative demand accepted")
	}
	if _, err := l.Supply(-1); err == nil {
		t.Error("bad core supply accepted")
	}
}

func TestGVRestrictedToOwnership(t *testing.T) {
	l, _ := newL15(t)
	l.Demand(0, 2)
	settle(l)
	own, _ := l.Supply(0)

	// Setting GV on ways the core does not own silently masks them out
	// (the gates physically cannot assert foreign bits).
	l.GVSet(0, bitmap.FirstN(16))
	gv, _ := l.GVGet(0)
	if gv != own {
		t.Errorf("gv = %v, want owned %v", gv, own)
	}
	l.GVSet(0, 0)
	gv, _ = l.GVGet(0)
	if !gv.IsEmpty() {
		t.Error("gv not cleared")
	}
}

func TestLoadHitOwnWay(t *testing.T) {
	l, l2 := newL15(t)
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16)) // all owned ways inclusive

	va, pa := uint32(0x1000), mem.PhysAddr(0x8000)
	// First store installs the line.
	if _, err := l.Store(0, va, pa); err != nil {
		t.Fatal(err)
	}
	res, err := l.Load(0, va, pa)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || res.Global {
		t.Errorf("expected local hit: %+v", res)
	}
	if res.Latency != l.Config().HitLat {
		t.Errorf("hit latency = %d", res.Latency)
	}
	if l2.reads != 0 {
		t.Errorf("hit went to L2 (%d reads)", l2.reads)
	}
}

func TestLoadMissGoesToL2(t *testing.T) {
	l, l2 := newL15(t)
	l.Demand(0, 2)
	settle(l)
	res, err := l.Load(0, 0x2000, 0x9000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Error("cold load hit")
	}
	if res.Latency != l.Config().HitLat+l2.latency {
		t.Errorf("miss latency = %d", res.Latency)
	}
	if l2.reads != 1 {
		t.Errorf("l2 reads = %d", l2.reads)
	}
	// The miss filled an owned way: the next load hits.
	res, _ = l.Load(0, 0x2000, 0x9000)
	if !res.Hit {
		t.Error("fill did not stick")
	}
}

func TestGlobalSharingSameTID(t *testing.T) {
	l, _ := newL15(t)
	l.SetTID(0, 7)
	l.SetTID(1, 7)
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))

	va, pa := uint32(0x3000), mem.PhysAddr(0xa000)
	l.Store(0, va, pa) // producer writes dependent data

	// Before gv_set, core 1 cannot see it.
	res, _ := l.Load(1, va, pa)
	if res.Hit {
		t.Error("core 1 saw data before gv_set")
	}
	// Producer publishes its ways.
	own, _ := l.Supply(0)
	l.GVSet(0, own)

	// Fresh line (the earlier miss may have filled core 1's ways — it
	// has none, so no fill happened).
	res, _ = l.Load(1, va, pa)
	if !res.Hit || !res.Global {
		t.Errorf("expected global hit: %+v", res)
	}
	if want := l.Config().HitLat + l.Config().GlobalLat; res.Latency != want {
		t.Errorf("global hit latency = %d, want %d", res.Latency, want)
	}
	if l.Stats[1].GlobalHits != 1 {
		t.Errorf("global hit not counted: %+v", l.Stats[1])
	}
}

func TestProtectorBlocksCrossTID(t *testing.T) {
	l, _ := newL15(t)
	l.SetTID(0, 7)
	l.SetTID(1, 8) // different application
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))

	va, pa := uint32(0x3000), mem.PhysAddr(0xa000)
	l.Store(0, va, pa)
	own, _ := l.Supply(0)
	l.GVSet(0, own)

	res, _ := l.Load(1, va, pa)
	if res.Hit {
		t.Error("protector let a different TID read the global way")
	}
	// Same TID restores visibility.
	l.SetTID(1, 7)
	res, _ = l.Load(1, va, pa)
	if !res.Hit {
		t.Error("same TID should see the global way")
	}
}

func TestGlobalWaysAreReadOnly(t *testing.T) {
	l, _ := newL15(t)
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))
	own, _ := l.Supply(0)
	l.GVSet(0, own) // all owned ways now global => read-only

	va, pa := uint32(0x4000), mem.PhysAddr(0xb000)
	res, err := l.Store(0, va, pa)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Error("store hit a read-only way")
	}
	// The line must not be resident afterwards.
	res, _ = l.Load(0, va, pa)
	if res.Hit {
		t.Error("bypassed store left a line behind")
	}
}

func TestNonInclusiveStoreBypasses(t *testing.T) {
	l, l2 := newL15(t)
	l.Demand(0, 2)
	settle(l)
	// No ip_set: ways stay non-inclusive (the default, §4.1).
	va, pa := uint32(0x5000), mem.PhysAddr(0xc000)
	l.Store(0, va, pa)
	if l2.writes != 1 {
		t.Errorf("bypassed store did not reach L2: %d writes", l2.writes)
	}
	res, _ := l.Load(0, va, pa)
	if res.Hit {
		t.Error("non-inclusive store filled the L1.5")
	}
}

func TestRevokedWayLosesContents(t *testing.T) {
	l, _ := newL15(t)
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))
	va, pa := uint32(0x6000), mem.PhysAddr(0xd000)
	l.Store(0, va, pa)

	// Shrinking to zero revokes (and invalidates) the ways.
	l.Demand(0, 0)
	settle(l)
	l.Demand(0, 2)
	settle(l)
	res, _ := l.Load(0, va, pa)
	if res.Hit {
		t.Error("line survived way revocation")
	}
	// The way moves were counted for the config_events counter.
	if l.configEvents == 0 {
		t.Error("no config events recorded")
	}
}

func TestOwnedWaysCount(t *testing.T) {
	l, _ := newL15(t)
	if l.OwnedWays() != 0 {
		t.Error("fresh cache has owners")
	}
	l.Demand(0, 3)
	l.Demand(1, 5)
	settle(l)
	if l.OwnedWays() != 8 {
		t.Errorf("OwnedWays = %d, want 8", l.OwnedWays())
	}
}

// Property: after any sequence of demands and ticks, way ownership is a
// partition — no way has two owners, OW bitmaps are disjoint, and the
// register bank agrees with the OW registers.
func TestQuickOwnershipPartition(t *testing.T) {
	f := func(demands []uint8) bool {
		l2 := &fakeL2{latency: 20}
		l, err := New(DefaultConfig(), l2)
		if err != nil {
			return false
		}
		for i, d := range demands {
			core := i % l.Config().Cores
			if l.Demand(core, int(d)%(l.Config().Ways+1)) != nil {
				return false
			}
			for t := 0; t < int(d)%7+1; t++ {
				l.Tick()
			}
		}
		var union bitmap.Bitmap
		total := 0
		for c := 0; c < l.Config().Cores; c++ {
			ow, _ := l.Supply(c)
			if !union.Intersect(ow).IsEmpty() {
				return false // overlap
			}
			union = union.Union(ow)
			total += ow.Count()
			// GV and IP must be subsets of OW.
			gv, _ := l.GVGet(c)
			if gv.Diff(ow) != 0 || l.IPGet(c).Diff(ow) != 0 {
				return false
			}
		}
		return total == l.OwnedWays() && total <= l.Config().Ways
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a load never reports a global hit on a way the core itself
// owns, and latencies are always within [HitLat, HitLat+GlobalLat+L2].
func TestQuickLatencyBounds(t *testing.T) {
	f := func(ops []uint16) bool {
		l2 := &fakeL2{latency: 20}
		l, err := New(DefaultConfig(), l2)
		if err != nil {
			return false
		}
		l.Demand(0, 4)
		l.Demand(1, 4)
		settle(l)
		l.IPSet(0, bitmap.FirstN(16))
		l.IPSet(1, bitmap.FirstN(16))
		own0, _ := l.Supply(0)
		l.GVSet(0, own0)
		min := l.Config().HitLat
		max := l.Config().HitLat + l.Config().GlobalLat + l2.latency
		for _, op := range ops {
			core := int(op>>14) % 2
			va := uint32(op) * 64
			pa := mem.PhysAddr(va + 0x10000)
			var res AccessResult
			if op%3 == 0 {
				res, err = l.Store(core, va, pa)
			} else {
				res, err = l.Load(core, va, pa)
			}
			if err != nil {
				return false
			}
			if res.Latency < min || res.Latency > max {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestWriteBackMode(t *testing.T) {
	l2 := &fakeL2{latency: 20}
	cfg := DefaultConfig()
	cfg.WriteBack = true
	l, err := New(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))

	// Stores settle in the L1.5: no downstream writes.
	for i := 0; i < 8; i++ {
		va := uint32(0x1000 + 64*i)
		if _, err := l.Store(0, va, mem.PhysAddr(va)); err != nil {
			t.Fatal(err)
		}
	}
	if l2.writes != 0 {
		t.Errorf("write-back mode posted %d writes on store", l2.writes)
	}

	// Revoking the ways drains the dirty lines.
	l.Demand(0, 0)
	settle(l)
	if l.WritebackLines == 0 {
		t.Error("revocation drained no dirty lines")
	}
	if l2.writes == 0 {
		t.Error("drained lines never reached the next level")
	}
}

func TestWriteBackEvictionDrains(t *testing.T) {
	l2 := &fakeL2{latency: 20}
	cfg := DefaultConfig()
	cfg.WriteBack = true
	l, err := New(cfg, l2)
	if err != nil {
		t.Fatal(err)
	}
	l.Demand(0, 1) // a single way: 32 sets of one line each
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))

	// Two writes mapping to the same set but different tags: the second
	// evicts the first's dirty line.
	way := cfg.WayBytes * cfg.Ways // one full wrap of the set index space
	l.Store(0, 0x0, 0x0)
	l.Store(0, uint32(way), mem.PhysAddr(way))
	if l.WritebackLines == 0 {
		t.Error("dirty eviction did not write back")
	}
}

func TestWriteThroughHasNoWritebacks(t *testing.T) {
	l, l2 := newL15(t)
	l.Demand(0, 2)
	settle(l)
	l.IPSet(0, bitmap.FirstN(16))
	l.Store(0, 0x1000, 0x1000)
	if l2.writes != 1 {
		t.Errorf("write-through posted %d writes, want 1", l2.writes)
	}
	l.Demand(0, 0)
	settle(l)
	if l.WritebackLines != 0 {
		t.Error("write-through mode drained dirty lines")
	}
}
