package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l15cache/internal/bitmap"
)

func mustNew(t *testing.T, total, ways, line, lat int) *Cache {
	t.Helper()
	c, err := New(total, ways, line, lat)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewErrors(t *testing.T) {
	cases := []struct{ total, ways, line, lat int }{
		{4096, 3, 64, 1},  // non-power-of-two ways
		{4096, 0, 64, 1},  // zero ways
		{4096, 2, 48, 1},  // non-power-of-two line
		{4000, 2, 64, 1},  // capacity not divisible
		{4096, 2, 64, -1}, // negative latency
		{6144, 2, 64, 1},  // sets = 48, not a power of two
		{4096, 128, 64, 1},
	}
	for _, c := range cases {
		if _, err := New(c.total, c.ways, c.line, c.lat); err == nil {
			t.Errorf("New(%v) accepted", c)
		}
	}
}

func TestGeometry(t *testing.T) {
	c := mustNew(t, 4096, 2, 64, 1) // 4KB, 2-way, 64B lines => 32 sets
	if c.Sets() != 32 || c.Ways() != 2 || c.LineBytes() != 64 || c.HitLatency() != 1 {
		t.Errorf("geometry: %d sets, %d ways", c.Sets(), c.Ways())
	}
	set, tag := c.Split(0)
	if set != 0 || tag != 0 {
		t.Errorf("Split(0) = %d,%d", set, tag)
	}
	// Address 64 is the next line: set 1, same tag.
	set, tag = c.Split(64)
	if set != 1 || tag != 0 {
		t.Errorf("Split(64) = %d,%d", set, tag)
	}
	// Address 32*64 wraps to set 0, tag 1.
	set, tag = c.Split(32 * 64)
	if set != 0 || tag != 1 {
		t.Errorf("Split(2048) = %d,%d", set, tag)
	}
}

func TestHitMiss(t *testing.T) {
	c := mustNew(t, 4096, 2, 64, 1)
	all := c.AllWays()
	set, tag := c.Split(0x100)

	if c.Holds(0x100) {
		t.Error("cold cache holds the line")
	}
	res := c.Access(set, tag, false, all)
	if res.Hit {
		t.Error("cold access hit")
	}
	res = c.Access(set, tag, false, all)
	if !res.Hit {
		t.Error("second access missed")
	}
	if !c.Holds(0x13f) || c.Holds(0x140) {
		t.Error("Holds disagrees with the filled line")
	}
	if c.Stats.Hits != 1 || c.Stats.Misses != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestEvictionAndWriteback(t *testing.T) {
	c := mustNew(t, 4096, 2, 64, 1) // 2 ways per set
	all := c.AllWays()
	set := 0
	// Fill both ways of set 0, the second with a write (dirty).
	c.Access(set, 1, false, all)
	c.Access(set, 2, true, all)
	// Third tag evicts the LRU line (tag 1, clean).
	res := c.Access(set, 3, false, all)
	if !res.Evicted || res.Writeback {
		t.Errorf("expected clean eviction: %+v", res)
	}
	// Tag 2 (dirty) is now LRU; another fill must write back.
	res = c.Access(set, 4, false, all)
	if !res.Evicted || !res.Writeback {
		t.Errorf("expected dirty writeback: %+v", res)
	}
	if c.Stats.Evictions != 2 || c.Stats.Writebacks != 1 {
		t.Errorf("stats = %+v", c.Stats)
	}
}

func TestPLRUOrdering(t *testing.T) {
	c := mustNew(t, 16*64, 4, 64, 1) // 4 ways, 4 sets
	all := c.AllWays()
	set := 0
	// Fill ways with tags 1..4, touch 1 again, then insert 5: the victim
	// must not be tag 1 (recently used).
	for tag := uint32(1); tag <= 4; tag++ {
		c.Access(set, tag, false, all)
	}
	if res := c.Access(set, 1, false, all); !res.Hit {
		t.Fatal("tag 1 should still be resident")
	}
	c.Access(set, 5, false, all)
	if res := c.Access(set, 1, false, all); !res.Hit {
		t.Error("PLRU evicted the most recently used line")
	}
}

func TestMaskedAccess(t *testing.T) {
	c := mustNew(t, 16*64, 4, 64, 1)
	owned := bitmap.FromWays(1, 2)
	set := 0

	// Fills restricted to ways 1 and 2.
	for tag := uint32(1); tag <= 3; tag++ {
		res := c.Access(set, tag, false, owned)
		if res.Way != 1 && res.Way != 2 {
			t.Errorf("fill landed in way %d outside mask", res.Way)
		}
	}
	// A line cached in way 1 must be invisible through a disjoint mask.
	c.Access(set, 10, false, bitmap.FromWays(1))
	if w := c.Probe(set, 10, bitmap.FromWays(0, 3)); w != -1 {
		t.Errorf("probe through disjoint mask found way %d", w)
	}
	if w := c.Probe(set, 10, bitmap.FromWays(1)); w != 1 {
		t.Errorf("probe through owning mask = %d", w)
	}
	// Empty mask: miss, no fill.
	res := c.Access(set, 99, false, 0)
	if res.Hit || res.Way != -1 {
		t.Errorf("empty-mask access = %+v", res)
	}
}

func TestInvalidateWay(t *testing.T) {
	c := mustNew(t, 16*64, 4, 64, 1)
	all := c.AllWays()
	for s := 0; s < 4; s++ {
		c.Access(s, 7, false, bitmap.FromWays(2))
	}
	if n := c.InvalidateWay(2); n != 4 {
		t.Errorf("invalidated %d lines, want 4", n)
	}
	if w := c.Probe(0, 7, all); w != -1 {
		t.Error("line survived way invalidation")
	}
	if n := c.InvalidateWay(99); n != 0 {
		t.Errorf("out-of-range way invalidated %d lines", n)
	}
}

func TestInvalidateAll(t *testing.T) {
	c := mustNew(t, 16*64, 4, 64, 1)
	all := c.AllWays()
	c.Access(0, 1, true, all)
	c.InvalidateAll()
	if res := c.Access(0, 1, false, all); res.Hit {
		t.Error("line survived full invalidation")
	}
}

// Property: with an all-ways mask, a working set no larger than the
// associativity of one set never evicts itself (PLRU keeps it resident).
func TestQuickResidentWorkingSet(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(64*64, 4, 64, 1)
		if err != nil {
			return false
		}
		all := c.AllWays()
		set := r.Intn(c.Sets())
		tags := []uint32{10, 20, 30, 40}
		for _, tag := range tags {
			c.Access(set, tag, false, all)
		}
		// Re-access in random order many times: all must hit.
		for i := 0; i < 50; i++ {
			tag := tags[r.Intn(len(tags))]
			if !c.Access(set, tag, false, all).Hit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: fills always land inside the allowed mask, and lines filled
// through one mask are never visible through a disjoint mask.
func TestQuickMaskIsolation(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(64*64, 8, 64, 1)
		if err != nil {
			return false
		}
		maskA := bitmap.FromWays(0, 1, 2)
		maskB := bitmap.FromWays(5, 6)
		for i := 0; i < 200; i++ {
			set := r.Intn(c.Sets())
			tag := uint32(r.Intn(10))
			mask := maskA
			if r.Intn(2) == 1 {
				mask = maskB
			}
			res := c.Access(set, tag, r.Intn(2) == 1, mask)
			if res.Way >= 0 && !mask.Has(res.Way) {
				return false
			}
		}
		// Cross-visibility check: nothing visible through mask B may
		// live in mask A's ways.
		for set := 0; set < c.Sets(); set++ {
			for tag := uint32(0); tag < 10; tag++ {
				if w := c.Probe(set, tag, maskB); w >= 0 && !maskB.Has(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: hit rate accounting is consistent (hits+misses equals accesses).
func TestQuickStatsConsistent(t *testing.T) {
	f := func(seed int64, nr uint8) bool {
		r := rand.New(rand.NewSource(seed))
		c, err := New(4096, 2, 64, 1)
		if err != nil {
			return false
		}
		n := int(nr)%200 + 1
		all := c.AllWays()
		for i := 0; i < n; i++ {
			set := r.Intn(c.Sets())
			c.Access(set, uint32(r.Intn(8)), false, all)
		}
		total := c.Stats.Hits + c.Stats.Misses
		if total != uint64(n) {
			return false
		}
		hr := c.Stats.HitRate()
		return hr >= 0 && hr <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
