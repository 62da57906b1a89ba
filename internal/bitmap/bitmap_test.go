package bitmap

import (
	"math/bits"
	"testing"
	"testing/quick"
)

func TestFromWaysAndHas(t *testing.T) {
	b := FromWays(1, 6)
	if uint64(b) != 0x42 {
		t.Fatalf("FromWays(1,6) = %#x, want 0x42 (the paper's gv_set example)", uint64(b))
	}
	if !b.Has(1) || !b.Has(6) {
		t.Errorf("ways 1,6 should be set: %v", b)
	}
	if b.Has(0) || b.Has(2) || b.Has(63) {
		t.Errorf("unexpected ways set: %v", b)
	}
}

func TestFirstN(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0}, {1, 1}, {4, 0xf}, {16, 0xffff}, {64, ^uint64(0)},
	}
	for _, c := range cases {
		if got := FirstN(c.n); uint64(got) != c.want {
			t.Errorf("FirstN(%d) = %#x, want %#x", c.n, uint64(got), c.want)
		}
	}
}

func TestFirstNPanics(t *testing.T) {
	for _, n := range []int{-1, 65} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FirstN(%d) did not panic", n)
				}
			}()
			FirstN(n)
		}()
	}
}

func TestSetClear(t *testing.T) {
	var b Bitmap
	b = b.Set(3).Set(3).Set(5)
	if b.Count() != 2 {
		t.Fatalf("Count = %d, want 2", b.Count())
	}
	b = b.Clear(3)
	if b.Has(3) || !b.Has(5) {
		t.Errorf("after Clear(3): %v", b)
	}
	b = b.Clear(3) // clearing an absent way is a no-op
	if b.Count() != 1 {
		t.Errorf("Clear of absent way changed set: %v", b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	var b Bitmap
	for _, f := range []func(){
		func() { b.Set(-1) },
		func() { b.Set(64) },
		func() { b.Clear(64) },
		func() { b.Has(-2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("out-of-range way did not panic")
				}
			}()
			f()
		}()
	}
}

func TestMaskLogicOps(t *testing.T) {
	ow := FromWays(0, 1, 2, 3) // ways owned by the core
	gv := FromWays(2, 3, 8, 9) // globally visible ways in the cluster

	// Read path of the mask logic: OW | GV.
	if got := ow.Union(gv); got != FromWays(0, 1, 2, 3, 8, 9) {
		t.Errorf("read mask = %v", got)
	}
	// Write path: OW & ~GV (owned but not shared).
	if got := ow.Diff(gv); got != FromWays(0, 1) {
		t.Errorf("write mask = %v", got)
	}
	if got := ow.Intersect(gv); got != FromWays(2, 3) {
		t.Errorf("intersect = %v", got)
	}
}

func TestLowestAndTake(t *testing.T) {
	b := FromWays(5, 9, 13)
	if b.Lowest() != 5 {
		t.Errorf("Lowest = %d, want 5", b.Lowest())
	}
	var empty Bitmap
	if empty.Lowest() != -1 {
		t.Error("empty bitmap should report -1")
	}
}

func TestWaysOrder(t *testing.T) {
	b := FromWays(13, 2, 7)
	want := []int{2, 7, 13}
	got := b.Ways()
	if len(got) != len(want) {
		t.Fatalf("Ways = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Ways = %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	if s := FromWays(1, 6).String(); s != "0x42{1,6}" {
		t.Errorf("String = %q", s)
	}
	if s := Bitmap(0).String(); s != "0x0{}" {
		t.Errorf("String = %q", s)
	}
}

// Property: Count always equals the popcount of the raw register, and
// Ways() round-trips through FromWays.
func TestQuickRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		b := Bitmap(v)
		if b.Count() != bits.OnesCount64(v) {
			return false
		}
		return FromWays(b.Ways()...) == b
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the read mask always contains the write mask, and the two
// partitions of OW (shared vs private) are disjoint and cover OW.
func TestQuickMaskPartition(t *testing.T) {
	f := func(ow, gv uint64) bool {
		o, g := Bitmap(ow), Bitmap(gv)
		read := o.Union(g)
		write := o.Diff(g)
		if write.Union(read) != read { // write ⊆ read
			return false
		}
		shared := o.Intersect(g)
		return shared.Intersect(write) == 0 && shared.Union(write) == o
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
