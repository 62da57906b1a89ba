package bitmap

import (
	"math/bits"
	"testing"
)

// These tests pin down the boundary behaviour the bitmask analyzer
// (internal/lint) assumes when it forces all mask construction through
// this package: indices at and beyond the way-count boundary, empty and
// full masks, and popcount on all-ones.

func mustPanic(t *testing.T, name string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	f()
}

func TestBoundaryWayIndices(t *testing.T) {
	// The last representable way works across the whole API...
	last := MaxWays - 1
	b := FromWays(last)
	if !b.Has(last) || b.Count() != 1 || b.Lowest() != last {
		t.Fatalf("way %d: Has/Count/Lowest broken: %s", last, b)
	}
	if got := b.Clear(last); !got.IsEmpty() {
		t.Fatalf("Clear(%d) = %s, want empty", last, got)
	}
	// ...and one past it panics on every entry point rather than silently
	// wrapping into a nonexistent way.
	mustPanic(t, "Set(MaxWays)", func() { Bitmap(0).Set(MaxWays) })
	mustPanic(t, "Clear(MaxWays)", func() { Bitmap(0).Clear(MaxWays) })
	mustPanic(t, "Has(MaxWays)", func() { Bitmap(0).Has(MaxWays) })
	mustPanic(t, "FromWays(MaxWays)", func() { FromWays(MaxWays) })
	mustPanic(t, "Set(-1)", func() { Bitmap(0).Set(-1) })
	mustPanic(t, "FirstN(MaxWays+1)", func() { FirstN(MaxWays + 1) })
	mustPanic(t, "FirstN(-1)", func() { FirstN(-1) })
}

func TestEmptyMask(t *testing.T) {
	var b Bitmap
	if !b.IsEmpty() || b.Count() != 0 {
		t.Fatalf("zero value not empty: %s", b)
	}
	if b.Lowest() != -1 {
		t.Fatalf("Lowest on empty = %d, want -1", b.Lowest())
	}
	if len(b.Ways()) != 0 {
		t.Fatalf("Ways on empty = %v", b.Ways())
	}
	if got := FirstN(0); !got.IsEmpty() {
		t.Fatalf("FirstN(0) = %s, want empty", got)
	}
}

func TestFullMask(t *testing.T) {
	full := FirstN(MaxWays)
	if uint64(full) != ^uint64(0) {
		t.Fatalf("FirstN(MaxWays) = %#x, want all ones", uint64(full))
	}
	// Popcount on all-ones is exactly MaxWays.
	if full.Count() != MaxWays {
		t.Fatalf("Count(all-ones) = %d, want %d", full.Count(), MaxWays)
	}
	if got, want := full.Count(), bits.OnesCount64(^uint64(0)); got != want {
		t.Fatalf("Count disagrees with bits.OnesCount64: %d vs %d", got, want)
	}
	if ws := full.Ways(); len(ws) != MaxWays || ws[0] != 0 || ws[MaxWays-1] != MaxWays-1 {
		t.Fatalf("Ways(all-ones) = %v", ws)
	}
	// Every way is present; clearing them all empties the mask.
	b := full
	for w := 0; w < MaxWays; w++ {
		if !b.Has(w) {
			t.Fatalf("full mask missing way %d", w)
		}
		b = b.Clear(w)
	}
	if !b.IsEmpty() {
		t.Fatalf("clearing all ways left %s", b)
	}
	// Mask-logic identities at full width: OW|GV, OW&~GV.
	if full.Union(0) != full || full.Diff(full) != 0 || full.Intersect(full) != full {
		t.Fatal("mask-logic identities broken on all-ones")
	}
}
