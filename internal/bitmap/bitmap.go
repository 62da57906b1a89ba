// Package bitmap provides the way-bitmap type used throughout the L1.5
// Cache model. The paper's ISA compacts way sets into bitmaps (e.g. setting
// ways 1 and 6 globally visible sends 0x42 via gv_set), and the cache's mask
// logic combines per-core ownership (OW) and global-visibility (GV) bitmaps
// with AND/OR/NOT gates. Bitmap mirrors that register-level representation.
package bitmap

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxWays is the largest number of cache ways a Bitmap can describe. The
// paper's L1.5 Cache uses 16 ways per cluster; 64 leaves room for larger
// configurations without changing the register width.
const MaxWays = 64

// Bitmap is a set of cache-way indices packed into a single register, the
// exact representation used by the L1.5 control registers and the
// supply/gv_set/gv_get instruction operands.
type Bitmap uint64

// FromWays builds a Bitmap containing the given way indices.
// Indices outside [0, MaxWays) panic: they indicate a programming error in
// the caller, never a runtime condition.
func FromWays(ways ...int) Bitmap {
	var b Bitmap
	for _, w := range ways {
		b = b.Set(w)
	}
	return b
}

// FirstN returns a Bitmap with ways 0..n-1 set.
func FirstN(n int) Bitmap {
	if n < 0 || n > MaxWays {
		//lint:ignore hotalloc out-of-range guard: the message is built only on a way count above MaxWays, a programming error that panics
		panic(fmt.Sprintf("bitmap: FirstN(%d) out of range", n))
	}
	if n == MaxWays {
		return Bitmap(^uint64(0))
	}
	return Bitmap(uint64(1)<<uint(n) - 1)
}

func checkWay(w int) {
	if w < 0 || w >= MaxWays {
		//lint:ignore hotalloc out-of-range guard: the message is built only on a way index outside [0,MaxWays), a programming error that panics
		panic(fmt.Sprintf("bitmap: way %d out of range [0,%d)", w, MaxWays))
	}
}

// Set returns b with way w added.
func (b Bitmap) Set(w int) Bitmap {
	checkWay(w)
	return b | 1<<uint(w)
}

// Clear returns b with way w removed.
func (b Bitmap) Clear(w int) Bitmap {
	checkWay(w)
	return b &^ (1 << uint(w))
}

// Has reports whether way w is in the set.
func (b Bitmap) Has(w int) bool {
	checkWay(w)
	return b&(1<<uint(w)) != 0
}

// Count returns the number of ways in the set (population count).
func (b Bitmap) Count() int { return bits.OnesCount64(uint64(b)) }

// IsEmpty reports whether no way is set.
func (b Bitmap) IsEmpty() bool { return b == 0 }

// Union returns the OR of the two sets, the upper-level read-path filter of
// the mask logic (OW | GV).
func (b Bitmap) Union(o Bitmap) Bitmap { return b | o }

// Intersect returns the AND of the two sets.
func (b Bitmap) Intersect(o Bitmap) Bitmap { return b & o }

// Diff returns the ways in b that are not in o, the write-path filter of the
// mask logic (OW & ~GV).
func (b Bitmap) Diff(o Bitmap) Bitmap { return b &^ o }

// Lowest returns the lowest way index in the set, or -1 if empty.
func (b Bitmap) Lowest() int {
	if b == 0 {
		return -1
	}
	return bits.TrailingZeros64(uint64(b))
}

// Ways returns the way indices in the set in ascending order.
func (b Bitmap) Ways() []int {
	ws := make([]int, 0, b.Count())
	for v := uint64(b); v != 0; {
		w := bits.TrailingZeros64(v)
		ws = append(ws, w)
		v &^= 1 << uint(w)
	}
	return ws
}

// String formats the bitmap as the hex literal the ISA carries plus the way
// list, e.g. "0x42{1,6}".
func (b Bitmap) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "0x%x{", uint64(b))
	for i, w := range b.Ways() {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", w)
	}
	sb.WriteByte('}')
	return sb.String()
}
