// Package cache implements the generic set-associative, tree-PLRU cache
// used for the private L1 I$/D$ and the shared L2 of the simulated SoC, and
// reused (with way masks) by the L1.5 Cache model. Caches are tag-only: the
// hierarchy is write-through with physical memory authoritative for data,
// so a cache models *timing* — hit/miss behaviour, replacement, and
// invalidation.
package cache

import (
	"fmt"
	"math/bits"

	"l15cache/internal/bitmap"
	"l15cache/internal/metrics"
)

// Stats counts cache events.
type Stats struct {
	Hits, Misses, Evictions, Writebacks uint64
}

// HitRate returns hits / (hits+misses), or 0 with no accesses.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a set-associative tag store with tree-PLRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	hitLat    int

	// The tag store is flat, struct-of-arrays style: entry (set, way)
	// lives at index set*ways+way. One contiguous block per field keeps
	// the per-access probe on a single cache line instead of chasing a
	// row pointer per set.
	tag   []uint32
	valid []bool
	dirty []bool
	plru  []uint64 // per-set tree bits (ways-1 internal nodes)

	Stats Stats
}

// New builds a cache of totalBytes capacity with the given associativity
// and line size. Ways must be a power of two (the tree-PLRU requirement);
// sets must come out a power of two as well.
func New(totalBytes, ways, lineBytes, hitLatency int) (*Cache, error) {
	if ways <= 0 || bits.OnesCount(uint(ways)) != 1 {
		return nil, fmt.Errorf("cache: ways %d must be a power of two", ways)
	}
	if ways > bitmap.MaxWays {
		return nil, fmt.Errorf("cache: ways %d exceeds %d", ways, bitmap.MaxWays)
	}
	if lineBytes <= 0 || bits.OnesCount(uint(lineBytes)) != 1 {
		return nil, fmt.Errorf("cache: line size %d must be a power of two", lineBytes)
	}
	if totalBytes <= 0 || totalBytes%(ways*lineBytes) != 0 {
		return nil, fmt.Errorf("cache: capacity %d not divisible by %d ways × %dB lines",
			totalBytes, ways, lineBytes)
	}
	sets := totalBytes / (ways * lineBytes)
	if bits.OnesCount(uint(sets)) != 1 {
		return nil, fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	if hitLatency < 0 {
		return nil, fmt.Errorf("cache: negative hit latency")
	}
	return &Cache{
		sets:      sets,
		ways:      ways,
		lineBytes: lineBytes,
		hitLat:    hitLatency,
		tag:       make([]uint32, sets*ways),
		valid:     make([]bool, sets*ways),
		dirty:     make([]bool, sets*ways),
		plru:      make([]uint64, sets),
	}, nil
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size in bytes.
func (c *Cache) LineBytes() int { return c.lineBytes }

// HitLatency returns the hit latency in cycles.
func (c *Cache) HitLatency() int { return c.hitLat }

// AllWays is the mask selecting the whole associativity.
func (c *Cache) AllWays() bitmap.Bitmap { return bitmap.FirstN(c.ways) }

// Split decomposes an address into set index and tag.
func (c *Cache) Split(addr uint32) (set int, tag uint32) {
	line := addr / uint32(c.lineBytes)
	return int(line) & (c.sets - 1), line >> uint(bits.TrailingZeros(uint(c.sets)))
}

// Probe looks the line up among the allowed ways without modifying any
// state. It returns the hit way or -1. The mask is iterated bit by bit —
// no slice is materialised on this per-access path.
func (c *Cache) Probe(set int, tag uint32, allowed bitmap.Bitmap) int {
	base := set * c.ways
	for v := uint64(allowed); v != 0; {
		w := bits.TrailingZeros64(v)
		if w >= c.ways {
			break
		}
		v &^= 1 << uint(w)
		if c.valid[base+w] && c.tag[base+w] == tag {
			return w
		}
	}
	return -1
}

// Holds reports whether the line containing addr is present in any way,
// without counting an access or touching the replacement state.
func (c *Cache) Holds(addr uint32) bool {
	set, tag := c.Split(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tag[base+w] == tag {
			return true
		}
	}
	return false
}

// AccessResult describes one cache access.
type AccessResult struct {
	Hit       bool
	Way       int  // way hit or filled; -1 if no way was allowed
	Evicted   bool // a valid line was replaced
	Writeback bool // the replaced line was dirty
}

// Access performs a read or write of the line containing addr, restricted
// to the allowed ways (use AllWays for a conventional cache). On a miss
// with at least one allowed way, the PLRU victim among the allowed ways is
// filled. Writes mark the line dirty (the caller decides whether the level
// is write-through). A miss with an empty allowed mask performs no fill:
// the access bypasses this level.
func (c *Cache) Access(set int, tag uint32, write bool, allowed bitmap.Bitmap) AccessResult {
	base := set * c.ways
	if w := c.Probe(set, tag, allowed); w >= 0 {
		c.Stats.Hits++
		c.touch(set, w)
		if write {
			c.dirty[base+w] = true
		}
		return AccessResult{Hit: true, Way: w}
	}
	c.Stats.Misses++
	if allowed.Intersect(c.AllWays()).IsEmpty() {
		return AccessResult{Way: -1}
	}
	w := c.victim(set, allowed)
	res := AccessResult{Way: w}
	if c.valid[base+w] {
		res.Evicted = true
		c.Stats.Evictions++
		if c.dirty[base+w] {
			res.Writeback = true
			c.Stats.Writebacks++
		}
	}
	c.tag[base+w] = tag
	c.valid[base+w] = true
	c.dirty[base+w] = write
	c.touch(set, w)
	return res
}

// touch updates the tree-PLRU bits so w becomes most-recently used: every
// internal node on the path is pointed *away* from w.
func (c *Cache) touch(set, w int) {
	node := 0
	span := c.ways
	for span > 1 {
		span /= 2
		left := w%(span*2) < span
		if left {
			// Point at the right subtree.
			c.plru[set] |= 1 << uint(node)
			node = node*2 + 1
		} else {
			c.plru[set] &^= 1 << uint(node)
			node = node*2 + 2
		}
	}
}

// victim walks the PLRU tree toward the least-recently-used way, but only
// descends into subtrees that contain at least one allowed way (the masked
// replacement the L1.5 ways need). Invalid allowed ways are preferred
// outright.
func (c *Cache) victim(set int, allowed bitmap.Bitmap) int {
	base := set * c.ways
	for v := uint64(allowed); v != 0; {
		w := bits.TrailingZeros64(v)
		if w >= c.ways {
			break
		}
		v &^= 1 << uint(w)
		if !c.valid[base+w] {
			return w
		}
	}
	node, lo, span := 0, 0, c.ways
	for span > 1 {
		span /= 2
		goRight := c.plru[set]&(1<<uint(node)) != 0
		leftHas := hasAllowed(allowed, lo, span, c.ways)
		rightHas := hasAllowed(allowed, lo+span, span, c.ways)
		if goRight && rightHas || !leftHas {
			lo += span
			node = node*2 + 2
		} else {
			node = node*2 + 1
		}
	}
	return lo
}

// hasAllowed reports whether any way in [lo, lo+span) is allowed —
// a mask test rather than a per-way loop.
func hasAllowed(allowed bitmap.Bitmap, lo, span, ways int) bool {
	if hi := lo + span; hi < ways {
		ways = hi
	}
	if lo >= ways {
		return false
	}
	window := bitmap.FirstN(ways - lo)
	return uint64(allowed)>>uint(lo)&uint64(window) != 0
}

// FlushWay invalidates every line in the given way and returns how many
// valid lines were dropped and how many of them were dirty (requiring a
// write-back in a write-back hierarchy). The dirty count feeds the L1.5's
// revocation cost accounting.
func (c *Cache) FlushWay(w int) (valid, dirty int) {
	if w < 0 || w >= c.ways {
		return 0, 0
	}
	for s := 0; s < c.sets; s++ {
		i := s*c.ways + w
		if c.valid[i] {
			valid++
			if c.dirty[i] {
				dirty++
				c.Stats.Writebacks++
			}
			c.valid[i] = false
			c.dirty[i] = false
		}
	}
	return valid, dirty
}

// PublishMetrics creates the cache's counters in the registry under the
// given prefix (e.g. "soc.l2" -> "soc.l2.hits") and returns the function
// that stores the Stats block into them. The Stats block stays the live
// store, so the single-threaded access hot path pays no atomic traffic;
// the owner calls the returned function on the goroutine that runs the
// cache, so a snapshot taken on any other goroutine reads only atomics.
// A nil registry publishes nothing and returns nil.
func (c *Cache) PublishMetrics(r *metrics.Registry, prefix string) func() {
	if r == nil {
		return nil
	}
	hits, misses := r.Counter(prefix+".hits"), r.Counter(prefix+".misses")
	evictions, writebacks := r.Counter(prefix+".evictions"), r.Counter(prefix+".writebacks")
	return func() {
		hits.Store(c.Stats.Hits)
		misses.Store(c.Stats.Misses)
		evictions.Store(c.Stats.Evictions)
		writebacks.Store(c.Stats.Writebacks)
	}
}
