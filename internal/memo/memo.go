// Package memo is the content-addressed trial result cache: it maps the
// SHA-256 of a canonical, versioned encoding of a trial's full input
// (DAG/workload descriptors + experiment config + kernel mode + seed; see
// Encoder) to the trial's JSON-encoded result, so a trial anyone has
// computed before is never computed again.
//
// The cache is sound only because of the determinism contract the rest of
// the module enforces (DESIGN.md §9, §11, §12): a trial's result is a
// bit-identical function of its canonical input — independent of worker
// count, scheduling order, host, wall clock and kernel implementation —
// and the lint suite (puritycheck, walltime, hotalloc) mechanically
// rejects code that would break that. Under that contract "same key" is
// exactly "same result", and a cache hit is indistinguishable from a
// recomputation down to the last byte of every artifact; the memo-smoke
// CI job enforces the indistinguishability with a byte compare.
//
// Two tiers:
//
//   - an in-memory LRU bounded at Options.MaxEntries, for repeated points
//     within one process (overlapping sweeps, repeated Map calls);
//   - an optional on-disk store (Options.Dir; the cmd tools' -memo-dir),
//     one file per key written via temp-file + atomic rename, so a
//     crash can never leave a half-written entry behind. Reads are
//     corruption-tolerant: an entry that fails to parse, carries the
//     wrong key, or fails its checksum is deleted and treated as a miss,
//     and the recomputed result repairs the file. The runner stores each
//     trial as it finishes, so a memo dir both resumes an interrupted
//     sweep and is shareable between runs, sweeps, tools and machines.
//
// The cache publishes memo.hits, memo.hits_disk, memo.misses,
// memo.stores, memo.store_errors, memo.evictions and memo.corrupt
// counters through internal/metrics, so every -metrics snapshot shows
// how much work the cache absorbed.
//
// Unlike the simulator packages, memo may read the filesystem: a stored
// value only ever *replaces* a computation with that computation's own
// bytes, never feeds a different value into one. The puritycheck analyzer
// encodes exactly this exemption.
package memo

import (
	"encoding/hex"
	"fmt"
	"os"
	"sync"

	"l15cache/internal/metrics"
)

// Key is the SHA-256 of a canonical trial encoding — the trial's
// content address.
type Key [32]byte

// String returns the key in lower-case hex (also the on-disk file stem).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// DefaultMaxEntries bounds the in-memory tier when Options.MaxEntries is
// zero. Entries are small JSON documents (tens to hundreds of bytes), so
// the default tier tops out around a few MB.
const DefaultMaxEntries = 1 << 14

// Options configures a Cache.
type Options struct {
	// Dir, when non-empty, enables the on-disk tier rooted there. The
	// directory is created if missing and may be shared between
	// concurrent runs: writes are atomic renames and the key encodes the
	// full trial input, so two runs can only ever write identical bytes
	// under one key.
	Dir string

	// MaxEntries bounds the in-memory LRU tier; zero or negative means
	// DefaultMaxEntries. Eviction only drops the memory copy — disk
	// entries persist.
	MaxEntries int

	// Registry receives the hit/miss/store/evict/corrupt counters; nil
	// means metrics.Default.
	Registry *metrics.Registry
}

// entry is one resident LRU node: an intrusive doubly-linked ring element
// ordered most- to least-recently used from head.next.
type entry struct {
	key        Key
	val        []byte
	prev, next *entry
}

// Cache is the two-tier store. All methods are safe for concurrent use
// and safe on a nil receiver (every lookup misses, every store is a
// no-op), so callers can thread an optional *Cache without guards.
type Cache struct {
	mu      sync.Mutex
	max     int
	dir     string
	entries map[Key]*entry
	head    entry // ring sentinel

	hits, hitsDisk, misses      *metrics.Counter
	stores, storeErrs           *metrics.Counter
	evictions, corrupt, skipped *metrics.Counter
}

// New builds a cache. With a Dir it creates the directory eagerly so a
// misconfigured path fails at startup, not mid-sweep.
func New(o Options) (*Cache, error) {
	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o777); err != nil {
			return nil, fmt.Errorf("memo: creating cache dir: %w", err)
		}
	}
	max := o.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	reg := o.Registry
	if reg == nil {
		reg = metrics.Default
	}
	c := &Cache{
		max:     max,
		dir:     o.Dir,
		entries: make(map[Key]*entry),
		// Counters are created (not lazily) so a snapshot always carries
		// the full memo series, zeros included — the memo-smoke CI job
		// asserts on them.
		hits:      reg.Counter("memo.hits"),
		hitsDisk:  reg.Counter("memo.hits_disk"),
		misses:    reg.Counter("memo.misses"),
		stores:    reg.Counter("memo.stores"),
		storeErrs: reg.Counter("memo.store_errors"),
		evictions: reg.Counter("memo.evictions"),
		corrupt:   reg.Counter("memo.corrupt"),
		skipped:   reg.Counter("memo.skipped"),
	}
	c.head.prev, c.head.next = &c.head, &c.head
	return c, nil
}

// FromFlags builds the cache a cmd tool's -memo/-memo-dir flags describe:
// nil when both are off, memory-only for bare -memo, two-tier when a
// directory is given (which implies -memo).
func FromFlags(enabled bool, dir string) (*Cache, error) {
	if !enabled && dir == "" {
		return nil, nil
	}
	return New(Options{Dir: dir})
}

// Get returns a copy of the value stored under key. The memory tier is
// consulted first; on a miss the disk tier (if configured) is read,
// verified and promoted into memory. Both tiers missing — or the disk
// entry failing verification, which also deletes it — counts one miss.
func (c *Cache) Get(key Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		moveToFront(&c.head, e)
		val := append([]byte(nil), e.val...)
		c.mu.Unlock()
		c.hits.Inc()
		return val, true
	}
	c.mu.Unlock()

	if c.dir != "" {
		if val, ok := c.readDisk(key); ok {
			c.insert(key, val)
			c.hits.Inc()
			c.hitsDisk.Inc()
			return append([]byte(nil), val...), true
		}
	}
	c.misses.Inc()
	return nil, false
}

// Put stores value under key in both tiers. The value must be a valid
// JSON document — the disk envelope embeds it verbatim, and every caller
// stores encoding/json output anyway. A disk-tier write failure is
// reported (and counted as memo.store_errors) but leaves the memory tier
// populated — the cache is an optimisation, and callers are expected to
// treat Put errors as non-fatal.
func (c *Cache) Put(key Key, value []byte) error {
	if c == nil {
		return nil
	}
	c.insert(key, append([]byte(nil), value...))
	c.stores.Inc()
	if c.dir == "" {
		return nil
	}
	if err := c.writeDisk(key, value); err != nil {
		c.storeErrs.Inc()
		return err
	}
	return nil
}

// Discard removes key from both tiers and counts the entry as corrupt.
// Callers use it when a stored value fails *their* decoding (schema
// drift within one format version); the next Put repairs the entry.
func (c *Cache) Discard(key Key) {
	if c == nil {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		unlink(e)
		delete(c.entries, key)
	}
	c.mu.Unlock()
	if c.dir != "" {
		// Best-effort: the file may never have existed.
		if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
			c.storeErrs.Inc()
		}
	}
	c.corrupt.Inc()
}

// Len returns the number of entries resident in the memory tier.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Skipped counts one memoization opportunity that was declined (e.g. a
// Map call without a fingerprint, or a side-effect-bearing trial), so
// snapshots distinguish "cache cold" from "cache not applicable".
func (c *Cache) Skipped() {
	if c == nil {
		return
	}
	c.skipped.Inc()
}

// insert adds or refreshes an entry and evicts from the LRU tail past the
// size bound. It takes c.mu itself; callers must not hold it.
func (c *Cache) insert(key Key, val []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		e.val = val
		moveToFront(&c.head, e)
		return
	}
	e := &entry{key: key, val: val}
	c.entries[key] = e
	linkFront(&c.head, e)
	for len(c.entries) > c.max {
		last := c.head.prev
		unlink(last)
		delete(c.entries, last.key)
		c.evictions.Inc()
	}
}

// The ring manipulators are free functions over entry nodes (the sentinel
// included): they touch no Cache field, so the lock discipline lives
// entirely in the exported methods and insert.

func linkFront(head, e *entry) {
	e.prev = head
	e.next = head.next
	e.prev.next = e
	e.next.prev = e
}

func unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func moveToFront(head, e *entry) {
	unlink(e)
	linkFront(head, e)
}
