package memo

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"l15cache/internal/metrics"
)

// goldenEncoder builds the fixed encoding the golden vectors hash.
func goldenEncoder() *Encoder {
	e := NewEncoder("golden")
	e.Str("sys", "Prop")
	e.I64("zeta", 16)
	e.U64("cycles", 123456789)
	e.F64("util", 0.6)
	e.Bool("partitioned", false)
	e.Bytes("blob", []byte{0xde, 0xad, 0xbe, 0xef})
	return e
}

// TestGoldenKeys pins the canonical encoding: if any of these hashes
// change, every key in every shared memo dir silently changes meaning,
// so a drift must be an explicit FormatVersion bump
// with new vectors, never an accident.
func TestGoldenKeys(t *testing.T) {
	if got, want := goldenEncoder().Key().String(),
		"359c56dd5255a93410472dd9533c907370cb0039b92c0434df4c5dcf79e10aba"; got != want {
		t.Errorf("encoder key drifted:\n got %s\nwant %s", got, want)
	}
	if got, want := TrialKey(goldenEncoder().Fingerprint(), 3, -42).String(),
		"54185bc65f9eb3a57fcc8dc0959ef307be462aab53b6e50f579352ea02fb5160"; got != want {
		t.Errorf("trial key drifted:\n got %s\nwant %s", got, want)
	}
	if got, want := NewEncoder("golden2").Key().String(),
		"d101d2e5b2181af988c136676aecbd2cd7a78b166888440167e29018f2146b2e"; got != want {
		t.Errorf("empty-domain key drifted:\n got %s\nwant %s", got, want)
	}
}

// TestKeySensitivity checks that every component of a trial's identity
// actually reaches the key: domain, field name, field value, field order,
// shard index and shard seed.
func TestKeySensitivity(t *testing.T) {
	base := goldenEncoder().Key()

	variants := map[string]*Encoder{}
	e := NewEncoder("other-domain")
	variants["domain"] = e

	e = NewEncoder("golden")
	e.Str("sys2", "Prop") // renamed field
	variants["field name"] = e

	e = NewEncoder("golden")
	e.Str("sys", "CMP|L1") // changed value
	variants["field value"] = e

	e = NewEncoder("golden")
	e.I64("zeta", 16)
	e.Str("sys", "Prop") // swapped order
	variants["field order"] = e

	for name, v := range variants {
		if v.Key() == base {
			t.Errorf("%s change did not change the key", name)
		}
	}

	fp := goldenEncoder().Fingerprint()
	k := TrialKey(fp, 3, -42)
	if TrialKey(fp, 4, -42) == k {
		t.Error("shard index does not reach the trial key")
	}
	if TrialKey(fp, 3, -41) == k {
		t.Error("shard seed does not reach the trial key")
	}
}

func key(i int) Key { return TrialKey([]byte("k"), i, 0) }

func newCache(t *testing.T, o Options) (*Cache, *metrics.Registry) {
	t.Helper()
	reg := metrics.NewRegistry()
	o.Registry = reg
	c, err := New(o)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c, reg
}

// TestLRUEviction pins the memory-tier bound and the least-recently-used
// eviction order.
func TestLRUEviction(t *testing.T) {
	c, reg := newCache(t, Options{MaxEntries: 3})
	for i := 0; i < 3; i++ {
		if err := c.Put(key(i), []byte(fmt.Sprintf("%d", i))); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// Touch 0 so 1 becomes the LRU victim.
	if _, ok := c.Get(key(0)); !ok {
		t.Fatal("warm entry missing")
	}
	if err := c.Put(key(3), []byte("3")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (bound violated)", c.Len())
	}
	if _, ok := c.Get(key(1)); ok {
		t.Error("LRU entry 1 survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if v, ok := c.Get(key(i)); !ok || string(v) != fmt.Sprintf("%d", i) {
			t.Errorf("entry %d lost or wrong: %q, %v", i, v, ok)
		}
	}
	snap := reg.Snapshot()
	if snap.Counters["memo.evictions"] != 1 {
		t.Errorf("evictions = %d, want 1", snap.Counters["memo.evictions"])
	}
	if snap.Counters["memo.misses"] != 1 {
		t.Errorf("misses = %d, want 1", snap.Counters["memo.misses"])
	}
}

// TestDiskTier checks cross-process reuse: a fresh cache over the same
// dir serves the stored value from disk and promotes it into memory.
func TestDiskTier(t *testing.T) {
	dir := t.TempDir()
	c1, _ := newCache(t, Options{Dir: dir})
	if err := c1.Put(key(1), []byte(`{"v":1}`)); err != nil {
		t.Fatalf("Put: %v", err)
	}

	c2, reg := newCache(t, Options{Dir: dir})
	v, ok := c2.Get(key(1))
	if !ok || string(v) != `{"v":1}` {
		t.Fatalf("disk tier miss: %q, %v", v, ok)
	}
	snap := reg.Snapshot()
	if snap.Counters["memo.hits_disk"] != 1 || snap.Counters["memo.hits"] != 1 {
		t.Errorf("disk hit not counted: %v", snap.Counters)
	}
	// Promotion: a second Get must come from memory (hits_disk stays 1).
	if _, ok := c2.Get(key(1)); !ok {
		t.Fatal("promoted entry missing")
	}
	if got := reg.Snapshot().Counters["memo.hits_disk"]; got != 1 {
		t.Errorf("hits_disk = %d after promotion, want 1", got)
	}
	// Eviction must not touch the disk copy.
	c3, _ := newCache(t, Options{Dir: dir, MaxEntries: 1})
	if err := c3.Put(key(2), []byte(`"a"`)); err != nil {
		t.Fatal(err)
	}
	if err := c3.Put(key(3), []byte(`"b"`)); err != nil {
		t.Fatal(err) // evicts key(2) from memory
	}
	if v, ok := c3.Get(key(2)); !ok || string(v) != `"a"` {
		t.Errorf("evicted entry not re-served from disk: %q, %v", v, ok)
	}
}

// TestDiskCorruption feeds the reader every corruption class: truncated
// JSON, a foreign key under the right filename, a damaged value with a
// stale checksum, and a wrong format version. Each must read as a miss,
// delete the file, count memo.corrupt, and be repaired by the next Put.
func TestDiskCorruption(t *testing.T) {
	cases := map[string]string{
		"truncated":    `{"format":1,"key":"`,
		"wrong key":    `{"format":1,"key":"` + key(99).String() + `","sum":"ab","value":1}`,
		"bad checksum": `{"format":1,"key":"%s","sum":"deadbeef","value":1}`,
		"wrong format": `{"format":0,"key":"%s","sum":"deadbeef","value":1}`,
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, reg := newCache(t, Options{Dir: dir})
			k := key(7)
			path := filepath.Join(dir, k.String()+".json")
			body := content
			if name == "bad checksum" || name == "wrong format" {
				body = fmt.Sprintf(content, k.String())
			}
			if err := os.WriteFile(path, []byte(body), 0o666); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); ok {
				t.Fatal("corrupt entry served as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("corrupt entry not deleted (err=%v)", err)
			}
			if got := reg.Snapshot().Counters["memo.corrupt"]; got != 1 {
				t.Errorf("corrupt = %d, want 1", got)
			}
			// Recompute-and-repair: a Put rewrites a valid entry.
			if err := c.Put(k, []byte("42")); err != nil {
				t.Fatalf("repairing Put: %v", err)
			}
			c2, _ := newCache(t, Options{Dir: dir})
			if v, ok := c2.Get(k); !ok || string(v) != "42" {
				t.Errorf("repaired entry unreadable: %q, %v", v, ok)
			}
		})
	}
}

// TestDiscard pins the caller-side corruption path: the entry disappears
// from both tiers and counts as corrupt.
func TestDiscard(t *testing.T) {
	dir := t.TempDir()
	c, reg := newCache(t, Options{Dir: dir})
	if err := c.Put(key(5), []byte(`"x"`)); err != nil {
		t.Fatal(err)
	}
	c.Discard(key(5))
	if _, ok := c.Get(key(5)); ok {
		t.Error("discarded entry still served")
	}
	if got := reg.Snapshot().Counters["memo.corrupt"]; got != 1 {
		t.Errorf("corrupt = %d, want 1", got)
	}
}

// TestNilCache pins the nil-receiver contract every caller relies on.
func TestNilCache(t *testing.T) {
	var c *Cache
	if _, ok := c.Get(key(0)); ok {
		t.Error("nil cache hit")
	}
	if err := c.Put(key(0), []byte("x")); err != nil {
		t.Errorf("nil Put: %v", err)
	}
	c.Discard(key(0))
	c.Skipped()
	if c.Len() != 0 {
		t.Error("nil Len != 0")
	}
}

// TestFromFlags pins the flag mapping: off, memory-only, dir-implies-on.
func TestFromFlags(t *testing.T) {
	if c, err := FromFlags(false, ""); err != nil || c != nil {
		t.Errorf("FromFlags(false, \"\") = %v, %v; want nil cache", c, err)
	}
	if c, err := FromFlags(true, ""); err != nil || c == nil {
		t.Errorf("FromFlags(true, \"\") = %v, %v; want cache", c, err)
	}
	dir := filepath.Join(t.TempDir(), "sub")
	c, err := FromFlags(false, dir)
	if err != nil || c == nil {
		t.Fatalf("FromFlags(false, dir) = %v, %v; want cache", c, err)
	}
	if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
		t.Errorf("memo dir not created: %v", err)
	}
}
