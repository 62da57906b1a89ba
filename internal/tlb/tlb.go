// Package tlb models address translation for the VIPT L1.5 Cache: a
// per-application page table (4 KB pages) and a small fully-associative TLB
// with FIFO replacement. User applications always access memory through
// virtual addresses (§2's assumption (ii)); the TLB supplies the physical
// tag while the virtual index selects the L1.5 set in parallel.
package tlb

import (
	"fmt"

	"l15cache/internal/mem"
	"l15cache/internal/metrics"
)

// PageBits is log2 of the page size (4 KB pages).
const PageBits = 12

// PageSize is the page size in bytes.
const PageSize = 1 << PageBits

// VirtAddr is a virtual byte address.
type VirtAddr uint32

// VPN returns the virtual page number.
func (v VirtAddr) VPN() uint32 { return uint32(v) >> PageBits }

// Offset returns the in-page offset.
func (v VirtAddr) Offset() uint32 { return uint32(v) & (PageSize - 1) }

// PageTable is one application's virtual-to-physical mapping, identified by
// an address-space/task ID. The paper's protector compares TIDs to prevent
// cross-application sharing of L1.5 ways; the TID here is that identity.
type PageTable struct {
	TID     uint16
	entries map[uint32]uint32 // VPN -> PFN
}

// NewPageTable returns an empty page table for the given task ID.
func NewPageTable(tid uint16) *PageTable {
	return &PageTable{TID: tid, entries: make(map[uint32]uint32)}
}

// Map installs a translation from the virtual page containing va to the
// physical page containing pa. Both are truncated to page boundaries.
func (pt *PageTable) Map(va VirtAddr, pa mem.PhysAddr) {
	pt.entries[va.VPN()] = uint32(pa) >> PageBits
}

// MapRange identity-offsets n bytes starting at va onto physical memory at
// pa, page by page.
func (pt *PageTable) MapRange(va VirtAddr, pa mem.PhysAddr, n int) {
	for off := 0; off < n; off += PageSize {
		pt.Map(va+VirtAddr(off), pa+mem.PhysAddr(off))
	}
}

// Lookup translates va, reporting failure for unmapped pages.
func (pt *PageTable) Lookup(va VirtAddr) (mem.PhysAddr, error) {
	pfn, ok := pt.entries[va.VPN()]
	if !ok {
		return 0, fmt.Errorf("tlb: page fault at %#x (tid %d)", uint32(va), pt.TID)
	}
	return mem.PhysAddr(pfn<<PageBits | va.Offset()), nil
}

// entry is one cached translation.
type entry struct {
	vpn, pfn uint32
	valid    bool
}

// TLB is a small fully-associative translation cache with FIFO replacement.
type TLB struct {
	entries []entry
	next    int
	missLat int

	pt *PageTable

	Hits, Misses uint64
}

// New returns a TLB with the given entry count and miss penalty (the page
// walk cost in cycles), bound to no page table.
func New(entries, missLatency int) (*TLB, error) {
	if entries <= 0 {
		return nil, fmt.Errorf("tlb: entries = %d", entries)
	}
	if missLatency < 0 {
		return nil, fmt.Errorf("tlb: negative miss latency")
	}
	return &TLB{entries: make([]entry, entries), missLat: missLatency}, nil
}

// SetPageTable switches the TLB to a new address space, flushing all cached
// translations (the context-switch behaviour).
func (t *TLB) SetPageTable(pt *PageTable) {
	t.pt = pt
	for i := range t.entries {
		t.entries[i] = entry{}
	}
	t.next = 0
}

// PageTable returns the active page table (nil before SetPageTable).
func (t *TLB) PageTable() *PageTable { return t.pt }

// TID returns the active task ID, or 0 with no address space bound.
func (t *TLB) TID() uint16 {
	if t.pt == nil {
		return 0
	}
	return t.pt.TID
}

// PublishMetrics registers the TLB's hit/miss counters with the registry
// under the given prefix; the Hits/Misses fields stay the live store and
// are copied in at snapshot time.
func (t *TLB) PublishMetrics(r *metrics.Registry, prefix string) {
	if r == nil {
		return
	}
	r.RegisterCollector(func(r *metrics.Registry) {
		r.Counter(prefix + ".hits").Store(t.Hits)
		r.Counter(prefix + ".misses").Store(t.Misses)
	})
}

// Peek returns the translation Translate would serve from the TLB for va,
// without counting a hit or filling an entry; ok is false when Translate
// would walk the page table.
func (t *TLB) Peek(va VirtAddr) (pa mem.PhysAddr, ok bool) {
	vpn := va.VPN()
	for _, e := range t.entries {
		if e.valid && e.vpn == vpn {
			return mem.PhysAddr(e.pfn<<PageBits | va.Offset()), true
		}
	}
	return 0, false
}

// Translate returns the physical address for va and the translation
// latency: 0 cycles on a TLB hit (the lookup overlaps the cache index), the
// miss penalty on a page walk.
func (t *TLB) Translate(va VirtAddr) (mem.PhysAddr, int, error) {
	if t.pt == nil {
		return 0, 0, fmt.Errorf("tlb: no page table bound")
	}
	if pa, ok := t.Peek(va); ok {
		t.Hits++
		return pa, 0, nil
	}
	t.Misses++
	pa, err := t.pt.Lookup(va)
	if err != nil {
		return 0, t.missLat, err
	}
	t.entries[t.next] = entry{vpn: va.VPN(), pfn: uint32(pa) >> PageBits, valid: true}
	t.next = (t.next + 1) % len(t.entries)
	return pa, t.missLat, nil
}
