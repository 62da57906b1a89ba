package tlb

import (
	"fmt"
	"math/rand"
	"testing"

	"l15cache/internal/mem"
)

func TestVirtAddrParts(t *testing.T) {
	va := VirtAddr(0x12345)
	if va.VPN() != 0x12 {
		t.Errorf("VPN = %#x", va.VPN())
	}
	if va.Offset() != 0x345 {
		t.Errorf("Offset = %#x", va.Offset())
	}
}

func TestPageTableLookup(t *testing.T) {
	pt := NewPageTable(7)
	pt.Map(0x1000, 0x8000)
	pa, err := pt.Lookup(0x1234)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x8234 {
		t.Errorf("pa = %#x, want 0x8234", pa)
	}
	if _, err := pt.Lookup(0x9999); err == nil {
		t.Error("unmapped page translated")
	}
}

func TestMapRange(t *testing.T) {
	pt := NewPageTable(1)
	pt.MapRange(0x4000, 0x10000, 3*PageSize)
	for off := 0; off < 3*PageSize; off += PageSize / 2 {
		pa, err := pt.Lookup(VirtAddr(0x4000 + off))
		if err != nil {
			t.Fatalf("offset %#x: %v", off, err)
		}
		if pa != mem.PhysAddr(0x10000+off) {
			t.Errorf("offset %#x: pa = %#x", off, pa)
		}
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(0, 10); err == nil {
		t.Error("zero entries accepted")
	}
	if _, err := New(4, -1); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestTranslateHitMiss(t *testing.T) {
	tl, err := New(2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tl.Translate(0x1000); err == nil {
		t.Error("translation without page table accepted")
	}
	pt := NewPageTable(3)
	pt.MapRange(0, 0x100000, 16*PageSize)
	tl.SetPageTable(pt)
	if tl.TID() != 3 {
		t.Errorf("TID = %d", tl.TID())
	}

	// First access: page walk.
	pa, lat, err := tl.Translate(0x2040)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 0x102040 || lat != 20 {
		t.Errorf("pa=%#x lat=%d", pa, lat)
	}
	// Second access to the same page: hit, zero latency.
	_, lat, err = tl.Translate(0x2ffc)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 0 {
		t.Errorf("hit latency = %d", lat)
	}
	// Peek serves cached translations only, and counts nothing.
	if pa, ok := tl.Peek(0x2abc); !ok || pa != 0x102abc {
		t.Errorf("peek cached page = %#x, %t", pa, ok)
	}
	if _, ok := tl.Peek(0x5000); ok {
		t.Error("peek of an uncached page hit")
	}
	if tl.Hits != 1 || tl.Misses != 1 {
		t.Errorf("stats: %d/%d", tl.Hits, tl.Misses)
	}
}

func TestFIFOReplacementAndFlush(t *testing.T) {
	tl, _ := New(2, 20)
	pt := NewPageTable(1)
	pt.MapRange(0, 0, 16*PageSize)
	tl.SetPageTable(pt)

	tl.Translate(0 * PageSize) // fills slot 0
	tl.Translate(1 * PageSize) // fills slot 1
	tl.Translate(2 * PageSize) // evicts page 0
	if _, lat, _ := tl.Translate(0 * PageSize); lat == 0 {
		t.Error("page 0 should have been evicted (FIFO)")
	}

	// Context switch flushes everything.
	pt2 := NewPageTable(2)
	pt2.MapRange(0, 0x40000, 4*PageSize)
	tl.SetPageTable(pt2)
	if tl.PageTable() != pt2 {
		t.Error("page table not switched")
	}
	if _, lat, _ := tl.Translate(0); lat == 0 {
		t.Error("flush did not drop cached translations")
	}
	pa, _, _ := tl.Translate(0x10)
	if pa != 0x40010 {
		t.Errorf("post-switch pa = %#x", pa)
	}
}

func TestTranslatePageFault(t *testing.T) {
	tl, _ := New(2, 20)
	pt := NewPageTable(1)
	tl.SetPageTable(pt)
	if _, _, err := tl.Translate(0x5000); err == nil {
		t.Error("page fault not reported")
	}
}

func TestTIDWithoutPageTable(t *testing.T) {
	tl, _ := New(2, 20)
	if tl.TID() != 0 {
		t.Errorf("unbound TID = %d", tl.TID())
	}
}

// The dense table translates exactly as a VPN→PFN map does: the same
// physical address for mapped pages (remapped ones included) and the same
// page-fault error for unmapped pages inside, between and past the mapped
// ranges, the top of the address space included.
func TestPageTableMatchesMap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pt := NewPageTable(9)
	ref := map[uint32]uint32{}
	mapPage := func(va VirtAddr, pa mem.PhysAddr) {
		pt.Map(va, pa)
		ref[va.VPN()] = uint32(pa) >> PageBits
	}
	for i := 0; i < 200; i++ {
		va, pa := VirtAddr(r.Uint32()>>8), mem.PhysAddr(r.Uint32()>>8)
		if r.Intn(4) == 0 {
			n := 1 + r.Intn(5*PageSize)
			pt.MapRange(va, pa, n)
			for off := 0; off < n; off += PageSize {
				ref[(va + VirtAddr(off)).VPN()] = uint32(pa+mem.PhysAddr(off)) >> PageBits
			}
		} else {
			mapPage(va, pa)
		}
	}
	mapPage(0xfffff123, 0x7000)
	probes := []VirtAddr{0, 0xfff, 0x1000, 0xffffffff, 0xfffff000, 0x00ffffff}
	for i := 0; i < 5000; i++ {
		probes = append(probes, VirtAddr(r.Uint32()>>uint(r.Intn(12))))
	}
	for va := range ref {
		probes = append(probes, VirtAddr(va<<PageBits|uint32(r.Intn(PageSize))))
	}
	for _, va := range probes {
		got, err := pt.Lookup(va)
		pfn, ok := ref[va.VPN()]
		switch {
		case ok && (err != nil || got != mem.PhysAddr(pfn<<PageBits|va.Offset())):
			t.Fatalf("%#x: got %#x, %v; want pfn %#x", uint32(va), got, err, pfn)
		case !ok && (err == nil || got != 0 ||
			err.Error() != fmt.Sprintf("tlb: page fault at %#x (tid 9)", uint32(va))):
			t.Fatalf("%#x: unmapped page gave %#x, %v", uint32(va), got, err)
		}
	}
}
