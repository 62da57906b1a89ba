// Package mem models the SoC's external memory: a physical byte store
// with a fixed access latency, the backing store of the whole cache
// hierarchy. All caches in this simulator are write-through, so physical
// memory is always authoritative for data; the cache levels exist to model
// access *timing* and the L1.5 sharing semantics.
//
// The store is paged: a 4 KiB page is allocated on its first write, and a
// page never written reads as zeros from one shared zero page, so building
// a large memory costs only its page index.
package mem

import "fmt"

// PhysAddr is a physical byte address.
type PhysAddr uint32

// pageBits is log2 of the backing store's page size.
const pageBits = 12

// pageSize is the backing store's page size in bytes.
const pageSize = 1 << pageBits

type page [pageSize]byte

// zeroPage backs every page that was never written. It is never written.
var zeroPage page

// Memory is the external DRAM.
type Memory struct {
	pages   []*page // &zeroPage until the page's first write
	size    int
	latency int

	// Reads and Writes count every access made through ReadWord,
	// LoadByte, WriteWord and StoreByte: each fetch, load and store of
	// the SoC, cache hits included, with a word as one access and a
	// halfword as two byte accesses. They are traffic counters, not
	// miss counters: the latency of a miss is modelled by the cache
	// levels above (soc's L2 adapter), not here.
	Reads, Writes uint64
}

// New returns a memory of the given size and fixed access latency in
// cycles. Size must be a positive multiple of 4.
func New(size int, latency int) (*Memory, error) {
	if size <= 0 || size%4 != 0 {
		return nil, fmt.Errorf("mem: size %d must be a positive multiple of 4", size)
	}
	if latency < 0 {
		return nil, fmt.Errorf("mem: negative latency %d", latency)
	}
	pages := make([]*page, (size+pageSize-1)/pageSize)
	for i := range pages {
		pages[i] = &zeroPage
	}
	return &Memory{pages: pages, size: size, latency: latency}, nil
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return m.size }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return m.latency }

func (m *Memory) check(addr PhysAddr, n int) error {
	if int(addr) < 0 || int(addr)+n > m.size {
		//lint:ignore hotalloc out-of-range fault: the error is built only on an access outside physical memory, which raises a memory-fault trap
		return fmt.Errorf("mem: access [%#x,%#x) outside [0,%#x)", addr, int(addr)+n, m.size)
	}
	return nil
}

// word reads the word at an in-range, 4-byte aligned addr, which never
// crosses a page.
func (m *Memory) word(addr PhysAddr) uint32 {
	d := m.pages[addr>>pageBits][addr&(pageSize-1):]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24
}

// writable returns the page holding addr, allocating it on its first
// write.
func (m *Memory) writable(addr PhysAddr) *page {
	p := m.pages[addr>>pageBits]
	if p == &zeroPage {
		//lint:ignore hotalloc first write of a physical page: at most MemBytes/4096 allocations per memory, each page once
		p = new(page)
		m.pages[addr>>pageBits] = p
	}
	return p
}

// ReadWord returns the little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) ReadWord(addr PhysAddr) (uint32, error) {
	if addr%4 != 0 {
		//lint:ignore hotalloc misalignment fault: the error is built only on a misaligned word read, which raises a memory-fault trap
		return 0, fmt.Errorf("mem: misaligned word read at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	m.Reads++
	return m.word(addr), nil
}

// PeekWord returns the word at addr without counting a read; ok is false
// where ReadWord would fail (a misaligned or out-of-range address).
func (m *Memory) PeekWord(addr PhysAddr) (word uint32, ok bool) {
	if addr%4 != 0 || int(addr)+4 > m.size {
		return 0, false
	}
	return m.word(addr), true
}

// WriteWord stores a little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) WriteWord(addr PhysAddr, v uint32) error {
	if addr%4 != 0 {
		//lint:ignore hotalloc misalignment fault: the error is built only on a misaligned word write, which raises a memory-fault trap
		return fmt.Errorf("mem: misaligned word write at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.Writes++
	d := m.writable(addr)[addr&(pageSize-1):]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr PhysAddr) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	m.Reads++
	return m.pages[addr>>pageBits][addr&(pageSize-1)], nil
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr PhysAddr, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.Writes++
	m.writable(addr)[addr&(pageSize-1)] = v
	return nil
}

// LoadProgram copies a program image to addr (no latency accounting; this
// is the loader, not the simulated bus). addr need not be aligned, and the
// image may span pages.
func (m *Memory) LoadProgram(addr PhysAddr, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	for i, w := range words {
		for b := range 4 {
			a := addr + PhysAddr(4*i+b)
			m.writable(a)[a&(pageSize-1)] = byte(w >> (8 * b))
		}
	}
	return nil
}
