// Package mem models the SoC's external memory: a flat physical byte array
// with a fixed access latency, the backing store of the whole cache
// hierarchy. All caches in this simulator are write-through, so physical
// memory is always authoritative for data; the cache levels exist to model
// access *timing* and the L1.5 sharing semantics.
package mem

import "fmt"

// PhysAddr is a physical byte address.
type PhysAddr uint32

// Memory is the flat external DRAM.
type Memory struct {
	data    []byte
	latency int

	// Reads and Writes count word-granularity accesses that reached
	// memory (i.e. missed every cache level above it).
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
	return &Memory{data: make([]byte, size), latency: latency}, nil
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// Latency returns the fixed access latency in cycles.
func (m *Memory) Latency() int { return m.latency }

func (m *Memory) check(addr PhysAddr, n int) error {
	if int(addr) < 0 || int(addr)+n > len(m.data) {
		return fmt.Errorf("mem: access [%#x,%#x) outside [0,%#x)", addr, int(addr)+n, len(m.data))
	}
	return nil
}

// ReadWord returns the little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) ReadWord(addr PhysAddr) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned word read at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	m.Reads++
	d := m.data[addr:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// PeekWord returns the word at addr without counting a read; ok is false
// where ReadWord would fail (a misaligned or out-of-range address).
func (m *Memory) PeekWord(addr PhysAddr) (word uint32, ok bool) {
	if addr%4 != 0 || int(addr)+4 > len(m.data) {
		return 0, false
	}
	d := m.data[addr:]
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, true
}

// WriteWord stores a little-endian 32-bit word at addr (4-byte aligned).
func (m *Memory) WriteWord(addr PhysAddr, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned word write at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.Writes++
	d := m.data[addr:]
	d[0], d[1], d[2], d[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// LoadByte returns the byte at addr.
func (m *Memory) LoadByte(addr PhysAddr) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	m.Reads++
	return m.data[addr], nil
}

// StoreByte stores one byte at addr.
func (m *Memory) StoreByte(addr PhysAddr, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.Writes++
	m.data[addr] = v
	return nil
}

// LoadProgram copies a program image to addr (no latency accounting; this
// is the loader, not the simulated bus).
func (m *Memory) LoadProgram(addr PhysAddr, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	for i, w := range words {
		d := m.data[int(addr)+4*i:]
		d[0], d[1], d[2], d[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
	}
	return nil
}
