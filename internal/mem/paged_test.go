package mem

import (
	"encoding/binary"
	"fmt"
	"testing"
)

// flat is the reference model of Memory: one zeroed byte array with the
// same checks, error texts and counters.
type flat struct {
	data          []byte
	Reads, Writes uint64
}

func (m *flat) check(addr PhysAddr, n int) error {
	if int(addr)+n > len(m.data) {
		return fmt.Errorf("mem: access [%#x,%#x) outside [0,%#x)", addr, int(addr)+n, len(m.data))
	}
	return nil
}

func (m *flat) ReadWord(addr PhysAddr) (uint32, error) {
	if addr%4 != 0 {
		return 0, fmt.Errorf("mem: misaligned word read at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return 0, err
	}
	m.Reads++
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

func (m *flat) PeekWord(addr PhysAddr) (uint32, bool) {
	if addr%4 != 0 || int(addr)+4 > len(m.data) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), true
}

func (m *flat) WriteWord(addr PhysAddr, v uint32) error {
	if addr%4 != 0 {
		return fmt.Errorf("mem: misaligned word write at %#x", addr)
	}
	if err := m.check(addr, 4); err != nil {
		return err
	}
	m.Writes++
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

func (m *flat) LoadByte(addr PhysAddr) (byte, error) {
	if err := m.check(addr, 1); err != nil {
		return 0, err
	}
	m.Reads++
	return m.data[addr], nil
}

func (m *flat) StoreByte(addr PhysAddr, v byte) error {
	if err := m.check(addr, 1); err != nil {
		return err
	}
	m.Writes++
	m.data[addr] = v
	return nil
}

func (m *flat) LoadProgram(addr PhysAddr, words []uint32) error {
	if err := m.check(addr, 4*len(words)); err != nil {
		return err
	}
	for i, w := range words {
		binary.LittleEndian.PutUint32(m.data[int(addr)+4*i:], w)
	}
	return nil
}

// fuzzSizes are the memory sizes a fuzz input picks from: below one page,
// exactly one, a partial last page, and several pages.
var fuzzSizes = []int{64, pageSize, pageSize + 12, 3*pageSize + 60, 4 * pageSize}

// opReader decodes a fuzz input into operations, yielding zeros once the
// input runs out.
type opReader struct{ data []byte }

func (r *opReader) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

// addr draws an address: mostly within a few bytes of the memory, so
// in-range, misaligned, straddling and just-out-of-range accesses all
// occur, sometimes near the top of the address space.
func (r *opReader) addr(size int) PhysAddr {
	v := uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16
	if r.byte()%16 == 0 {
		return PhysAddr(^v)
	}
	return PhysAddr(v % uint32(size+9))
}

func (r *opReader) word() uint32 {
	return uint32(r.byte()) | uint32(r.byte())<<8 | uint32(r.byte())<<16 | uint32(r.byte())<<24
}

// store is the interface Memory and flat share.
type store interface {
	ReadWord(PhysAddr) (uint32, error)
	PeekWord(PhysAddr) (uint32, bool)
	WriteWord(PhysAddr, uint32) error
	LoadByte(PhysAddr) (byte, error)
	StoreByte(PhysAddr, byte) error
	LoadProgram(PhysAddr, []uint32) error
}

// apply runs operation k of the fuzzer on s and returns the value it read
// (0 for a write) and its error text ("" on success; "!ok" for a failed
// PeekWord).
func apply(s store, k byte, a PhysAddr, v uint32, words []uint32) (uint32, string) {
	var err error
	switch k {
	case 0:
		v, err = s.ReadWord(a)
		return v, errText(err)
	case 1:
		err = s.WriteWord(a, v)
	case 2:
		b, err := s.LoadByte(a)
		return uint32(b), errText(err)
	case 3:
		err = s.StoreByte(a, byte(v))
	case 4:
		w, ok := s.PeekWord(a)
		if !ok {
			return w, "!ok"
		}
		return w, ""
	default:
		err = s.LoadProgram(a, words)
	}
	return 0, errText(err)
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// FuzzPagedMatchesFlat runs one random operation sequence against the
// paged Memory and the flat reference: every value, error and counter must
// agree, and so must the final contents.
func FuzzPagedMatchesFlat(f *testing.F) {
	// Each operation is: kind, three address bytes, a flag byte (0 mod
	// 16 flips the address to the top of the space), a value word, a
	// program length and that many words.
	f.Add([]byte{0, // 64 bytes
		1, 8, 0, 0, 1, 0xef, 0xbe, 0xad, 0xde, 0, // WriteWord(8)
		0, 8, 0, 0, 1, 0, 0, 0, 0, 0, // ReadWord(8)
		2, 9, 0, 0, 1, 0, 0, 0, 0, 0}) // LoadByte(9)
	f.Add([]byte{2, // a page and 12 bytes
		5, 0xfe, 0x0f, 0, 1, 0, 0, 0, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, // LoadProgram(0xffe) across the page
		0, 0, 0x10, 0, 1, 0, 0, 0, 0, 0, // ReadWord(0x1000)
		4, 0x08, 0x10, 0, 1, 0, 0, 0, 0, 0}) // PeekWord of the last word
	f.Add([]byte{4, // four pages
		3, 0xff, 0xff, 0xff, 0, 0x11, 0, 0, 0, 0, // StoreByte near the top of the space
		3, 0xff, 0x3f, 0, 1, 0x22, 0, 0, 0, 0, // StoreByte(last byte)
		1, 0x02, 0x10, 0, 1, 1, 2, 3, 4, 0, // misaligned WriteWord
		0, 0, 0x40, 0, 1, 0, 0, 0, 0, 0}) // ReadWord past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &opReader{data: data}
		size := fuzzSizes[int(r.byte())%len(fuzzSizes)]
		m, err := New(size, 7)
		if err != nil {
			t.Fatal(err)
		}
		ref := &flat{data: make([]byte, size)}
		var words [3]uint32
		for op := 0; len(r.data) > 0; op++ {
			k, a := r.byte()%6, r.addr(size)
			v, n := r.word(), int(r.byte()%4)
			for i := range n {
				words[i] = r.word()
			}
			got, gotErr := apply(m, k, a, v, words[:n])
			want, wantErr := apply(ref, k, a, v, words[:n])
			if got != want || gotErr != wantErr {
				t.Fatalf("op %d (%d at %#x): paged %#x %q, flat %#x %q", op, k, a, got, gotErr, want, wantErr)
			}
			if m.Reads != ref.Reads || m.Writes != ref.Writes {
				t.Fatalf("op %d (%d at %#x): counters %d/%d, flat %d/%d", op, k, a, m.Reads, m.Writes, ref.Reads, ref.Writes)
			}
		}
		for a := 0; a+4 <= size; a += 4 {
			if v, _ := m.PeekWord(PhysAddr(a)); v != binary.LittleEndian.Uint32(ref.data[a:]) {
				t.Fatalf("word %#x = %#x, flat %#x", a, v, binary.LittleEndian.Uint32(ref.data[a:]))
			}
		}
	})
}

// An unaligned program image crossing a page boundary lands byte for byte
// where the flat layout puts it, on both pages.
func TestLoadProgramUnalignedAcrossPage(t *testing.T) {
	m, _ := New(2*pageSize, 1)
	base := PhysAddr(pageSize - 6)
	if err := m.LoadProgram(base, []uint32{0x44332211, 0x88776655, 0xccbbaa99}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		b, err := m.LoadByte(base + PhysAddr(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := byte(0x11 * (i + 1)); b != want {
			t.Errorf("byte %d = %#x, want %#x", i, b, want)
		}
	}
	if v, _ := m.PeekWord(pageSize); v != 0xaa998877 {
		t.Errorf("word at the page boundary = %#x, want 0xaa998877", v)
	}
	if err := m.LoadProgram(2*pageSize-6, []uint32{1, 2}); err == nil {
		t.Error("program past the end accepted")
	}
}

// Reads of pages never written return zeros, count like any read and
// allocate nothing.
func TestUntouchedPagesReadZero(t *testing.T) {
	m, _ := New(16*pageSize, 1)
	if err := m.WriteWord(5*pageSize, 0xffffffff); err != nil {
		t.Fatal(err)
	}
	for _, a := range []PhysAddr{0, pageSize - 4, 4 * pageSize, 5*pageSize + 4, 16*pageSize - 4} {
		if v, err := m.ReadWord(a); err != nil || v != 0 {
			t.Errorf("ReadWord(%#x) = %#x, %v", a, v, err)
		}
		if b, err := m.LoadByte(a + 3); err != nil || b != 0 {
			t.Errorf("LoadByte(%#x) = %#x, %v", a+3, b, err)
		}
	}
	if m.Reads != 10 || m.Writes != 1 {
		t.Errorf("stats = %d reads, %d writes", m.Reads, m.Writes)
	}
	if allocs := testing.AllocsPerRun(100, func() { _, _ = m.ReadWord(9 * pageSize) }); allocs != 0 {
		t.Errorf("reading an untouched page allocates %v times", allocs)
	}
	if zeroPage != (page{}) {
		t.Fatal("the shared zero page was written")
	}
}

// Writes to a page that already exists allocate nothing.
func TestWritesToAllocatedPageDoNotAllocate(t *testing.T) {
	m, _ := New(4*pageSize, 1)
	if err := m.StoreByte(2*pageSize, 1); err != nil {
		t.Fatal(err)
	}
	var i uint32
	allocs := testing.AllocsPerRun(100, func() {
		i++
		_ = m.WriteWord(2*pageSize+PhysAddr(4*(i%1024)), i)
		_ = m.StoreByte(2*pageSize+PhysAddr(i%pageSize), byte(i))
	})
	if allocs != 0 {
		t.Errorf("writes to an allocated page allocate %v times", allocs)
	}
}

func BenchmarkNew(b *testing.B) {
	b.ReportAllocs()
	for range b.N {
		if _, err := New(16<<20, 80); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadWord(b *testing.B) {
	m, _ := New(16<<20, 80)
	for a := PhysAddr(0); a < 64*pageSize; a += 64 {
		_ = m.WriteWord(a, uint32(a))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint32
	for i := range b.N {
		v, _ := m.ReadWord(PhysAddr(i*4) % (128 * pageSize))
		sum += v
	}
	_ = sum
}
