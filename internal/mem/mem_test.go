package mem

import "testing"

func TestNewErrors(t *testing.T) {
	for _, c := range []struct{ size, lat int }{{0, 10}, {-4, 10}, {6, 10}, {64, -1}} {
		if _, err := New(c.size, c.lat); err == nil {
			t.Errorf("New(%d,%d) accepted", c.size, c.lat)
		}
	}
}

func TestWordRoundTrip(t *testing.T) {
	m, err := New(1024, 80)
	if err != nil {
		t.Fatal(err)
	}
	if m.Size() != 1024 || m.Latency() != 80 {
		t.Errorf("size/latency = %d/%d", m.Size(), m.Latency())
	}
	if err := m.WriteWord(16, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	v, err := m.ReadWord(16)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef {
		t.Errorf("read %#x", v)
	}
	// Little-endian layout.
	b, err := m.LoadByte(16)
	if err != nil {
		t.Fatal(err)
	}
	if b != 0xef {
		t.Errorf("byte 0 = %#x, want 0xef (little endian)", b)
	}
	// A peek reads the same word without counting.
	if w, ok := m.PeekWord(16); !ok || w != 0xdeadbeef {
		t.Errorf("peek = %#x, %t", w, ok)
	}
	if m.Reads != 2 || m.Writes != 1 {
		t.Errorf("stats = %d reads, %d writes", m.Reads, m.Writes)
	}
}

func TestBounds(t *testing.T) {
	m, _ := New(64, 1)
	if _, err := m.ReadWord(64); err == nil {
		t.Error("read past end accepted")
	}
	if err := m.WriteWord(62, 1); err == nil {
		t.Error("straddling write accepted")
	}
	if _, err := m.ReadWord(2); err == nil {
		t.Error("misaligned read accepted")
	}
	if err := m.WriteWord(3, 1); err == nil {
		t.Error("misaligned write accepted")
	}
	if _, err := m.LoadByte(64); err == nil {
		t.Error("byte read past end accepted")
	}
	if _, ok := m.PeekWord(64); ok {
		t.Error("peek past end accepted")
	}
	if _, ok := m.PeekWord(2); ok {
		t.Error("misaligned peek accepted")
	}
}

func TestLoadProgram(t *testing.T) {
	m, _ := New(64, 1)
	if err := m.LoadProgram(8, []uint32{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i, want := range []uint32{1, 2, 3} {
		v, err := m.ReadWord(PhysAddr(8 + 4*i))
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Errorf("word %d = %d, want %d", i, v, want)
		}
	}
	if err := m.LoadProgram(60, []uint32{1, 2}); err == nil {
		t.Error("overflowing program accepted")
	}
}
