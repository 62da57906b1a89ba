package flight_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"l15cache/internal/flight"
)

// ev builds a distinguishable event for codec tests.
func ev(i int) flight.Event {
	return flight.Event{
		Kind: flight.Kind(i % flight.KindCount),
		Time: float64(i) * 1.5,
		Task: int32(i), Job: int32(i % 3), Node: int32(i % 7),
		Core: int32(i % 8), Cluster: int32(i % 2), Wave: -1,
		A: float64(i) / 3, B: -1, C: float64(i * i),
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *flight.Recorder
	r.Emit(ev(0))
	if r.Len() != 0 || r.Dropped() != 0 || r.Events() != nil {
		t.Error("nil recorder is not a no-op sink")
	}
}

func TestRecorderRingWrap(t *testing.T) {
	r := flight.NewCap(4)
	for i := 0; i < 10; i++ {
		r.Emit(ev(i))
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained = %d, want 4", len(evs))
	}
	// The ring keeps the newest events, oldest first, with dense Seq.
	for i, e := range evs {
		if want := uint64(6 + i); e.Seq != want {
			t.Fatalf("event %d: seq = %d, want %d", i, e.Seq, want)
		}
	}
	if got := r.Snapshot(); got.Dropped != 6 || len(got.Events) != 4 {
		t.Fatalf("snapshot = %d events, %d dropped", len(got.Events), got.Dropped)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	rec := flight.Recording{Dropped: 2}
	for i := 0; i < 50; i++ {
		e := ev(i)
		e.Seq = uint64(i)
		rec.Events = append(rec.Events, e)
	}

	jsonl := flight.AppendJSONL(nil, rec)
	back, err := flight.DecodeJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flight.AppendJSONL(nil, back), jsonl) {
		t.Error("JSONL round trip is not byte-identical")
	}

	bin := flight.AppendBinary(nil, rec)
	back2, err := flight.DecodeBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flight.AppendBinary(nil, back2), bin) {
		t.Error("binary round trip is not byte-identical")
	}
	if !bytes.Equal(flight.AppendJSONL(nil, back2), jsonl) {
		t.Error("binary and JSONL decode to different recordings")
	}
}

func TestWriteReadFileSniffsFormat(t *testing.T) {
	rec := flight.Recording{Events: []flight.Event{ev(1), ev(2)}}
	rec.Events[0].Seq, rec.Events[1].Seq = 0, 1
	dir := t.TempDir()
	for _, name := range []string{"r.jsonl", "r.bin"} {
		path := filepath.Join(dir, name)
		if err := flight.WriteFile(path, rec); err != nil {
			t.Fatal(err)
		}
		back, err := flight.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(flight.AppendJSONL(nil, back), flight.AppendJSONL(nil, rec)) {
			t.Fatalf("%s: round trip changed the recording", name)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "r.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("L15FLT01")) {
		t.Error(".bin file does not start with the binary magic")
	}
}

func TestMergeRenumbers(t *testing.T) {
	a := flight.Recording{Events: []flight.Event{ev(0), ev(1)}, Dropped: 1}
	b := flight.Recording{Events: []flight.Event{ev(2)}, Dropped: 2}
	m := flight.Merge(a, b)
	if m.Dropped != 3 || len(m.Events) != 3 {
		t.Fatalf("merge = %d events, %d dropped", len(m.Events), m.Dropped)
	}
	for i, e := range m.Events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d: seq = %d", i, e.Seq)
		}
	}
}
