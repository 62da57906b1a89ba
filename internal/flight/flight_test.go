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
	r.Reset()
	if r.Len() != 0 || r.Events() != nil || r.Snapshot().Events != nil {
		t.Error("nil recorder is not a no-op sink")
	}
}

// TestRecorderAppendReset checks that a recorder keeps every event in
// emit order with dense Seq, and that Reset empties it, restarts Seq at 0
// and keeps the buffer, so refilling it allocates nothing.
func TestRecorderAppendReset(t *testing.T) {
	r := flight.New()
	for round := 0; round < 2; round++ {
		for i := 0; i < 1000; i++ {
			r.Emit(ev(i))
		}
		evs := r.Events()
		if len(evs) != 1000 || r.Len() != 1000 {
			t.Fatalf("round %d: %d events (Len %d), want 1000", round, len(evs), r.Len())
		}
		for i, e := range evs {
			want := ev(i)
			want.Seq = uint64(i)
			if e != want {
				t.Fatalf("round %d: event %d = %+v, want %+v", round, i, e, want)
			}
		}
		r.Reset()
		if r.Len() != 0 || len(r.Events()) != 0 {
			t.Fatalf("round %d: Reset left %d events", round, r.Len())
		}
	}
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset()
		for i := 0; i < 1000; i++ {
			r.Emit(ev(i))
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset recorder allocated %v times, want 0", allocs)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var rec flight.Recording
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
}

// TestWriteReadFile round-trips a recording through WriteFile and
// ReadFile. The file is JSONL whatever its extension, ".bin" included.
func TestWriteReadFile(t *testing.T) {
	rec := flight.Recording{Events: []flight.Event{ev(1), ev(2)}}
	rec.Events[0].Seq, rec.Events[1].Seq = 0, 1
	want := flight.AppendJSONL(nil, rec)
	dir := t.TempDir()
	for _, name := range []string{"r.jsonl", "r.bin"} {
		path := filepath.Join(dir, name)
		if err := flight.WriteFile(path, rec); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s holds\n%s\nwant the JSONL\n%s", name, data, want)
		}
		back, err := flight.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.Equal(flight.AppendJSONL(nil, back), want) {
			t.Fatalf("%s: round trip changed the recording", name)
		}
	}
}

func TestMergeRenumbers(t *testing.T) {
	a := flight.Recording{Events: []flight.Event{ev(0), ev(1)}}
	b := flight.Recording{Events: []flight.Event{ev(2)}}
	m := flight.Merge(a, b)
	if len(m.Events) != 3 {
		t.Fatalf("merge = %d events, want 3", len(m.Events))
	}
	for i, e := range m.Events {
		if e.Seq != uint64(i) {
			t.Fatalf("event %d: seq = %d", i, e.Seq)
		}
	}
}
