package flight_test

import (
	"bytes"
	"testing"

	"l15cache/internal/bitmap"
	"l15cache/internal/flight"
	"l15cache/internal/l15"
	"l15cache/internal/mem"
)

// flatL2 is a fixed-latency next level for the seed recording.
type flatL2 struct{}

func (flatL2) Access(mem.PhysAddr, bool) int { return 20 }

// seedRecording is a small real recording: one L1.5 serving two demands,
// a gv_set and a shrink, so it holds hardware KindSDU and KindGVConvert
// events.
func seedRecording(f *testing.F) flight.Recording {
	f.Helper()
	l, err := l15.New(l15.DefaultConfig(), flatL2{})
	if err != nil {
		f.Fatal(err)
	}
	rec := flight.New()
	l.FlightRecord(rec, 0)
	if err := l.Demand(0, 3); err != nil {
		f.Fatal(err)
	}
	if err := l.Demand(1, 2); err != nil {
		f.Fatal(err)
	}
	l.AdvanceTo(10)
	if err := l.GVSet(0, bitmap.FirstN(3)); err != nil {
		f.Fatal(err)
	}
	if err := l.Demand(0, 1); err != nil {
		f.Fatal(err)
	}
	l.AdvanceTo(20)
	return rec.Snapshot()
}

// TestDecodeRejectsCorruptCounts is the regression test for headers whose
// event count is huge, negative or wrong: the decoder must return an
// error instead of sizing a slice from it. It also rejects a version-1
// header, the format that carried a "dropped" count.
func TestDecodeRejectsCorruptCounts(t *testing.T) {
	for _, hdr := range []string{
		`{"flight":2,"events":4611686018427387904}`,
		`{"flight":2,"events":-1}`,
		`{"flight":2,"events":2}` + "\n" +
			`{"seq":0,"k":"sdu","t":1,"task":-1,"job":-1,"node":0,"core":0,"cl":0,"wave":-1,"a":1,"b":3,"c":0}`,
		`{"flight":1,"events":0,"dropped":0}`,
	} {
		if _, err := flight.DecodeJSONL(bytes.NewReader([]byte(hdr + "\n"))); err == nil {
			t.Errorf("JSONL with a wrong event count or version decoded: %s", hdr)
		}
	}
}

// FuzzDecodeJSONL checks that decoding never panics and that whatever
// decodes re-encodes and decodes back to the same recording.
func FuzzDecodeJSONL(f *testing.F) {
	f.Add(flight.AppendJSONL(nil, seedRecording(f)))
	f.Add([]byte(`{"flight":2,"events":-1}` + "\n"))
	f.Add([]byte(`{"flight":2,"events":0}` + "\n"))
	f.Add([]byte(`{"flight":1,"events":0,"dropped":3}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := flight.DecodeJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		enc := flight.AppendJSONL(nil, rec)
		back, err := flight.DecodeJSONL(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded recording does not decode: %v\n%s", err, enc)
		}
		if again := flight.AppendJSONL(nil, back); !bytes.Equal(again, enc) {
			t.Fatalf("round trip changed the recording:\n%s\n%s", enc, again)
		}
	})
}
