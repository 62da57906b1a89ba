package flight_test

import (
	"bytes"
	"encoding/binary"
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

// hugeBinary is a 24-byte binary recording whose header claims 1<<62
// events: n*68 wraps to 0, the length of its empty body.
func hugeBinary() []byte {
	data := append([]byte("L15FLT01"), make([]byte, 16)...)
	binary.LittleEndian.PutUint64(data[8:], 1<<62)
	return data
}

// TestDecodeRejectsCorruptCounts is the regression test for headers whose
// event count is huge or negative: both decoders must return an error
// instead of sizing a slice from it.
func TestDecodeRejectsCorruptCounts(t *testing.T) {
	if _, err := flight.DecodeBinary(hugeBinary()); err == nil {
		t.Error("binary header claiming 1<<62 events over an empty body decoded")
	}
	for _, hdr := range []string{
		`{"flight":1,"events":4611686018427387904,"dropped":0}`,
		`{"flight":1,"events":-1,"dropped":0}`,
		`{"flight":1,"events":2,"dropped":0}` + "\n" +
			`{"seq":0,"k":"sdu","t":1,"task":-1,"job":-1,"node":0,"core":0,"cl":0,"wave":-1,"a":1,"b":3,"c":0}`,
	} {
		if _, err := flight.DecodeJSONL(bytes.NewReader([]byte(hdr + "\n"))); err == nil {
			t.Errorf("JSONL with a wrong event count decoded: %s", hdr)
		}
	}
}

// FuzzDecodeJSONL checks that decoding never panics and that whatever
// decodes re-encodes and decodes back to the same recording.
func FuzzDecodeJSONL(f *testing.F) {
	f.Add(flight.AppendJSONL(nil, seedRecording(f)))
	f.Add([]byte(`{"flight":1,"events":-1,"dropped":0}` + "\n"))
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

// FuzzDecodeBinary checks the same for the binary codec. Events compare
// by their encoding, which is bitwise, so NaN payloads round-trip too.
func FuzzDecodeBinary(f *testing.F) {
	f.Add(flight.AppendBinary(nil, seedRecording(f)))
	f.Add(hugeBinary())
	f.Add([]byte("L15FLT01"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := flight.DecodeBinary(data)
		if err != nil {
			return
		}
		enc := flight.AppendBinary(nil, rec)
		back, err := flight.DecodeBinary(enc)
		if err != nil {
			t.Fatalf("re-encoded recording does not decode: %v", err)
		}
		if again := flight.AppendBinary(nil, back); !bytes.Equal(again, enc) {
			t.Fatal("round trip changed the recording")
		}
	})
}
