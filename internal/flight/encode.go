package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
)

// The export format is JSONL: greppable and diffable, one object per
// line, fields in fixed order, shortest-round-trip float formatting — so
// identical values encode to identical bytes.

// jsonlVersion is the format version the header line carries.
const jsonlVersion = 1

// AppendJSONL appends the deterministic JSONL encoding of the recording
// to dst and returns the extended slice. The first line is a header
// object ({"flight":1,"events":N,"dropped":D}); each following line is
// one event with fields in fixed order.
func AppendJSONL(dst []byte, rec Recording) []byte {
	dst = append(dst, `{"flight":`...)
	dst = strconv.AppendInt(dst, jsonlVersion, 10)
	dst = append(dst, `,"events":`...)
	dst = strconv.AppendInt(dst, int64(len(rec.Events)), 10)
	dst = append(dst, `,"dropped":`...)
	dst = strconv.AppendUint(dst, rec.Dropped, 10)
	dst = append(dst, "}\n"...)
	for _, e := range rec.Events {
		dst = appendEventJSON(dst, e)
		dst = append(dst, '\n')
	}
	return dst
}

func appendEventJSON(dst []byte, e Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"k":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","t":`...)
	dst = appendFloat(dst, e.Time)
	dst = append(dst, `,"task":`...)
	dst = strconv.AppendInt(dst, int64(e.Task), 10)
	dst = append(dst, `,"job":`...)
	dst = strconv.AppendInt(dst, int64(e.Job), 10)
	dst = append(dst, `,"node":`...)
	dst = strconv.AppendInt(dst, int64(e.Node), 10)
	dst = append(dst, `,"core":`...)
	dst = strconv.AppendInt(dst, int64(e.Core), 10)
	dst = append(dst, `,"cl":`...)
	dst = strconv.AppendInt(dst, int64(e.Cluster), 10)
	dst = append(dst, `,"wave":`...)
	dst = strconv.AppendInt(dst, int64(e.Wave), 10)
	dst = append(dst, `,"a":`...)
	dst = appendFloat(dst, e.A)
	dst = append(dst, `,"b":`...)
	dst = appendFloat(dst, e.B)
	dst = append(dst, `,"c":`...)
	dst = appendFloat(dst, e.C)
	dst = append(dst, '}')
	return dst
}

// appendFloat uses shortest-round-trip formatting, which maps equal
// float64 values to equal byte strings — the property the determinism
// contract rests on.
func appendFloat(dst []byte, v float64) []byte {
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// jsonlHeader mirrors the header line for decoding.
type jsonlHeader struct {
	Flight  int    `json:"flight"`
	Events  int    `json:"events"`
	Dropped uint64 `json:"dropped"`
}

// jsonlEvent mirrors one event line for decoding.
type jsonlEvent struct {
	Seq  uint64  `json:"seq"`
	K    string  `json:"k"`
	T    float64 `json:"t"`
	Task int32   `json:"task"`
	Job  int32   `json:"job"`
	Node int32   `json:"node"`
	Core int32   `json:"core"`
	Cl   int32   `json:"cl"`
	Wave int32   `json:"wave"`
	A    float64 `json:"a"`
	B    float64 `json:"b"`
	C    float64 `json:"c"`
}

// kindByName inverts kindNames for decoding.
var kindByName = func() map[string]Kind {
	m := make(map[string]Kind, len(kindNames))
	for k, name := range kindNames {
		m[name] = Kind(k)
	}
	return m
}()

// DecodeJSONL parses a JSONL recording.
func DecodeJSONL(r io.Reader) (Recording, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var rec Recording
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return rec, fmt.Errorf("flight: %w", err)
		}
		return rec, fmt.Errorf("flight: empty recording")
	}
	var hdr jsonlHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Flight == 0 {
		return rec, fmt.Errorf("flight: not a JSONL recording (bad header line)")
	}
	if hdr.Flight != jsonlVersion {
		return rec, fmt.Errorf("flight: unsupported recording version %d", hdr.Flight)
	}
	rec.Dropped = hdr.Dropped
	// The header's event count is checked, never used as a capacity: a
	// corrupt file can claim any number.
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal(line, &je); err != nil {
			return rec, fmt.Errorf("flight: event %d: %w", len(rec.Events), err)
		}
		kind, ok := kindByName[je.K]
		if !ok {
			return rec, fmt.Errorf("flight: event %d: unknown kind %q", len(rec.Events), je.K)
		}
		rec.Events = append(rec.Events, Event{
			Seq: je.Seq, Kind: kind, Time: je.T,
			Task: je.Task, Job: je.Job, Node: je.Node,
			Core: je.Core, Cluster: je.Cl, Wave: je.Wave,
			A: je.A, B: je.B, C: je.C,
		})
	}
	if err := sc.Err(); err != nil {
		return rec, fmt.Errorf("flight: %w", err)
	}
	if hdr.Events != len(rec.Events) {
		return rec, fmt.Errorf("flight: header says %d events, found %d", hdr.Events, len(rec.Events))
	}
	return rec, nil
}

// WriteFile serialises the recording to path as JSONL, whatever the
// path's extension.
func WriteFile(path string, rec Recording) error {
	if err := os.WriteFile(path, AppendJSONL(nil, rec), 0o644); err != nil {
		return fmt.Errorf("flight: %w", err)
	}
	return nil
}

// ReadFile loads a JSONL recording.
func ReadFile(path string) (Recording, error) {
	f, err := os.Open(path)
	if err != nil {
		return Recording{}, fmt.Errorf("flight: %w", err)
	}
	defer f.Close()
	return DecodeJSONL(f)
}
