package dag

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := Fig1Example()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := LoadJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != orig.Name || back.Period != orig.Period || back.Deadline != orig.Deadline {
		t.Errorf("header mismatch: %+v", back)
	}
	if len(back.Nodes) != len(orig.Nodes) || len(back.Edges) != len(orig.Edges) {
		t.Fatalf("size mismatch: %d/%d nodes, %d/%d edges",
			len(back.Nodes), len(orig.Nodes), len(back.Edges), len(orig.Edges))
	}
	for i := range orig.Nodes {
		a, b := orig.Nodes[i], back.Nodes[i]
		if a.Name != b.Name || a.WCET != b.WCET || a.Data != b.Data {
			t.Errorf("node %d mismatch: %+v vs %+v", i, a, b)
		}
	}
	for i := range orig.Edges {
		if orig.Edges[i] != back.Edges[i] {
			t.Errorf("edge %d mismatch", i)
		}
	}
	// Adjacency is rebuilt.
	if len(back.Succ(0)) != 3 {
		t.Errorf("Succ(v1) = %v", back.Succ(0))
	}
	if got := back.CriticalPathLength(RawCost); got != orig.CriticalPathLength(RawCost) {
		t.Errorf("critical path changed: %g", got)
	}
}

// handWrittenJSON is a task as a user would type it: implicit node IDs,
// an omitted data field.
const handWrittenJSON = `{
	"name": "pipeline",
	"period": 100,
	"deadline": 100,
	"nodes": [
		{"name": "a", "wcet": 5, "data": 4096},
		{"name": "b", "wcet": 3}
	],
	"edges": [
		{"from": 0, "to": 1, "cost": 2, "alpha": 0.5}
	]
}`

func TestLoadJSONHandWritten(t *testing.T) {
	task, err := LoadJSON([]byte(handWrittenJSON))
	if err != nil {
		t.Fatal(err)
	}
	if task.Volume() != 8 || task.Nodes[1].Data != 0 {
		t.Errorf("parsed wrong: %+v", task.Nodes)
	}
}

// badJSON holds one file per way LoadJSON must refuse its input.
var badJSON = []string{
	`{`, // syntax
	`{"name":"x","period":10,"deadline":10,"nodes":[],"edges":[]}`,                                            // no nodes
	`{"name":"x","period":10,"deadline":10,"nodes":[{"name":"a","wcet":1}],"edges":[{"from":0,"to":5}]}`,      // bad edge
	`{"name":"x","period":10,"deadline":20,"nodes":[{"name":"a","wcet":1}],"edges":[]}`,                       // D > T
	`{"name":"x","period":10,"deadline":10,"nodes":[{"name":"a","wcet":1},{"name":"b","wcet":1}],"edges":[]}`, // two sources
	`{"name":"x","period":0,"deadline":0,"nodes":[{"name":"a","wcet":1}],"edges":[]}`,                         // T <= 0
	`{"name":"x","period":10,"deadline":-1,"nodes":[{"name":"a","wcet":1}],"edges":[]}`,                       // D < 0
	`{"name":"x","period":10,"deadline":10,"nodes":[{"name":"a","wcet":1e308},{"name":"b","wcet":1e308}],` +
		`"edges":[{"from":0,"to":1,"cost":1,"alpha":0}]}`, // infinite volume
	`{"name":"x","period":10,"deadline":10,"nodes":[{"name":"a","wcet":1},{"name":"b","wcet":1},{"name":"c","wcet":1}],` +
		`"edges":[{"from":0,"to":1,"cost":1e308,"alpha":0},{"from":1,"to":2,"cost":1e308,"alpha":0}]}`, // infinite critical path
}

func TestLoadJSONErrors(t *testing.T) {
	for i, src := range badJSON {
		if _, err := LoadJSON([]byte(src)); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// FuzzLoadJSON feeds LoadJSON arbitrary bytes: it must never panic, and a
// task it accepts must be valid, have a finite volume, and survive a
// marshal/load round trip byte for byte.
func FuzzLoadJSON(f *testing.F) {
	fig1, err := Fig1Example().MarshalJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(fig1)
	f.Add([]byte(handWrittenJSON))
	for _, src := range badJSON {
		f.Add([]byte(src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		task, err := LoadJSON(data)
		if err != nil {
			return
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("accepted task fails Validate: %v", err)
		}
		if w := task.Volume(); math.IsInf(w, 0) || math.IsNaN(w) {
			t.Fatalf("accepted task has volume %g", w)
		}
		once, err := task.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		again, err := LoadJSON(once)
		if err != nil {
			t.Fatalf("re-load of %s: %v", once, err)
		}
		twice, err := again.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("round trip changed the bytes:\n%s\n%s", once, twice)
		}
	})
}

func TestJSONSchemaFieldNames(t *testing.T) {
	data, err := json.Marshal(Fig1Example())
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"name"`, `"period"`, `"wcet"`, `"alpha"`, `"cost"`} {
		if !strings.Contains(s, want) {
			t.Errorf("schema missing %s", want)
		}
	}
}
