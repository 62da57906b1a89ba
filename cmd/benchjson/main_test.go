package main

import (
	"strings"
	"testing"
)

func doc(pairs map[string]float64) Doc {
	var d Doc
	for name, ns := range pairs {
		d.Results = append(d.Results, Result{Name: name, Iters: 1, Values: map[string]float64{"ns/op": ns}})
	}
	return d
}

func TestParseStripsPrefixAndProcs(t *testing.T) {
	in := "BenchmarkSoCRun-8  10  123.4 ns/op  56 B/op  7 allocs/op\nnot a bench line\n"
	d, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Results) != 1 || d.Results[0].Name != "SoCRun" {
		t.Fatalf("parse = %+v", d.Results)
	}
	if d.Results[0].Values["ns/op"] != 123.4 || d.Results[0].Values["allocs/op"] != 7 {
		t.Fatalf("values = %v", d.Results[0].Values)
	}
}

func TestParseMergesRepeatedSamplesBestOfN(t *testing.T) {
	in := `BenchmarkZeta-8  1  300 ns/op  7 allocs/op
BenchmarkZeta-8  2  100 ns/op  7 allocs/op
BenchmarkZeta-8  1  200 ns/op  7 allocs/op
BenchmarkOther-8 1  50 ns/op
`
	d, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Results) != 2 {
		t.Fatalf("results = %+v, want 2 merged entries", d.Results)
	}
	var zeta Result
	for _, r := range d.Results {
		if r.Name == "Zeta" {
			zeta = r
		}
	}
	if zeta.Values["ns/op"] != 100 || zeta.Values["allocs/op"] != 7 || zeta.Iters != 2 {
		t.Fatalf("merged Zeta = %+v, want best-of-3 ns/op=100", zeta)
	}
}

func nsGate(tol float64) []gate { return []gate{{unit: "ns/op", tol: tol}} }

func TestCompareCountsRegressions(t *testing.T) {
	base := doc(map[string]float64{"Fast": 100, "Slow": 100, "Gone": 50})
	cur := doc(map[string]float64{"Fast": 105, "Slow": 140, "New": 10})
	var sb strings.Builder
	n := compare(&sb, base, cur, nsGate(0.20), "")
	if n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
	out := sb.String()
	for _, want := range []string{"SLOWER   Slow", "OK       Fast", "NEW      New", "MISSING  Gone"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "::warning") || strings.Contains(out, "::error") {
		t.Errorf("annotations emitted without -github:\n%s", out)
	}
}

func TestCompareEmitsGitHubAnnotations(t *testing.T) {
	base := doc(map[string]float64{"Slow": 100})
	cur := doc(map[string]float64{"Slow": 150})
	var sb strings.Builder
	if n := compare(&sb, base, cur, nsGate(0.20), "warning"); n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
	out := sb.String()
	if !strings.Contains(out, "::warning title=Benchmark regression: Slow::Slow ns/op grew 100 -> 150 (+50.0%") {
		t.Errorf("missing ::warning annotation:\n%s", out)
	}

	sb.Reset()
	if n := compare(&sb, base, cur, nsGate(0.20), "error"); n != 1 {
		t.Fatalf("regressions = %d, want 1", n)
	}
	if !strings.Contains(sb.String(), "::error title=Benchmark regression: Slow::") {
		t.Errorf("blocking mode missing ::error annotation:\n%s", sb.String())
	}
}

func TestParseGates(t *testing.T) {
	gates, err := parseGates("")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 1 || gates[0].unit != "ns/op" || gates[0].tol != 0.20 {
		t.Fatalf("default gates = %+v", gates)
	}

	gates, err = parseGates("ns/op=0.25, allocs/op=0.10")
	if err != nil {
		t.Fatal(err)
	}
	if len(gates) != 2 || gates[1].unit != "allocs/op" || gates[1].tol != 0.10 {
		t.Fatalf("gates = %+v", gates)
	}

	for _, bad := range []string{"ns/op", "ns/op=x", "ns/op=-1", "=0.1"} {
		if _, err := parseGates(bad); err == nil {
			t.Errorf("parseGates(%q) accepted", bad)
		}
	}
}

func TestComparePerMetricGates(t *testing.T) {
	base := Doc{Results: []Result{{
		Name: "Zeta", Iters: 1,
		Values: map[string]float64{"ns/op": 100, "allocs/op": 1000},
	}}}
	// ns/op improves, allocs/op regresses past its 10% gate.
	cur := Doc{Results: []Result{{
		Name: "Zeta", Iters: 1,
		Values: map[string]float64{"ns/op": 50, "allocs/op": 1200},
	}}}
	gates := []gate{{unit: "ns/op", tol: 0.25}, {unit: "allocs/op", tol: 0.10}}
	var sb strings.Builder
	n := compare(&sb, base, cur, gates, "error")
	if n != 1 {
		t.Fatalf("regressions = %d, want 1:\n%s", n, sb.String())
	}
	out := sb.String()
	if !strings.Contains(out, "FASTER   Zeta") || !strings.Contains(out, "SLOWER   Zeta") {
		t.Errorf("per-metric verdicts missing:\n%s", out)
	}
	if !strings.Contains(out, "::error title=Benchmark regression: Zeta::Zeta allocs/op grew 1000 -> 1200 (+20.0%") {
		t.Errorf("missing allocs/op ::error annotation:\n%s", out)
	}

	// A gated metric missing from the current run is reported, not scored.
	sb.Reset()
	cur.Results[0].Values = map[string]float64{"ns/op": 50}
	if n := compare(&sb, base, cur, gates, ""); n != 0 {
		t.Fatalf("missing metric counted as regression:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "NOVALUE  Zeta") {
		t.Errorf("missing NOVALUE line:\n%s", sb.String())
	}
}

func TestOverheadGate(t *testing.T) {
	d := doc(map[string]float64{"RecOff": 1000, "RecOn": 1030})
	var sb strings.Builder
	over, err := overhead(&sb, d, "RecOff", "RecOn", 0.05, "")
	if err != nil {
		t.Fatal(err)
	}
	if over {
		t.Errorf("3%% flagged at 5%% tolerance:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "within 5%") {
		t.Errorf("missing within-tolerance line:\n%s", sb.String())
	}

	sb.Reset()
	d = doc(map[string]float64{"RecOff": 1000, "RecOn": 1100})
	over, err = overhead(&sb, d, "RecOff", "RecOn", 0.05, "warning")
	if err != nil {
		t.Fatal(err)
	}
	if !over {
		t.Errorf("10%% not flagged at 5%% tolerance:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "::warning title=Instrumentation overhead: RecOn") {
		t.Errorf("missing annotation:\n%s", sb.String())
	}

	// Blocking mode annotates at error level so the Actions UI goes red.
	sb.Reset()
	over, err = overhead(&sb, d, "RecOff", "RecOn", 0.05, "error")
	if err != nil {
		t.Fatal(err)
	}
	if !over {
		t.Errorf("10%% not flagged at 5%% tolerance:\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "::error title=Instrumentation overhead: RecOn") {
		t.Errorf("missing ::error annotation:\n%s", sb.String())
	}

	if _, err := overhead(&sb, d, "Nope", "RecOn", 0.05, ""); err == nil {
		t.Error("missing OFF benchmark not reported")
	}
}
