// Command benchjson converts `go test -bench` text output into a stable
// JSON document, and compares two such documents with per-metric relative
// tolerances. It is the benchmark-regression gate of the CI pipeline:
//
//	go test -bench=. -benchtime=1x -count=3 -benchmem -run='^$' . | tee bench.txt
//	benchjson -in bench.txt -out BENCH_ci.json
//	benchjson -compare BENCH_baseline.json -against BENCH_ci.json \
//	          -gate "ns/op=0.50,allocs/op=0.10" -fail-on-regress
//
// Repeated -count samples of one benchmark are merged best-of-N (per-metric
// minimum), which filters the load spikes of shared runners; the wall-time
// gate is therefore wide (a 2x slowdown still trips it) while the
// deterministic allocs/op gate stays tight.
//
// -gate lists unit=tolerance pairs gated independently (ns/op, allocs/op,
// B/op, any custom unit the benchmarks report); without it only ns/op is
// gated, at 20%. By default -compare exits 0 and only warns on
// deviations beyond tolerance, so a noisy runner surfaces drift in the job
// log without blocking; -fail-on-regress makes the gate blocking — each
// regression becomes a GitHub Actions `::error` annotation (on Actions
// runners, or with -github) and the exit status is 1, failing the job.
//
// -overhead OFF:ON gates an instrumentation pair within a single run:
//
//	benchjson -overhead FlightRecorderOff:FlightRecorderOn -against BENCH_ci.json -fail-on-regress
//
// flags the pair when the ON half exceeds the OFF half by more than
// -overhead-tolerance (default 5%). Both halves come from the same run, so
// host speed differences cancel out. The same blocking rules apply: with
// -fail-on-regress an exceeded overhead budget is a `::error` annotation
// and a nonzero exit.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"

	"l15cache/internal/cli"
)

// Result is one benchmark line: the name with the "Benchmark" prefix and
// "-P" GOMAXPROCS suffix stripped, the iteration count, and every reported
// value keyed by its unit (ns/op, B/op, allocs/op, custom units).
type Result struct {
	Name   string             `json:"name"`
	Iters  int64              `json:"iters"`
	Values map[string]float64 `json:"values"`
}

// Doc is the serialised benchmark set.
type Doc struct {
	Results []Result `json:"results"`
}

// parse reads `go test -bench` output. Repeated samples of one benchmark
// (from -count=N) are merged by keeping each metric's minimum: wall-time
// metrics on shared CI runners are noisy in one direction only — load
// spikes inflate them — so best-of-N is the noise-robust statistic to
// gate on, and the deterministic metrics (allocs/op, custom ratios) are
// identical across samples anyway.
func parse(r io.Reader) (Doc, error) {
	var doc Doc
	byName := map[string]int{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// BenchmarkName-8  10  123 ns/op  456 B/op  7 allocs/op
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := Result{Name: name, Iters: iters, Values: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.Values[fields[i+1]] = v
		}
		if i, ok := byName[name]; ok {
			prev := doc.Results[i]
			if res.Iters > prev.Iters {
				prev.Iters = res.Iters
			}
			for unit, v := range res.Values {
				if old, ok := prev.Values[unit]; !ok || v < old {
					prev.Values[unit] = v
				}
			}
			doc.Results[i] = prev
			continue
		}
		byName[name] = len(doc.Results)
		doc.Results = append(doc.Results, res)
	}
	if err := sc.Err(); err != nil {
		return doc, err
	}
	sort.Slice(doc.Results, func(i, j int) bool { return doc.Results[i].Name < doc.Results[j].Name })
	return doc, nil
}

func load(path string) (Doc, error) {
	var doc Doc
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	err = json.Unmarshal(data, &doc)
	return doc, err
}

func index(d Doc) map[string]Result {
	m := make(map[string]Result, len(d.Results))
	for _, r := range d.Results {
		m[r.Name] = r
	}
	return m
}

// gate is one unit=tolerance pair of the -gate flag: the metric unit as
// reported on the benchmark line and the relative growth tolerated before
// the comparison counts a regression.
type gate struct {
	unit string
	tol  float64
}

// parseGates parses the -gate flag ("ns/op=0.25,allocs/op=0.10"). An empty
// spec gates ns/op alone at 20%.
func parseGates(spec string) ([]gate, error) {
	if strings.TrimSpace(spec) == "" {
		return []gate{{unit: "ns/op", tol: 0.20}}, nil
	}
	var out []gate
	for _, part := range strings.Split(spec, ",") {
		unit, tolStr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || unit == "" {
			return nil, fmt.Errorf("gate %q: want unit=tolerance", part)
		}
		tol, err := strconv.ParseFloat(tolStr, 64)
		if err != nil || tol < 0 {
			return nil, fmt.Errorf("gate %q: tolerance must be a non-negative number", part)
		}
		out = append(out, gate{unit: unit, tol: tol})
	}
	return out, nil
}

// compare reports per-metric deviations beyond each gate's tolerance and
// returns the number of regressions (metric grew past its tolerance). When
// annotateCmd is non-empty ("warning" or "error") it additionally emits one
// GitHub Actions workflow command per regression, which the Actions runner
// surfaces in the PR checks UI — as a yellow annotation on the warn-only
// gate, or a red one on the blocking (-fail-on-regress) gate.
func compare(w io.Writer, baseline, current Doc, gates []gate, annotateCmd string) int {
	base := index(baseline)
	regressions := 0
	for _, cur := range current.Results {
		ref, ok := base[cur.Name]
		if !ok {
			fmt.Fprintf(w, "NEW      %-28s %12.0f ns/op (no baseline)\n", cur.Name, cur.Values["ns/op"])
			continue
		}
		for _, g := range gates {
			b := ref.Values[g.unit]
			if b <= 0 {
				continue // metric absent (or zero) in baseline: nothing to gate against
			}
			c, ok := cur.Values[g.unit]
			if !ok {
				fmt.Fprintf(w, "NOVALUE  %-28s %10s (in baseline, not in current run)\n", cur.Name, g.unit)
				continue
			}
			delta := (c - b) / b
			switch {
			case delta > g.tol:
				regressions++
				fmt.Fprintf(w, "SLOWER   %-28s %10s %12.0f -> %12.0f (%+.1f%%, tolerance %.0f%%)\n",
					cur.Name, g.unit, b, c, 100*delta, 100*g.tol)
				if annotateCmd != "" {
					fmt.Fprintf(w, "::%s title=Benchmark regression: %s::%s %s grew %.0f -> %.0f (%+.1f%%, tolerance %.0f%%) against BENCH_baseline.json\n",
						annotateCmd, cur.Name, cur.Name, g.unit, b, c, 100*delta, 100*g.tol)
				}
			case delta < -g.tol:
				fmt.Fprintf(w, "FASTER   %-28s %10s %12.0f -> %12.0f (%+.1f%%)\n", cur.Name, g.unit, b, c, 100*delta)
			default:
				fmt.Fprintf(w, "OK       %-28s %10s %12.0f -> %12.0f (%+.1f%%)\n", cur.Name, g.unit, b, c, 100*delta)
			}
		}
	}
	for _, ref := range baseline.Results {
		if _, ok := index(current)[ref.Name]; !ok {
			fmt.Fprintf(w, "MISSING  %-28s (in baseline, not in current run)\n", ref.Name)
		}
	}
	return regressions
}

// overhead gates an instrumentation on/off pair within one run: it reports
// how much slower onName is than offName (ns/op) and returns true when the
// overhead exceeds tol. Unlike compare, both halves come from the same
// document, so runner-to-runner noise cancels. annotateCmd works as in
// compare: "" for no workflow commands, "warning" or "error" for the
// warn-only and blocking gates respectively.
func overhead(w io.Writer, doc Doc, offName, onName string, tol float64, annotateCmd string) (bool, error) {
	res := index(doc)
	off, ok := res[offName]
	if !ok {
		return false, fmt.Errorf("overhead pair: %q not in results", offName)
	}
	on, ok := res[onName]
	if !ok {
		return false, fmt.Errorf("overhead pair: %q not in results", onName)
	}
	b, c := off.Values["ns/op"], on.Values["ns/op"]
	if b <= 0 {
		return false, fmt.Errorf("overhead pair: %q has no ns/op", offName)
	}
	delta := (c - b) / b
	if delta > tol {
		fmt.Fprintf(w, "OVERHEAD %s -> %s: %12.0f -> %12.0f ns/op (%+.1f%%, tolerance %.0f%%)\n",
			offName, onName, b, c, 100*delta, 100*tol)
		if annotateCmd != "" {
			fmt.Fprintf(w, "::%s title=Instrumentation overhead: %s::%s costs %+.1f%% over %s (tolerance %.0f%%)\n",
				annotateCmd, onName, onName, 100*delta, offName, 100*tol)
		}
		return true, nil
	}
	fmt.Fprintf(w, "OVERHEAD %s -> %s: %12.0f -> %12.0f ns/op (%+.1f%%) within %.0f%%\n",
		offName, onName, b, c, 100*delta, 100*tol)
	return false, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")

	in := flag.String("in", "", "go test -bench output to parse ('-' or empty for stdin)")
	out := flag.String("out", "", "write parsed results as JSON to this file ('-' for stdout)")
	baselinePath := flag.String("compare", "", "baseline JSON to compare -against")
	againstPath := flag.String("against", "", "current-run JSON for -compare")
	gateSpec := flag.String("gate", "",
		`comma-separated unit=tolerance gates for -compare (e.g. "ns/op=0.25,allocs/op=0.10"); empty gates ns/op at 0.20`)
	failOnRegress := flag.Bool("fail-on-regress", false,
		"blocking gate: exit 1 on regressions beyond tolerance and annotate them as GitHub ::error")
	annotate := flag.Bool("github", os.Getenv("GITHUB_ACTIONS") == "true",
		"emit a GitHub Actions annotation per regression (auto-enabled on Actions runners)")
	overheadPair := flag.String("overhead", "",
		"OFF:ON benchmark-name pair gated within the -against run (e.g. FlightRecorderOff:FlightRecorderOn)")
	overheadTol := flag.Float64("overhead-tolerance", 0.05, "relative ns/op tolerance for -overhead")
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()

	annotateCmd := ""
	if *annotate {
		annotateCmd = "warning"
		if *failOnRegress {
			annotateCmd = "error"
		}
	}

	if *overheadPair != "" {
		offName, onName, ok := strings.Cut(*overheadPair, ":")
		if !ok || offName == "" || onName == "" {
			log.Fatal("-overhead wants OFF:ON benchmark names")
		}
		if *againstPath == "" {
			log.Fatal("-overhead requires -against")
		}
		doc, err := load(*againstPath)
		if err != nil {
			log.Fatal(err)
		}
		over, err := overhead(os.Stdout, doc, offName, onName, *overheadTol, annotateCmd)
		if err != nil {
			log.Fatal(err)
		}
		if over && *failOnRegress {
			os.Exit(1)
		}
		if over {
			fmt.Println("(warn-only: run with -fail-on-regress to fail the build)")
		}
		return
	}

	if *baselinePath != "" {
		if *againstPath == "" {
			log.Fatal("-compare requires -against")
		}
		gates, err := parseGates(*gateSpec)
		if err != nil {
			log.Fatal(err)
		}
		baseline, err := load(*baselinePath)
		if err != nil {
			log.Fatal(err)
		}
		current, err := load(*againstPath)
		if err != nil {
			log.Fatal(err)
		}
		n := compare(os.Stdout, baseline, current, gates, annotateCmd)
		if n > 0 {
			fmt.Printf("%d benchmark metric(s) worse than baseline beyond tolerance\n", n)
			if *failOnRegress {
				os.Exit(1)
			}
			fmt.Println("(warn-only: run with -fail-on-regress to fail the build)")
		}
		return
	}

	var src io.Reader = os.Stdin
	if *in != "" && *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		src = f
	}
	doc, err := parse(src)
	if err != nil {
		log.Fatal(err)
	}
	if len(doc.Results) == 0 {
		log.Fatal("no benchmark lines found in input")
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" || *out == "-" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s (%d benchmarks)", *out, len(doc.Results))
}
