package monitor

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"l15cache/internal/flight"
	"l15cache/internal/soc"
)

// demandProg takes four ways, waits for them, then counts down.
const demandProg = `
	li a0, 4
	demand a0
wait:
	supply a1
	beqz a1, wait
	li t0, 100
loop:
	addi t0, t0, -1
	bnez t0, loop
	ebreak
`

// runRecorded runs prog on core 0 of s (other cores halted) with its L1.5
// events recorded, settles the SDUs and returns the recording.
func runRecorded(t *testing.T, s *soc.SoC, prog string) flight.Recording {
	t.Helper()
	rec := flight.New()
	s.FlightRecord(rec)
	if _, err := s.LoadProgram(0x1000, prog); err != nil {
		t.Fatal(err)
	}
	if err := s.SetPageTable(0, s.IdentityPageTable(1)); err != nil {
		t.Fatal(err)
	}
	s.StartCore(0, 0x1000, 0x8000)
	for i := 1; i < len(s.Cores); i++ {
		s.Cores[i].Halted = true
	}
	if _, err := s.Run(100000, nil); err != nil {
		t.Fatal(err)
	}
	s.SettleSDU(64)
	return rec.Snapshot()
}

func newSoC(t *testing.T) *soc.SoC {
	t.Helper()
	s, err := soc.New(soc.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sdu is one hardware way move: Time = tick, Node = way, A = 1 assign.
func sdu(tick float64, cluster, core, way int32, assign bool) flight.Event {
	e := flight.Event{Kind: flight.KindSDU, Time: tick, Task: -1, Job: -1,
		Node: way, Core: core, Cluster: cluster, Wave: -1}
	if assign {
		e.A = 1
	}
	return e
}

// TestAnalyzeHandBuilt pins the utilisation integral and the latency
// grouping on a recording with known piecewise-constant occupancy.
func TestAnalyzeHandBuilt(t *testing.T) {
	rec := flight.Recording{Events: []flight.Event{
		sdu(0, 1, 4, 5, true), // cluster 1: one way over [0, 40]
		sdu(10, 0, 1, 0, true),
		sdu(11, 0, 1, 1, true),
		// Not way moves: a gv_set and an event-driven SDU occupation.
		{Kind: flight.KindGVConvert, Time: 12, Task: -1, Job: -1, Node: -1, Core: 1, Cluster: 0, Wave: -1, A: 2},
		{Kind: flight.KindSDU, Time: 15, Task: 0, Job: 0, Node: 3, Core: 2, Cluster: 0, Wave: -1, A: 4, B: 19, C: 4},
		sdu(20, 0, 2, 2, true),
		sdu(30, 0, 1, 0, false),
		sdu(31, 0, 1, 1, false),
	}}
	r := Analyze(rec, 32, 40)
	// Cluster 0 holds 0 ways on [0,10), 1 on [10,11), 2 on [11,20),
	// 3 on [20,30), 2 on [30,31) and 1 on [31,40]: 1+18+30+2+9 = 60
	// way-cycles. Cluster 1 adds 40.
	if want := 100.0 / (32 * 40); math.Abs(r.Utilization-want) > 1e-15 {
		t.Errorf("utilisation = %v, want %v", r.Utilization, want)
	}
	if want := []uint64{2, 1, 2, 1}; !reflect.DeepEqual(r.Latencies, want) {
		t.Errorf("latencies = %v, want %v", r.Latencies, want)
	}
	want := "monitor: mean L1.5 way utilisation 7.8% over 40 SDU cycles\n" +
		"monitor: 4 reconfigurations, mean latency 1.5 cycles, max 2\n"
	if got := r.String(); got != want {
		t.Errorf("report:\n%s\nwant:\n%s", got, want)
	}
}

// failWriter errors on every write, to exercise WriteReport's propagation.
type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("sink closed") }

func TestWriteReportPropagatesError(t *testing.T) {
	r := Report{End: 10, Utilization: 0.5, Latencies: []uint64{1}}
	if err := r.WriteReport(failWriter{}); err == nil {
		t.Error("WriteReport swallowed the write error")
	}
	var sb strings.Builder
	if err := r.WriteReport(&sb); err != nil {
		t.Fatalf("WriteReport to a builder: %v", err)
	}
	if r.String() != sb.String() {
		t.Error("String and WriteReport disagree")
	}
}

func TestMonitorSamplesDuringRun(t *testing.T) {
	s := newSoC(t)
	rec := runRecorded(t, s, demandProg)
	r := Analyze(rec, 32, s.Clusters[0].L15.Ticks())
	// The program ends holding 4 of 32 ways (two clusters × 16), which
	// it acquired one per SDU cycle after its demand.
	if r.Utilization <= 0 || r.Utilization >= 4.0/32 {
		t.Errorf("utilisation = %g, want in (0, 4/32)", r.Utilization)
	}
	if len(r.Latencies) != 1 || r.Latencies[0] != 4 {
		t.Errorf("latencies = %v, want [4]", r.Latencies)
	}
	rep := r.String()
	for _, want := range []string{"utilisation", "SDU cycles", "reconfigurations"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestUtilizationEmpty(t *testing.T) {
	r := Analyze(flight.Recording{}, 32, 100)
	if r.Utilization != 0 || r.Latencies != nil {
		t.Errorf("empty recording gives %+v", r)
	}
	if got := Analyze(flight.Recording{Events: []flight.Event{sdu(0, 0, 0, 0, true)}}, 32, 0); got.Utilization != 0 {
		t.Errorf("zero-length window gives utilisation %v", got.Utilization)
	}
}
