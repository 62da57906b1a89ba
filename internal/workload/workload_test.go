package workload

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
)

func TestSyntheticBasics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	p := DefaultSynthParams()
	for i := 0; i < 20; i++ {
		task, err := Synthetic(r, p)
		if err != nil {
			t.Fatal(err)
		}
		if err := task.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if task.Period < p.MinPeriod || task.Period > p.MaxPeriod {
			t.Errorf("period %g outside [%g,%g]", task.Period, p.MinPeriod, p.MaxPeriod)
		}
		if task.Deadline != task.Period {
			t.Error("implicit deadline expected")
		}
		// W = U × T within rounding.
		w := task.Volume()
		if want := p.Utilization * task.Period; math.Abs(w-want) > 1e-6*want {
			t.Errorf("W = %g, want %g", w, want)
		}
	}
}

func TestSyntheticStructure(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	p := DefaultSynthParams()
	task, err := Synthetic(r, p)
	if err != nil {
		t.Fatal(err)
	}
	// Between layers bounds: src + sink + layers×[2..p] nodes.
	n := len(task.Nodes)
	if n < 2+p.MinLayers*2 || n > 2+p.MaxLayers*p.MaxWidth {
		t.Errorf("node count %d implausible", n)
	}
	// Each non-source node has a predecessor; each non-sink a successor.
	for _, node := range task.Nodes {
		if node.ID != task.Source() && len(task.Pred(node.ID)) == 0 {
			t.Errorf("node %d has no predecessor", node.ID)
		}
		if node.ID != task.Sink() && len(task.Succ(node.ID)) == 0 {
			t.Errorf("node %d has no successor", node.ID)
		}
	}
}

// TestSyntheticNames checks every node name against the per-node
// fmt.Sprintf("l%dn%d", l, i) naming, with each node's layer l and index i
// derived from the graph: layer 0 feeds from src, every other layer from
// the one before it, and a layer's nodes are numbered in ID order.
func TestSyntheticNames(t *testing.T) {
	for _, width := range []int{9, 21} {
		r := rand.New(rand.NewSource(int64(width)))
		p := DefaultSynthParams()
		p.MaxWidth = width
		for k := 0; k < 20; k++ {
			task, err := Synthetic(r, p)
			if err != nil {
				t.Fatal(err)
			}
			src, sink := task.Source(), task.Sink()
			if task.Node(src).Name != "src" || task.Node(sink).Name != "sink" {
				t.Fatalf("p=%d task %d: source %q, sink %q", width, k, task.Node(src).Name, task.Node(sink).Name)
			}
			layer := make([]int, len(task.Nodes))
			var count []int
			for _, v := range task.Nodes {
				if v.ID == src || v.ID == sink {
					continue
				}
				pred := task.Pred(v.ID)[0]
				if pred != src {
					layer[v.ID] = layer[pred] + 1
				}
				l := layer[v.ID]
				if l == len(count) {
					count = append(count, 0)
				}
				if want := fmt.Sprintf("l%dn%d", l, count[l]); v.Name != want {
					t.Fatalf("p=%d task %d: node %d named %q, want %q", width, k, v.ID, v.Name, want)
				}
				count[l]++
			}
		}
	}
}

func TestSyntheticCommRatio(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	p := DefaultSynthParams()
	task, err := Synthetic(r, p)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, e := range task.Edges {
		sum += e.Cost
	}
	want := p.CommRatio * task.Volume()
	if math.Abs(sum-want) > 1e-6*want {
		t.Errorf("Σμ = %g, want %g", sum, want)
	}
}

func TestSyntheticCPRSteering(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for _, cpr := range []float64{0.1, 0.3, 0.5} {
		p := DefaultSynthParams()
		p.CPR = cpr
		var relErr float64
		const trials = 10
		for i := 0; i < trials; i++ {
			task, err := Synthetic(r, p)
			if err != nil {
				t.Fatal(err)
			}
			got := task.CriticalPathLength(dag.ZeroCost) / task.Volume()
			relErr += math.Abs(got-cpr) / cpr
		}
		relErr /= trials
		if relErr > 0.25 {
			t.Errorf("cpr=%g: mean relative error %.2f too large", cpr, relErr)
		}
	}
}

func TestSyntheticAlphaAndData(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := DefaultSynthParams()
	task, err := Synthetic(r, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range task.Edges {
		if e.Alpha <= 0 || e.Alpha > p.AlphaMax {
			t.Errorf("α = %g outside (0,%g]", e.Alpha, p.AlphaMax)
		}
	}
	for _, n := range task.Nodes {
		if n.ID == task.Sink() {
			continue
		}
		if n.Data < p.MinData || n.Data > p.MaxData {
			t.Errorf("δ = %d outside [%d,%d]", n.Data, p.MinData, p.MaxData)
		}
	}
}

func TestSyntheticParamValidation(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	bad := []func(*SynthParams){
		func(p *SynthParams) { p.MaxWidth = 1 },
		func(p *SynthParams) { p.MinLayers = 0 },
		func(p *SynthParams) { p.MaxLayers = 2 },
		func(p *SynthParams) { p.EdgeProb = 1.5 },
		func(p *SynthParams) { p.Utilization = 0 },
		func(p *SynthParams) { p.CPR = 0 },
		func(p *SynthParams) { p.AlphaMax = 1 },
		func(p *SynthParams) { p.MinPeriod = 0 },
		func(p *SynthParams) { p.MaxData = 1 },
	}
	for i, mutate := range bad {
		p := DefaultSynthParams()
		mutate(&p)
		if _, err := Synthetic(r, p); err == nil {
			t.Errorf("bad params %d accepted", i)
		}
	}
}

func TestParsecTasksValid(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, k := range Kernels() {
		task, err := ParsecTask(r, k, DefaultCaseStudyParams())
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if err := task.Validate(); err != nil {
			t.Errorf("%s: %v", k, err)
		}
		if len(task.Nodes) < 4 {
			t.Errorf("%s: only %d nodes", k, len(task.Nodes))
		}
	}
}

func TestParsecUnknownKernel(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	if _, err := ParsecTask(r, Kernel("spec2006"), DefaultCaseStudyParams()); err == nil {
		t.Error("unknown kernel accepted")
	}
}

func TestUUniFast(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		us := UUniFast(r, 8, 0.75)
		var sum float64
		for _, u := range us {
			if u <= 0 {
				t.Fatalf("non-positive share %g in %v", u, us)
			}
			sum += u
		}
		if math.Abs(sum-0.75) > 1e-9 {
			t.Fatalf("sum = %g, want 0.75", sum)
		}
	}
	if UUniFast(r, 0, 1) != nil {
		t.Error("n=0 should return nil")
	}
}

func TestTaskSet(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	p := DefaultTaskSetParams()
	p.TargetUtilization = 4.0
	p.Tasks = 12
	tasks, err := TaskSet(r, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 12 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	if got := TotalLoad(tasks); math.Abs(got-4.0) > 1e-6 {
		t.Errorf("total load = %g, want 4", got)
	}
	if u := TotalUtilization(tasks); u <= 0 || u >= 4.0 {
		t.Errorf("computation-only utilisation = %g, want in (0,4)", u)
	}
	for _, task := range tasks {
		if err := task.Validate(); err != nil {
			t.Errorf("%s: %v", task.Name, err)
		}
		if task.Period < p.MinPeriod || task.Period > p.MaxPeriod {
			t.Errorf("%s: period %g out of range", task.Name, task.Period)
		}
	}
}

func TestTaskSetErrors(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	p := DefaultTaskSetParams()
	p.Tasks = 0
	if _, err := TaskSet(r, p); err == nil {
		t.Error("zero tasks accepted")
	}
	p = DefaultTaskSetParams()
	p.TargetUtilization = -1
	if _, err := TaskSet(r, p); err == nil {
		t.Error("negative utilisation accepted")
	}
	p = DefaultTaskSetParams()
	p.MaxPeriod = p.MinPeriod - 1
	if _, err := TaskSet(r, p); err == nil {
		t.Error("inverted period range accepted")
	}
}

// Property: synthetic generation is deterministic in the seed.
func TestQuickSyntheticDeterministic(t *testing.T) {
	f := func(seed int64) bool {
		p := DefaultSynthParams()
		t1, err1 := Synthetic(rand.New(rand.NewSource(seed)), p)
		t2, err2 := Synthetic(rand.New(rand.NewSource(seed)), p)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(t1.Nodes) != len(t2.Nodes) || len(t1.Edges) != len(t2.Edges) {
			return false
		}
		for i := range t1.Nodes {
			if t1.Nodes[i].WCET != t2.Nodes[i].WCET || t1.Nodes[i].Data != t2.Nodes[i].Data {
				return false
			}
		}
		for i := range t1.Edges {
			if t1.Edges[i] != t2.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: UUniFast shares always sum to the target and stay positive.
func TestQuickUUniFast(t *testing.T) {
	f := func(seed int64, nr uint8, total float64) bool {
		total = math.Abs(total)
		if total == 0 || math.IsInf(total, 0) || math.IsNaN(total) {
			return true
		}
		n := int(nr%16) + 1
		us := UUniFast(rand.New(rand.NewSource(seed)), n, total)
		var sum float64
		for _, u := range us {
			if u < 0 {
				return false
			}
			sum += u
		}
		return math.Abs(sum-total) < 1e-9*total+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestParsecProfiles(t *testing.T) {
	// Every kernel has a profile with sane bands.
	for _, k := range Kernels() {
		p, ok := profiles[k]
		if !ok {
			t.Fatalf("%s has no profile", k)
		}
		if p.wcetScale <= 0 || p.dataScale <= 0 || p.alphaLo <= 0 || p.alphaHi <= p.alphaLo {
			t.Errorf("%s profile out of range: %+v", k, p)
		}
	}
}

func TestParsecProfilesShapeTasks(t *testing.T) {
	p := DefaultCaseStudyParams()
	mean := func(k Kernel, f func(*dag.Task) float64) float64 {
		var sum float64
		const trials = 30
		for i := 0; i < trials; i++ {
			task, err := ParsecTask(rand.New(rand.NewSource(int64(i))), k, p)
			if err != nil {
				t.Fatal(err)
			}
			sum += f(task)
		}
		return sum / trials
	}
	meanData := func(task *dag.Task) float64 {
		var s float64
		for _, n := range task.Nodes {
			s += float64(n.Data)
		}
		return s / float64(len(task.Nodes))
	}
	meanAlpha := func(task *dag.Task) float64 {
		var s float64
		for _, e := range task.Edges {
			s += e.Alpha
		}
		return s / float64(len(task.Edges))
	}
	// canneal moves more data than swaptions (1.5x vs 0.3x scale).
	if c, s := mean(Canneal, meanData), mean(Swaptions, meanData); c <= s {
		t.Errorf("canneal mean data %.0f should exceed swaptions %.0f", c, s)
	}
	// streamcluster's α band sits below blackscholes'.
	if sc, bs := mean(Streamcluster, meanAlpha), mean(Blackscholes, meanAlpha); sc >= bs {
		t.Errorf("streamcluster mean α %.2f should be below blackscholes %.2f", sc, bs)
	}
	// Data volumes stay inside the published range.
	task, err := ParsecTask(rand.New(rand.NewSource(1)), Canneal, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range task.Nodes {
		if n.Data < p.MinData || n.Data > p.MaxData {
			t.Errorf("δ = %d outside [%d,%d]", n.Data, p.MinData, p.MaxData)
		}
	}
}
