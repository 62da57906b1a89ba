package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
)

func TestL15ScheduleFig1(t *testing.T) {
	task := dag.Fig1Example()
	res, err := L15Schedule(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}

	// Wave structure: {v1}, {v2,v3,v4}, {v5,v6}, {v7}.
	wantWaves := [][]int{{0}, {1, 2, 3}, {4, 5}, {6}}
	if len(res.Waves) != len(wantWaves) {
		t.Fatalf("waves = %v", res.Waves)
	}
	for i, w := range res.Waves {
		if len(w) != len(wantWaves[i]) {
			t.Fatalf("wave %d = %v, want size %d", i, w, len(wantWaves[i]))
		}
		seen := map[dag.NodeID]bool{}
		for _, id := range w {
			seen[id] = true
		}
		for _, id := range wantWaves[i] {
			if !seen[dag.NodeID(id)] {
				t.Errorf("wave %d = %v, missing %d", i, w, id)
			}
		}
	}

	// Source gets the top priority |V| = 7; priorities are a permutation
	// of 1..7.
	if p := task.Node(task.Source()).Priority; p != 7 {
		t.Errorf("source priority = %d, want 7", p)
	}
	seen := map[int]bool{}
	for _, n := range task.Nodes {
		if n.Priority < 1 || n.Priority > 7 || seen[n.Priority] {
			t.Errorf("bad priority %d on node %d", n.Priority, n.ID)
		}
		seen[n.Priority] = true
	}

	// v1 produces 4096 B => needs 2 ways, ζ=16 is plenty.
	if res.Model.Ways[0] != 2 {
		t.Errorf("v1 local ways = %d, want 2", res.Model.Ways[0])
	}
	// The sink (v7, no successors) must receive no local ways.
	if res.Model.Ways[6] != 0 {
		t.Errorf("sink local ways = %d, want 0", res.Model.Ways[6])
	}

	// Within wave 2, v4 lies on the longest raw path (λ=20) so it is
	// examined before v2 (λ=19) and gets the higher priority.
	if task.Node(3).Priority <= task.Node(1).Priority {
		t.Errorf("v4 priority %d should exceed v2 priority %d (longer path first)",
			task.Node(3).Priority, task.Node(1).Priority)
	}
}

func TestL15ScheduleCapacity(t *testing.T) {
	// A single wave of 3 nodes each needing 4 ways, with ζ=6: the longest
	// path gets its full 4, the next gets the 2 left, the third gets 0.
	task := dag.New("cap", 1000, 1000)
	src := task.AddNode("src", 1, 8192) // needs 4 ways
	a := task.AddNode("a", 9, 8192)
	b := task.AddNode("b", 5, 8192)
	c := task.AddNode("c", 3, 8192)
	sink := task.AddNode("sink", 1, 0)
	for _, v := range []dag.NodeID{a, b, c} {
		task.MustAddEdge(src, v, 2, 0.5)
		task.MustAddEdge(v, sink, 2, 0.5)
	}
	res, err := L15Schedule(task, 6, 2048)
	if err != nil {
		t.Fatal(err)
	}
	// Wave 0: src takes min(4, 6) = 4 ways. Wave 1: src's group is now
	// global (still occupying 4), so only 2 ways remain for node a; b and
	// c get nothing (Ω full).
	if res.Model.Ways[src] != 4 {
		t.Errorf("src ways = %d, want 4", res.Model.Ways[src])
	}
	if res.Model.Ways[a] != 2 {
		t.Errorf("a (longest path) ways = %d, want 2", res.Model.Ways[a])
	}
	if res.Model.Ways[b] != 0 || res.Model.Ways[c] != 0 {
		t.Errorf("b,c ways = %d,%d, want 0,0", res.Model.Ways[b], res.Model.Ways[c])
	}
}

func TestL15ScheduleFreesGlobals(t *testing.T) {
	// On a long chain, each node's group is freed two waves later, so
	// every node can receive its full demand even with a small ζ.
	task := dag.Chain("chain", 10, 2, 3, 0.5, 4096) // each needs 2 ways
	res, err := L15Schedule(task, 4, 2048)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ { // all but the sink
		if res.Model.Ways[dag.NodeID(i)] != 2 {
			t.Errorf("node %d ways = %d, want 2 (globals must be freed)",
				i, res.Model.Ways[dag.NodeID(i)])
		}
	}
}

func TestL15ScheduleZeroZeta(t *testing.T) {
	task := dag.Fig1Example()
	res, err := L15Schedule(task, 0, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if n := grantedWays(res); n != 0 {
		t.Errorf("ζ=0 allocated %d ways: %v", n, res.Model.Ways)
	}
	// Degenerates to longest-path-first: edge costs stay raw.
	for _, e := range task.Edges {
		if got := res.EdgeCost(e); got != e.Cost {
			t.Errorf("edge cost %g, want raw %g", got, e.Cost)
		}
	}
}

func TestL15ScheduleErrors(t *testing.T) {
	task := dag.Fig1Example()
	if _, err := L15Schedule(task, -1, 2048); err == nil {
		t.Error("negative ζ accepted")
	}
	if _, err := L15Schedule(task, 16, 0); err == nil {
		t.Error("zero κ accepted")
	}
	bad := dag.New("bad", 1, 1)
	if _, err := L15Schedule(bad, 16, 2048); err == nil {
		t.Error("invalid task accepted")
	}
}

func TestLongestPathFirst(t *testing.T) {
	task := dag.Fig1Example()
	res, err := LongestPathFirst(task)
	if err != nil {
		t.Fatal(err)
	}
	if grantedWays(res) != 0 {
		t.Error("baseline allocated L1.5 ways")
	}
	// Critical path v1,v4,v6,v7 must be prioritised over off-path peers
	// in the same wave.
	if task.Node(3).Priority <= task.Node(1).Priority {
		t.Error("v4 should outrank v2")
	}
	if task.Node(5).Priority <= task.Node(4).Priority {
		t.Error("v6 should outrank v5")
	}
	order := res.PriorityOrder()
	if order[0] != task.Source() {
		t.Errorf("highest priority = %d, want source", order[0])
	}
}

func randomTask(r *rand.Rand) *dag.Task {
	t := dag.New("rand", 1000, 1000)
	src := t.AddNode("src", 1+r.Float64()*5, int64(r.Intn(16*1024)))
	prev := []dag.NodeID{src}
	for l, layers := 0, 2+r.Intn(4); l < layers; l++ {
		cur := make([]dag.NodeID, 1+r.Intn(4))
		for i := range cur {
			cur[i] = t.AddNode("n", 1+r.Float64()*5, int64(r.Intn(16*1024)))
			t.MustAddEdge(prev[r.Intn(len(prev))], cur[i], 1+r.Float64()*3, 0.1+r.Float64()*0.6)
		}
		prev = cur
	}
	// The rows are laid out only once the task is built, so the
	// out-degrees come from the edge list.
	hasSucc := make([]bool, len(t.Nodes))
	for _, e := range t.Edges {
		hasSucc[e.From] = true
	}
	sink := t.AddNode("sink", 1, 0)
	for id, ok := range hasSucc {
		if !ok {
			t.MustAddEdge(dag.NodeID(id), sink, 1, 0.5)
		}
	}
	return t
}

// Property: Alg. 1 always yields a bijective priority assignment 1..|V|,
// never allocates more than ⌈δ/κ⌉ ways to a node, and the live-way total
// within any two consecutive waves never exceeds ζ.
func TestQuickL15Invariants(t *testing.T) {
	f := func(seed int64, zr uint8) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		zeta := int(zr % 32)
		res, err := L15Schedule(task, zeta, 2048)
		if err != nil {
			return false
		}
		seen := map[int]bool{}
		for _, n := range task.Nodes {
			if n.Priority < 1 || n.Priority > len(task.Nodes) || seen[n.Priority] {
				return false
			}
			seen[n.Priority] = true
		}
		total := 0
		for v, w := range res.Model.Ways {
			if w < 0 || w > etm.WaysNeeded(task.Node(dag.NodeID(v)).Data, 2048) {
				return false
			}
			total += w
		}
		// Live ways at any time span at most two adjacent waves.
		for i := 0; i+1 < len(res.Waves); i++ {
			live := 0
			for _, id := range res.Waves[i] {
				live += res.Model.Ways[id]
			}
			for _, id := range res.Waves[i+1] {
				live += res.Model.Ways[id]
			}
			if live > zeta {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: the ETM critical path under Alg. 1's allocation is never longer
// than the raw critical path, and more ways never hurt.
func TestQuickL15Improves(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		raw := task.CriticalPathLength(dag.RawCost)
		res8, err := L15Schedule(task.Clone(), 8, 2048)
		if err != nil {
			return false
		}
		res32, err := L15Schedule(task.Clone(), 32, 2048)
		if err != nil {
			return false
		}
		cp8 := res8.Task.CriticalPathLength(res8.Model.Weight())
		cp32 := res32.Task.CriticalPathLength(res32.Model.Weight())
		return cp8 <= raw+1e-9 && cp32 <= cp8+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: every wave respects precedence — each node's predecessors all
// appear in strictly earlier waves.
func TestQuickWavesRespectPrecedence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)
		res, err := L15Schedule(task, 16, 2048)
		if err != nil {
			return false
		}
		waveOf := map[dag.NodeID]int{}
		count := 0
		for i, w := range res.Waves {
			for _, id := range w {
				waveOf[id] = i
				count++
			}
		}
		if count != len(task.Nodes) {
			return false
		}
		for _, e := range task.Edges {
			if waveOf[e.From] >= waveOf[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestTopologicalPriority(t *testing.T) {
	task := dag.Fig1Example()
	res, err := TopologicalPriority(task)
	if err != nil {
		t.Fatal(err)
	}
	if grantedWays(res) != 0 {
		t.Error("topological baseline allocated ways")
	}
	// Priorities follow topological order: every edge goes from higher to
	// lower priority.
	for _, e := range task.Edges {
		if task.Node(e.From).Priority <= task.Node(e.To).Priority {
			t.Errorf("edge %d->%d violates topological priorities", e.From, e.To)
		}
	}
	if _, err := TopologicalPriority(dag.New("bad", 1, 1)); err == nil {
		t.Error("invalid task accepted")
	}
}

// Longest-path-first priorities beat topological ones on parallel-starved
// platforms in aggregate: on 2 cores the critical path must be favoured.
func TestPriorityPolicyComparison(t *testing.T) {
	var lpfWins, topoWins int
	for seed := int64(0); seed < 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		task := randomTask(r)

		lpfTask := task.Clone()
		lpf, err := LongestPathFirst(lpfTask)
		if err != nil {
			t.Fatal(err)
		}
		topoTask := task.Clone()
		topo, err := TopologicalPriority(topoTask)
		if err != nil {
			t.Fatal(err)
		}
		a := simulateSerialComparable(lpf)
		b := simulateSerialComparable(topo)
		switch {
		case a < b:
			lpfWins++
		case b < a:
			topoWins++
		}
	}
	if lpfWins < topoWins {
		t.Errorf("longest-path-first won %d, topological won %d", lpfWins, topoWins)
	}
}

// simulateSerialComparable computes a simple 2-core list-schedule makespan
// for the result's priorities (re-implemented minimally here to avoid an
// import cycle with schedsim).
func simulateSerialComparable(res *Result) float64 {
	t := res.Task
	n := len(t.Nodes)
	const m = 2
	indeg := make([]int, n)
	for id := range t.Nodes {
		indeg[id] = len(t.Pred(dag.NodeID(id)))
	}
	free := [m]float64{}
	finished := make([]float64, n)
	done := make([]bool, n)
	var ready []dag.NodeID
	ready = append(ready, t.Source())
	for count := 0; count < n; {
		// Pick the highest-priority ready node.
		best := -1
		for i, v := range ready {
			if best < 0 || t.Node(v).Priority > t.Node(ready[best]).Priority {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		// Earliest core and data availability.
		core := 0
		if free[1] < free[0] {
			core = 1
		}
		start := free[core]
		for _, p := range t.Pred(v) {
			e, _ := t.Edge(p, v)
			if f := finished[p] + e.Cost; f > start {
				start = f
			}
		}
		finish := start + t.Node(v).WCET
		free[core] = finish
		finished[v] = finish
		done[v] = true
		count++
		for _, s := range t.Succ(v) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	var ms float64
	for _, f := range finished {
		if f > ms {
			ms = f
		}
	}
	return ms
}

// grantedWays sums the local ways a result granted over all nodes.
func grantedWays(r *Result) int {
	n := 0
	for _, w := range r.Model.Ways {
		n += w
	}
	return n
}
