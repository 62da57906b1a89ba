package schedsim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sort"

	"l15cache/internal/dag"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/metrics"
	"l15cache/internal/sched"
)

// Simulator counters on the default registry (atomic; the experiment
// harnesses run many simulations concurrently).
var (
	mInstances  = metrics.Default.Counter("schedsim.instances")
	mDispatches = metrics.Default.Counter("schedsim.dispatches")
)

// Options configure a simulation run.
type Options struct {
	// Cores is m, the number of identical cores (default 8).
	Cores int

	// Instances is the number of consecutive task instances to simulate.
	// The first instance starts with cold caches; later instances may
	// run warm on conventional platforms. Default 1.
	Instances int

	// Recorder, when non-nil, receives the flight events of the run
	// (releases, dispatches, per-edge costs, finishes and the final
	// makespan check), with Job set to the instance index and Task to
	// RecordTask.
	Recorder *flight.Recorder

	// RecordTask is the task index stamped on recorded events (single-
	// task runs leave it 0).
	RecordTask int

	// Kernel selects the dispatch kernel. The zero value, kernel.Events,
	// is the allocation-free event kernel; kernel.Ticked keeps the legacy
	// container/heap dispatcher so the equivalence harness can byte-diff
	// the two (DESIGN.md §11).
	Kernel kernel.Mode
}

func (o *Options) fill() {
	if o.Cores == 0 {
		o.Cores = 8
	}
	if o.Instances == 0 {
		o.Instances = 1
	}
}

// InstanceStats reports one simulated task instance.
type InstanceStats struct {
	Makespan float64 // sink completion time
	Comm     float64 // total time cores spent fetching dependent data
	Exec     float64 // total time cores spent computing
}

// completion is a node-finish event.
type completion struct {
	at   float64
	node dag.NodeID
}

type completionHeap []completion

func (h completionHeap) Len() int { return len(h) }
func (h completionHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].node < h[j].node
}
func (h completionHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)   { *h = append(*h, x.(completion)) }
func (h *completionHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// Run simulates opt.Instances consecutive instances of the scheduled task on
// the platform and returns per-instance statistics. The scheduler is
// non-preemptive fixed-priority and work-conserving: whenever a core is idle
// and a node is ready, the highest-priority ready node is dispatched
// immediately. The consumer core pays each incoming edge's communication
// cost (fetch phase) before the node's computation begins.
func Run(alloc *sched.Result, plat Platform, opt Options) ([]InstanceStats, error) {
	opt.fill()
	if opt.Cores < 1 {
		return nil, fmt.Errorf("schedsim: need at least one core, got %d", opt.Cores)
	}
	if err := alloc.Task.Validate(); err != nil {
		return nil, err
	}
	stats := make([]InstanceStats, 0, opt.Instances)
	// The run's instances and dispatches are tallied here and added to
	// the shared counters once, not per dispatch.
	var instances, dispatches uint64
	var sc scratch
	var prevCore []int
	// Only the events kernel with no recorder may replay a steady state:
	// those are the runs whose output is the stats alone.
	replay := opt.Kernel != kernel.Ticked && opt.Recorder == nil
	for i := 0; i < opt.Instances; i++ {
		var s InstanceStats
		var cores []int
		instances++
		if opt.Kernel == kernel.Ticked {
			s, cores = runInstance(alloc, plat, opt.Cores, i == 0, prevCore,
				opt.Recorder, int32(opt.RecordTask), int32(i), &dispatches)
		} else {
			s, cores = runInstanceEvents(alloc, plat, opt.Cores, i == 0, prevCore,
				opt.Recorder, int32(opt.RecordTask), int32(i), &sc, &dispatches)
		}
		stats = append(stats, s)
		// Steady state (DESIGN.md §11): a warm instance is a pure
		// function of the previous placement, so once a warm instance
		// reproduces the placement it started from, every later instance
		// is a copy of it. Copies count as simulated instances and
		// dispatches so the counters match a full simulation.
		if replay && i >= 1 && slices.Equal(cores, prevCore) {
			rest := opt.Instances - 1 - i
			for k := 0; k < rest; k++ {
				stats = append(stats, s)
			}
			instances += uint64(rest)
			dispatches += uint64(rest * len(alloc.Task.Nodes))
			break
		}
		prevCore = cores
	}
	mInstances.Add(instances)
	mDispatches.Add(dispatches)
	return stats, nil
}

// runInstance simulates one release of the task. cold marks the very first
// instance (no platform cache state); prevCore carries the previous
// instance's placement for warm-up and affinity decisions (nil when cold).
// rec, when non-nil, receives the instance's flight events stamped with
// (task, job). Each dispatch adds one to *dispatches.
func runInstance(alloc *sched.Result, plat Platform, m int, cold bool, prevCore []int, rec *flight.Recorder, task, job int32, dispatches *uint64) (InstanceStats, []int) {
	t := alloc.Task
	n := len(t.Nodes)

	rec.Emit(flight.Event{Kind: flight.KindRelease, Task: task, Job: job,
		Node: -1, Core: -1, Cluster: -1, Wave: -1})

	coreOf := make([]int, n) //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
	for i := range coreOf {
		coreOf[i] = -1
	}
	startAt := make([]float64, n) //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
	finished := make([]bool, n)   //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
	indeg := make([]int, n)       //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
	for id := range t.Nodes {
		indeg[id] = len(t.Pred(dag.NodeID(id)))
	}

	freeAt := make([]float64, m) //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
	var ready []dag.NodeID
	ready = append(ready, t.Source())

	var events completionHeap
	var stats InstanceStats
	now := 0.0
	done := 0

	popReady := func() dag.NodeID { //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
		best := 0
		for i := 1; i < len(ready); i++ {
			pi, pb := t.Node(ready[i]).Priority, t.Node(ready[best]).Priority
			if pi > pb || (pi == pb && ready[i] < ready[best]) {
				best = i
			}
		}
		v := ready[best]
		ready = append(ready[:best], ready[best+1:]...)
		return v
	}

	idleCores := func() []int { //lint:ignore hotalloc legacy ticked-path instance setup: runs once per release outside the per-event loop; the events kernel reuses scratch
		var idle []int
		for c := 0; c < m; c++ {
			if freeAt[c] <= now {
				idle = append(idle, c)
			}
		}
		return idle
	}

	for done < n {
		// Dispatch while an idle core and a ready node exist
		// (work-conserving).
		for {
			idle := idleCores()
			if len(idle) == 0 || len(ready) == 0 {
				break
			}
			v := popReady()
			c := idle[0]
			if plat.Affinity() && prevCore != nil {
				if pc := prevCore[v]; pc >= 0 {
					for _, ic := range idle {
						if ic == pc {
							c = pc
							break
						}
					}
				}
			}
			busy := 0
			for c2 := 0; c2 < m; c2++ {
				if c2 != c && freeAt[c2] > now {
					busy++
				}
			}
			busyFrac := 0.0
			if m > 1 {
				busyFrac = float64(busy) / float64(m-1)
			}
			warm := !cold && prevCore != nil && prevCore[v] == c

			var fetch float64
			for _, p := range t.Pred(v) {
				e, _ := t.Edge(p, v)
				cost := plat.CommCost(e, t.Node(p), coreOf[p] == c, busyFrac)
				fetch += cost
				rec.Emit(flight.Event{Kind: flight.KindEdge, Time: now,
					Task: task, Job: job, Node: int32(v), Core: int32(c),
					Cluster: -1, Wave: -1,
					A: float64(p), B: e.Cost, C: cost})
			}
			exec := plat.ExecTime(t.Node(v), warm, busyFrac)

			coreOf[v] = c
			startAt[v] = now
			finish := now + fetch + exec
			freeAt[c] = finish
			*dispatches++
			rec.Emit(flight.Event{Kind: flight.KindDispatch, Time: now,
				Task: task, Job: job, Node: int32(v), Core: int32(c),
				Cluster: -1, Wave: -1,
				A: fetch, B: exec, C: float64(alloc.Model.Ways[v])})
			stats.Comm += fetch
			stats.Exec += exec
			heap.Push(&events, completion{at: finish, node: v})
		}

		if events.Len() == 0 {
			// No running node but undone work: the graph must be
			// disconnected or cyclic — Validate precludes both.
			//lint:ignore hotalloc deadlock diagnostic: built only on a disconnected or cyclic graph, which Validate precludes
			panic("schedsim: deadlock with " + fmt.Sprint(n-done) + " nodes pending")
		}

		// Advance to the next completion; release successors.
		ev := heap.Pop(&events).(completion)
		now = math.Max(now, ev.at)
		finished[ev.node] = true
		done++
		rec.Emit(flight.Event{Kind: flight.KindFinish, Time: ev.at,
			Task: task, Job: job, Node: int32(ev.node),
			Core: int32(coreOf[ev.node]), Cluster: -1, Wave: -1,
			A: ev.at - startAt[ev.node]})
		for _, s := range t.Succ(ev.node) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		if ev.at > stats.Makespan {
			stats.Makespan = ev.at
		}
	}
	// The makespan check closes the instance; with no workload deadline
	// the event records A=0, B=0 (met).
	rec.Emit(flight.Event{Kind: flight.KindDeadline, Time: stats.Makespan,
		Task: task, Job: job, Node: -1, Core: -1, Cluster: -1, Wave: -1})
	return stats, coreOf
}

// scratch holds the per-instance arrays of the events kernel so that
// consecutive instances reuse one allocation. coreOf is double-buffered:
// the previous instance's placement must stay readable (affinity, warm-up)
// while the current instance writes the other buffer.
type scratch struct {
	coreOf  [2][]int
	flip    int
	startAt []float64
	indeg   []int
	freeAt  []float64
	ready   []dag.NodeID
	events  []completion
}

func growInts(s []int, n int) []int {
	if cap(s) < n {
		//lint:ignore hotalloc amortized grow: allocates only when capacity is exceeded, then reused across instances
		return make([]int, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		//lint:ignore hotalloc amortized grow: allocates only when capacity is exceeded, then reused across instances
		return make([]float64, n)
	}
	return s[:n]
}

// lessCompletion is the completionHeap order: earliest finish first, ties
// broken by node ID. Node IDs are unique per instance, so this is a strict
// total order and both kernels pop completions in the identical sequence.
func lessCompletion(a, b completion) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.node < b.node
}

func pushCompletion(h *[]completion, c completion) {
	*h = append(*h, c)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !lessCompletion((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func popCompletion(h *[]completion) completion {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && lessCompletion(old[l], old[small]) {
			small = l
		}
		if r < n && lessCompletion(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

// runInstanceEvents is the events-kernel twin of runInstance: the same
// work-conserving dispatch over the same strict event order, with the
// container/heap boxing and per-iteration idle-core slices replaced by a
// hand-rolled heap and scratch reuse. It must emit byte-identical flight
// events — the kernel-equivalence tests diff the two.
func runInstanceEvents(alloc *sched.Result, plat Platform, m int, cold bool, prevCore []int, rec *flight.Recorder, task, job int32, sc *scratch, dispatches *uint64) (InstanceStats, []int) {
	t := alloc.Task
	n := len(t.Nodes)

	rec.Emit(flight.Event{Kind: flight.KindRelease, Task: task, Job: job,
		Node: -1, Core: -1, Cluster: -1, Wave: -1})

	sc.flip ^= 1
	coreOf := growInts(sc.coreOf[sc.flip], n)
	sc.coreOf[sc.flip] = coreOf
	for i := range coreOf {
		coreOf[i] = -1
	}
	startAt := growFloats(sc.startAt, n)
	sc.startAt = startAt
	indeg := growInts(sc.indeg, n)
	sc.indeg = indeg
	for id := range t.Nodes {
		indeg[id] = len(t.Pred(dag.NodeID(id)))
	}
	freeAt := growFloats(sc.freeAt, m)
	sc.freeAt = freeAt
	for i := range freeAt {
		freeAt[i] = 0
	}
	ready := sc.ready[:0]
	ready = append(ready, t.Source())
	events := sc.events[:0]

	var stats InstanceStats
	now := 0.0
	done := 0
	affinity := plat.Affinity()

	for done < n {
		// Dispatch while an idle core and a ready node exist
		// (work-conserving).
		for len(ready) > 0 {
			// Lowest-numbered idle core, as idleCores()[0] did.
			c := -1
			for cc := 0; cc < m; cc++ {
				if freeAt[cc] <= now {
					c = cc
					break
				}
			}
			if c < 0 {
				break
			}
			best := 0
			for i := 1; i < len(ready); i++ {
				pi, pb := t.Node(ready[i]).Priority, t.Node(ready[best]).Priority
				if pi > pb || (pi == pb && ready[i] < ready[best]) {
					best = i
				}
			}
			v := ready[best]
			ready = append(ready[:best], ready[best+1:]...)
			if affinity && prevCore != nil {
				if pc := prevCore[v]; pc >= 0 && freeAt[pc] <= now {
					c = pc
				}
			}
			busy := 0
			for c2 := 0; c2 < m; c2++ {
				if c2 != c && freeAt[c2] > now {
					busy++
				}
			}
			busyFrac := 0.0
			if m > 1 {
				busyFrac = float64(busy) / float64(m-1)
			}
			warm := !cold && prevCore != nil && prevCore[v] == c

			var fetch float64
			pe := t.PredEdges(v)
			for k, p := range t.Pred(v) {
				e := t.Edges[pe[k]]
				cost := plat.CommCost(e, t.Node(p), coreOf[p] == c, busyFrac)
				fetch += cost
				rec.Emit(flight.Event{Kind: flight.KindEdge, Time: now,
					Task: task, Job: job, Node: int32(v), Core: int32(c),
					Cluster: -1, Wave: -1,
					A: float64(p), B: e.Cost, C: cost})
			}
			exec := plat.ExecTime(t.Node(v), warm, busyFrac)

			coreOf[v] = c
			startAt[v] = now
			finish := now + fetch + exec
			freeAt[c] = finish
			*dispatches++
			rec.Emit(flight.Event{Kind: flight.KindDispatch, Time: now,
				Task: task, Job: job, Node: int32(v), Core: int32(c),
				Cluster: -1, Wave: -1,
				A: fetch, B: exec, C: float64(alloc.Model.Ways[v])})
			stats.Comm += fetch
			stats.Exec += exec
			pushCompletion(&events, completion{at: finish, node: v})
		}

		if len(events) == 0 {
			// No running node but undone work: the graph must be
			// disconnected or cyclic — Validate precludes both.
			//lint:ignore hotalloc deadlock diagnostic: built only on a disconnected or cyclic graph, which Validate precludes
			panic("schedsim: deadlock with " + fmt.Sprint(n-done) + " nodes pending")
		}

		// Advance to the next completion; release successors.
		ev := popCompletion(&events)
		now = math.Max(now, ev.at)
		done++
		rec.Emit(flight.Event{Kind: flight.KindFinish, Time: ev.at,
			Task: task, Job: job, Node: int32(ev.node),
			Core: int32(coreOf[ev.node]), Cluster: -1, Wave: -1,
			A: ev.at - startAt[ev.node]})
		for _, s := range t.Succ(ev.node) {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
		if ev.at > stats.Makespan {
			stats.Makespan = ev.at
		}
	}
	sc.ready = ready[:0]
	sc.events = events[:0]
	// The makespan check closes the instance; with no workload deadline
	// the event records A=0, B=0 (met).
	rec.Emit(flight.Event{Kind: flight.KindDeadline, Time: stats.Makespan,
		Task: task, Job: job, Node: -1, Core: -1, Cluster: -1, Wave: -1})
	return stats, coreOf
}

// Makespans extracts the makespan series from instance stats.
func Makespans(stats []InstanceStats) []float64 {
	ms := make([]float64, len(stats))
	for i, s := range stats {
		ms[i] = s.Makespan
	}
	return ms
}

// SortedCopy returns the makespans in ascending order (for percentiles).
func SortedCopy(xs []float64) []float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	return c
}
