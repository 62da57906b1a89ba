package schedsim

import (
	"container/heap"
	"fmt"
	"math"
	"slices"
	"sync"

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
	stats, _, err := run(alloc, plat, opt)
	return stats, err
}

// scratches recycles the per-run scratch (cost tables and per-instance
// arrays) across runs; every field is rewritten before it is read.
var scratches = sync.Pool{New: func() any { return new(scratch) }}

// run is Run that also reports how many instances it simulated rather
// than replayed.
func run(alloc *sched.Result, plat Platform, opt Options) ([]InstanceStats, int, error) {
	opt.fill()
	if opt.Cores < 1 {
		return nil, 0, fmt.Errorf("schedsim: need at least one core, got %d", opt.Cores)
	}
	if err := alloc.Task.Validate(); err != nil {
		return nil, 0, err
	}
	sc := scratches.Get().(*scratch)
	defer scratches.Put(sc)
	tab := &sc.costs
	tab.fill(alloc.Task, plat)

	stats := make([]InstanceStats, 0, opt.Instances)
	// The run's instances and dispatches are tallied here and added to
	// the shared counters once, not per dispatch.
	var instances, dispatches uint64
	var prevCore []int
	// Only the events kernel with no recorder may replay a steady state:
	// those are the runs whose output is the stats alone.
	replay := opt.Kernel != kernel.Ticked && opt.Recorder == nil
	placementFree := tab.placementFree()
	simulated := 0
	for i := 0; i < opt.Instances; i++ {
		var s InstanceStats
		var cores []int
		instances++
		simulated++
		if opt.Kernel == kernel.Ticked {
			s, cores = runInstance(alloc, tab, opt.Cores, i == 0, prevCore,
				opt.Recorder, int32(opt.RecordTask), int32(i), &dispatches)
		} else {
			s, cores = runInstanceEvents(alloc, opt.Cores, i == 0, prevCore,
				opt.Recorder, int32(opt.RecordTask), int32(i), sc, &dispatches)
		}
		stats = append(stats, s)
		// Steady state (DESIGN.md §11): a warm instance is a pure
		// function of the previous placement, so once a warm instance
		// reproduces the placement it started from, every later instance
		// is a copy of it. On a placement-free platform neither the
		// previous placement nor the cold flag reaches any cost, so every
		// instance is a copy of instance 0. Copies count as simulated
		// instances and dispatches so the counters match a full
		// simulation.
		if replay && (placementFree || i >= 1 && slices.Equal(cores, prevCore)) {
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
	return stats, simulated, nil
}

// costs are a run's cost tables: each node's and each edge's uncontended
// term, evaluated once per run, and the two phases' interference
// coefficients. A dispatch pays a term times 1 + k·busyFrac.
type costs struct {
	cold, warm   []float64 // per node: ExecTime(v, false), ExecTime(v, true)
	cross, same  []float64 // per edge: CommCost(e, producer, false), (…, true)
	kExec, kComm float64   // Interference()
	affinity     bool      // Affinity()
}

// fill evaluates plat's terms for every node and edge of t.
func (c *costs) fill(t *dag.Task, plat Platform) {
	n, e := len(t.Nodes), len(t.Edges)
	c.cold, c.warm = growFloats(c.cold, n), growFloats(c.warm, n)
	for i, v := range t.Nodes {
		c.cold[i] = plat.ExecTime(v, false)
		c.warm[i] = plat.ExecTime(v, true)
	}
	c.cross, c.same = growFloats(c.cross, e), growFloats(c.same, e)
	for i, ed := range t.Edges {
		p := t.Nodes[ed.From]
		c.cross[i] = plat.CommCost(ed, p, false)
		c.same[i] = plat.CommCost(ed, p, true)
	}
	c.kExec, c.kComm = plat.Interference()
	c.affinity = plat.Affinity()
}

// placementFree reports whether no cost depends on the previous instance:
// the dispatcher has no affinity and every node's warm term is bit for bit
// its cold term. Edge terms may still depend on the placement within the
// instance, which each instance recomputes identically.
func (c *costs) placementFree() bool {
	if c.affinity {
		return false
	}
	for i, w := range c.warm {
		if math.Float64bits(w) != math.Float64bits(c.cold[i]) {
			return false
		}
	}
	return true
}

// exec returns v's computation time at the given warmth and interference
// factor fe = 1 + kExec·busyFrac.
func (c *costs) exec(v dag.NodeID, warm bool, fe float64) float64 {
	if warm {
		return c.warm[v] * fe
	}
	return c.cold[v] * fe
}

// comm returns edge ei's fetch time at the given placement and
// interference factor fc = 1 + kComm·busyFrac.
func (c *costs) comm(ei int32, sameCore bool, fc float64) float64 {
	if sameCore {
		return c.same[ei] * fc
	}
	return c.cross[ei] * fc
}

// runInstance simulates one release of the task. cold marks the very first
// instance (no platform cache state); prevCore carries the previous
// instance's placement for warm-up and affinity decisions (nil when cold).
// tab holds the run's cost tables. rec, when non-nil, receives the
// instance's flight events stamped with (task, job). Each dispatch adds one
// to *dispatches.
func runInstance(alloc *sched.Result, tab *costs, m int, cold bool, prevCore []int, rec *flight.Recorder, task, job int32, dispatches *uint64) (InstanceStats, []int) {
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
			if tab.affinity && prevCore != nil {
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
			pe := t.PredEdges(v)
			for k, p := range t.Pred(v) {
				cost := tab.comm(pe[k], coreOf[p] == c, 1+tab.kComm*busyFrac)
				fetch += cost
				rec.Emit(flight.Event{Kind: flight.KindEdge, Time: now,
					Task: task, Job: job, Node: int32(v), Core: int32(c),
					Cluster: -1, Wave: -1,
					A: float64(p), B: t.Edges[pe[k]].Cost, C: cost})
			}
			exec := tab.exec(v, warm, 1+tab.kExec*busyFrac)

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

// scratch holds a run's cost tables and the per-instance arrays of the
// events kernel, so that consecutive instances, and runs through the
// scratches pool, reuse one allocation. coreOf is double-buffered:
// the previous instance's placement must stay readable (affinity, warm-up)
// while the current instance writes the other buffer.
type scratch struct {
	costs
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
// hand-rolled heap and scratch reuse, and the rows read through the
// task's view; sc also carries the run's cost tables. It must emit
// byte-identical flight events — the kernel-equivalence tests diff the
// two.
func runInstanceEvents(alloc *sched.Result, m int, cold bool, prevCore []int, rec *flight.Recorder, task, job int32, sc *scratch, dispatches *uint64) (InstanceStats, []int) {
	t := alloc.Task
	g, nodes := t.View(), t.Nodes
	n := len(nodes)
	tab := &sc.costs

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
	for v := range indeg {
		indeg[v] = g.InDegree(dag.NodeID(v))
	}
	freeAt := growFloats(sc.freeAt, m)
	sc.freeAt = freeAt
	for i := range freeAt {
		freeAt[i] = 0
	}
	ready := sc.ready[:0]
	ready = append(ready, g.Source())
	events := sc.events[:0]

	var stats InstanceStats
	now := 0.0
	done := 0

	for done < n {
		// Dispatch while an idle core and a ready node exist
		// (work-conserving).
		for len(ready) > 0 {
			// One scan finds the lowest-numbered idle core, as
			// idleCores()[0] did, and counts the idle cores.
			c, idle := -1, 0
			for cc := 0; cc < m; cc++ {
				if freeAt[cc] <= now {
					if c < 0 {
						c = cc
					}
					idle++
				}
			}
			if c < 0 {
				break
			}
			best, bp := 0, nodes[ready[0]].Priority
			for i := 1; i < len(ready); i++ {
				if pi := nodes[ready[i]].Priority; pi > bp || (pi == bp && ready[i] < ready[best]) {
					best, bp = i, pi
				}
			}
			v := ready[best]
			ready = append(ready[:best], ready[best+1:]...)
			if tab.affinity && prevCore != nil {
				if pc := prevCore[v]; pc >= 0 && freeAt[pc] <= now {
					c = pc
				}
			}
			// The chosen core is idle, so the other busy cores are all
			// the busy ones.
			busyFrac := 0.0
			if m > 1 {
				busyFrac = float64(m-idle) / float64(m-1)
			}
			warm := !cold && prevCore != nil && prevCore[v] == c

			var fetch float64
			fc := 1 + tab.kComm*busyFrac
			pe := g.PredEdges(v)
			for k, p := range g.Pred(v) {
				cost := tab.comm(pe[k], coreOf[p] == c, fc)
				fetch += cost
				if rec != nil {
					rec.Emit(flight.Event{Kind: flight.KindEdge, Time: now,
						Task: task, Job: job, Node: int32(v), Core: int32(c),
						Cluster: -1, Wave: -1,
						A: float64(p), B: t.Edges[pe[k]].Cost, C: cost})
				}
			}
			exec := tab.exec(v, warm, 1+tab.kExec*busyFrac)

			coreOf[v] = c
			startAt[v] = now
			finish := now + fetch + exec
			freeAt[c] = finish
			*dispatches++
			if rec != nil {
				rec.Emit(flight.Event{Kind: flight.KindDispatch, Time: now,
					Task: task, Job: job, Node: int32(v), Core: int32(c),
					Cluster: -1, Wave: -1,
					A: fetch, B: exec, C: float64(alloc.Model.Ways[v])})
			}
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
		if rec != nil {
			rec.Emit(flight.Event{Kind: flight.KindFinish, Time: ev.at,
				Task: task, Job: job, Node: int32(ev.node),
				Core: int32(coreOf[ev.node]), Cluster: -1, Wave: -1,
				A: ev.at - startAt[ev.node]})
		}
		for _, s := range g.Succ(ev.node) {
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
