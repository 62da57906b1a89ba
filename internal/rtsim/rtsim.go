// Package rtsim simulates periodic DAG task sets on a multi-core SoC for
// the paper's case study (§5.2, Fig. 8(a,b)) and side-effects analysis
// (§5.3, Fig. 8(c)). Jobs are released periodically, nodes are dispatched by
// a global non-preemptive fixed-priority work-conserving scheduler
// (rate-monotonic between tasks, Alg. 1 / longest-path-first within a task),
// and deadline misses are recorded per job.
//
// For the proposed system the simulator additionally models the per-cluster
// L1.5 Cache at the way level: each dispatched node demands its planned
// number of ways from its cluster's pool, the Supply-Demand Unit configures
// one way at a time (a busy SDU queues requests), granted ways stay
// assigned until every consumer of the node's data has finished, and the
// monitor integrates way utilisation and the mis-configuration ratio φ —
// the fraction of execution time spent before the SDU finished applying the
// node's configuration.
package rtsim

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"

	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/metrics"
	"l15cache/internal/sched"
	"l15cache/internal/schedsim"
)

// Real-time simulator counters on the default registry (atomic; the case
// study fans trials out over goroutines). The granted-ways histogram
// records how many L1.5 ways the Walloc actually handed each dispatched
// node of the proposed system. A run tallies its dispatches and grants
// locally and runSystem flushes them once.
var (
	mTrials      = metrics.Default.Counter("rtsim.trials")
	mJobs        = metrics.Default.Counter("rtsim.jobs_released")
	mMisses      = metrics.Default.Counter("rtsim.deadline_misses")
	mNodes       = metrics.Default.Counter("rtsim.nodes_dispatched")
	mGrantedWays = metrics.Default.Histogram("rtsim.granted_ways",
		[]float64{0, 1, 2, 4, 8, 16, 32})
)

// Kind selects the simulated system.
type Kind int

// The four systems of the case study.
const (
	KindProp Kind = iota
	KindCMPL1
	KindCMPL2
	KindSharedL1
)

// String returns the system's report name.
func (k Kind) String() string {
	switch k {
	case KindProp:
		return "Prop"
	case KindCMPL1:
		return "CMP|L1"
	case KindCMPL2:
		return "CMP|L2"
	case KindSharedL1:
		return "CMP|Shared-L1"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Config describes the simulated SoC and run length.
type Config struct {
	// Cores is the total core count (8 or 16 in the paper).
	Cores int

	// ClusterSize is the number of cores sharing one L1.5 Cache (4).
	ClusterSize int

	// Zeta is ζ, the number of L1.5 ways per cluster (16).
	Zeta int

	// WayBytes is κ (2 KB).
	WayBytes int64

	// HorizonPeriods scales the simulation length: horizon =
	// HorizonPeriods × max task period. Default 4.
	HorizonPeriods float64

	// WayConfigDelay is the SDU's per-way reconfiguration time in task
	// time units, including the request round-trip; requests queue on a
	// busy SDU, which is what makes φ grow with utilisation (default
	// 0.01).
	WayConfigDelay float64

	// Recorder, when non-nil, receives the trial's flight events: the
	// per-task Alg. 1 planning runs, job releases, dispatches with their
	// runtime way grants and SDU occupations, per-edge ETM costs, node
	// finishes, way reclamations and deadline checks. One recorder per
	// trial keeps recordings deterministic under the parallel harness
	// (merge per-trial recordings in index order).
	Recorder *flight.Recorder

	// Partitioned switches from global scheduling to partitioned-by-
	// cluster: each task is bound to one cluster (worst-fit by task
	// load) and its nodes only dispatch on that cluster's cores. This
	// keeps every producer-consumer pair inside one L1.5 — the
	// guaranteed-allocation setting the ETM analysis assumes — at the
	// price of lost global work conservation.
	Partitioned bool

	// Kernel selects the dispatch kernel. The zero value, kernel.Events,
	// keeps its dispatch state incrementally: the idle cores as a set
	// updated at placements and completions, ready nodes ordered by
	// integer keys. kernel.Ticked rescans every core and compares ready
	// nodes field by field on every pass. Both share one event heap and
	// emit byte-identical flight recordings (DESIGN.md §11).
	Kernel kernel.Mode
}

// DefaultConfig mirrors the paper's 8-core SoC (two clusters of four cores,
// each with a 16-way L1.5).
func DefaultConfig() Config {
	return Config{
		Cores:          8,
		ClusterSize:    4,
		Zeta:           16,
		WayBytes:       2 * 1024,
		HorizonPeriods: 4,
		WayConfigDelay: 0.01,
	}
}

func (c *Config) fill() error {
	if c.Cores <= 0 {
		return fmt.Errorf("rtsim: cores = %d", c.Cores)
	}
	if c.ClusterSize <= 0 {
		c.ClusterSize = 4
	}
	if c.Zeta < 0 {
		return fmt.Errorf("rtsim: zeta = %d", c.Zeta)
	}
	if c.WayBytes == 0 {
		c.WayBytes = 2 * 1024
	}
	if c.WayBytes < 0 {
		return fmt.Errorf("rtsim: way bytes = %d", c.WayBytes)
	}
	if c.HorizonPeriods <= 0 {
		c.HorizonPeriods = 4
	}
	if math.IsNaN(c.HorizonPeriods) || math.IsInf(c.HorizonPeriods, 1) {
		return fmt.Errorf("rtsim: horizon periods = %g", c.HorizonPeriods)
	}
	if c.WayConfigDelay < 0 {
		return fmt.Errorf("rtsim: negative way config delay")
	}
	return nil
}

// Metrics reports one simulated trial.
type Metrics struct {
	System Kind

	Jobs   int // jobs released with deadlines inside the horizon
	Misses int // jobs that missed their deadline

	// WayUtilization is the time-averaged fraction of L1.5 ways assigned
	// while the system was busy (proposed system only; zero otherwise).
	WayUtilization float64

	// Phi is the mis-configuration ratio φ: execution time spent under a
	// not-yet-applied way configuration over total execution time
	// (proposed system only).
	Phi float64

	// BusyTime is the span during which at least one job was active.
	BusyTime float64

	// MaxResponse and MeanResponse summarise job response times
	// normalised by the task deadline: a value of 1.0 is a job finishing
	// exactly at its deadline. MaxResponse > 1 implies Misses > 0.
	MaxResponse  float64
	MeanResponse float64
}

// Success reports whether the trial completed without any deadline miss
// (the unit the case study's success ratio counts).
func (m Metrics) Success() bool { return m.Misses == 0 }

// job is one release of a task.
type job struct {
	taskIdx  int
	jobIdx   int // release index of the task (0, 1, ...)
	task     *dag.Task
	g        *dag.View // task's rows, taken at release
	base     int       // the task's first entry in the plan's ways and nodeRank
	key      uint64    // ready-key bits above the node rank (trial.jobShift)
	release  float64
	deadline float64

	indeg    []int
	done     []bool
	coreOf   []int
	startAt  []float64 // dispatch instant per node (flight forensics)
	granted  []int     // Prop: ways granted per node
	cluster  []int     // Prop: cluster holding each node's ways
	succLeft []int     // consumers still running, gates way release
	left     int       // unfinished nodes
	missed   bool
}

// readyNode identifies a dispatchable node. key orders ready nodes for
// the events kernel: a smaller key dispatches first, exactly as readyLess
// orders them.
type readyNode struct {
	j   *job
	v   dag.NodeID
	key uint64
}

// event is a node completion.
type event struct {
	at float64
	j  *job
	v  dag.NodeID
}

// eventHeap is a hand-rolled binary min-heap of completions, replacing the
// container/heap adapter so Push/Pop stop boxing events into interface
// values. The sift algorithm mirrors container/heap step for step (the
// down-child is preferred only on a strictly-smaller comparison), which
// matters because lessEvent is not a strict total order — two jobs of
// different tasks can tie on (at, release, v) — and the pop sequence of
// ties must not change across the refactor.
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }

func lessEvent(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.j.release != b.j.release {
		return a.j.release < b.j.release
	}
	return a.v < b.v
}

func pushEvent(h *eventHeap, e event) {
	*h = append(*h, e)
	j := len(*h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !lessEvent((*h)[j], (*h)[i]) {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func popEvent(h *eventHeap) event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // release the *job reference
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && lessEvent(old[l], old[small]) {
			small = l
		}
		if r < n && lessEvent(old[r], old[small]) {
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

// sim is the mutable state of one system's run.
type sim struct {
	*trial
	*plan
	rec      *flight.Recorder
	kind     Kind
	kernel   kernel.Mode
	plat     *schedsim.CMP // nil for Prop
	relIdx   []int         // task index -> next release index
	prevCore []int         // node table entry -> core of its last dispatch, -1 none

	now    float64
	freeAt []float64
	idle   coreSet // events kernel: the cores c with freeAt[c] <= now
	ready  []readyNode
	events eventHeap

	// Way ownership is sticky, as in the hardware: a way stays assigned
	// to its last owner until the Walloc reassigns it. assigned counts
	// ways with an owner; reclaimable counts the assigned ways whose
	// dependent data is no longer needed (every consumer finished), which
	// the Walloc may hand to the next demand.
	assigned    []int
	reclaimable []int
	sduFreeAt   []float64 // per cluster: SDU busy-until

	// Dispatch scratch, reused across rounds so the steady-state loop
	// allocates nothing: the ticked kernel's idle set rescanned on every
	// pass, and the partitioned events dispatcher's skip mask.
	scan    coreSet
	skipBuf []bool

	// Counter tallies, flushed to the registry once per run: nodes
	// dispatched, and grants[g] dispatches granted g ways (Prop).
	nodes  uint64
	grants []uint64

	// accounting
	wayIntegral  float64 // ∫ used ways dt over busy clusters
	clusterBusy  float64 // ∫ #busy clusters dt
	busyTime     float64
	lastT        float64
	execTotal    float64
	misconfTotal float64
	respSum      float64
	respJobs     int
	metrics      Metrics
}

// trial is the state every system run on one task set shares: what depends
// only on the task set's periods, deadlines and loads, and the free job
// records that newJob reuses.
type trial struct {
	cfg       Config
	horizon   float64
	clusters  int
	rmRank    []int     // task index -> rate-monotonic rank (0 = highest)
	partition []int     // task index -> cluster (Partitioned mode), else nil
	releases  []release // every release inside the horizon, in dispatch order
	free      [][]*job  // task index -> finished jobs

	// A ready key is rmRank<<rankShift | jobIdx<<jobShift | node rank,
	// each field exactly as wide as its largest value needs.
	rankShift, jobShift uint
}

// release is one job release of a task.
type release struct {
	at      float64
	taskIdx int
}

// plan is one planning family's per-task result: clones of the task set
// carrying the family's node priorities (a clone shares its original's
// rows, so every plan reads one dag.View per task) and, with node v of
// task ti at entry base[ti]+v, ways, Alg. 1's way plan (Model.Ways,
// proposed system only), and nodeRank, each node's place in its task by
// Priority desc, then ID.
type plan struct {
	tasks    []*dag.Task
	base     []int
	ways     []int
	nodeRank []uint64
}

// family indexes the planning a system needs. The proposed system plans
// with Alg. 1; every CMP system uses longest-path-first, which does not
// depend on the platform, so the three share one plan.
func family(k Kind) int {
	if k == KindProp {
		return 0
	}
	return 1
}

// Run simulates one trial of the task set on the selected system and
// returns its metrics. The task set is not mutated (tasks are cloned so the
// per-system priority assignment stays internal).
func Run(tasks []*dag.Task, kind Kind, cfg Config) (Metrics, error) {
	ms, err := simulate(tasks, []Kind{kind}, cfg, false)
	if err != nil {
		return Metrics{}, err
	}
	return ms[0], nil
}

// Schedulable reports for each system in kinds whether the task set meets
// every deadline: Schedulable(tasks, kinds, cfg)[i] equals
// Run(tasks, kinds[i], cfg).Success(). It plans once per family (the CMP
// systems share one longest-path-first plan), recycles finished jobs
// across the systems' runs, and stops a system's run at its first
// deadline miss, which can never be undone; a run that meets every
// deadline still simulates the full horizon. The rtsim counters count the
// work simulated. Schedulable records nothing: cfg.Recorder must be nil.
func Schedulable(tasks []*dag.Task, kinds []Kind, cfg Config) ([]bool, error) {
	if cfg.Recorder != nil {
		return nil, fmt.Errorf("rtsim: Schedulable does not record; use Run")
	}
	ms, err := simulate(tasks, kinds, cfg, true)
	if err != nil {
		return nil, err
	}
	ok := make([]bool, len(ms))
	for i, m := range ms {
		ok[i] = m.Success()
	}
	return ok, nil
}

// simulate runs the task set on each system in kinds. With stop set, a
// run ends at its first deadline miss and its metrics are partial. Each
// plan is built for the first system of its family and released after
// the last.
func simulate(tasks []*dag.Task, kinds []Kind, cfg Config, stop bool) ([]Metrics, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if len(tasks) == 0 {
		return nil, fmt.Errorf("rtsim: empty task set")
	}
	var uses [2]int
	for _, k := range kinds {
		if k < KindProp || k > KindSharedL1 {
			return nil, fmt.Errorf("rtsim: unknown system %v", k)
		}
		uses[family(k)]++
	}
	tr, err := newTrial(tasks, cfg)
	if err != nil {
		return nil, err
	}
	var plans [2]*plan
	out := make([]Metrics, len(kinds))
	for i, k := range kinds {
		f := family(k)
		if plans[f] == nil {
			p, err := newPlan(tasks, k == KindProp, cfg)
			if err != nil {
				return nil, err
			}
			plans[f] = p
		}
		out[i] = tr.runSystem(k, plans[f], stop)
		if uses[f]--; uses[f] == 0 {
			plans[f] = nil
		}
	}
	return out, nil
}

// newPlan clones every task and schedules the clone (Alg. 1 when prop is
// set: the way plan and priorities; longest-path-first otherwise).
func newPlan(tasks []*dag.Task, prop bool, cfg Config) (*plan, error) {
	n := len(tasks)
	p := &plan{tasks: make([]*dag.Task, n), base: make([]int, n+1)}
	for ti, t := range tasks {
		p.base[ti+1] = p.base[ti] + len(t.Nodes)
	}
	nodes := p.base[n]
	p.nodeRank = make([]uint64, nodes)
	if prop {
		p.ways = make([]int, nodes)
	}
	var order []dag.NodeID
	for ti, t := range tasks {
		c := t.Clone()
		var res *sched.Result
		var err error
		if prop {
			res, err = sched.L15ScheduleRec(c, cfg.Zeta, cfg.WayBytes, cfg.Recorder, ti)
		} else {
			res, err = sched.LongestPathFirstRec(c, cfg.Recorder, ti)
		}
		if err != nil {
			return nil, err
		}
		p.tasks[ti] = c
		b := p.base[ti]
		order = order[:0]
		for v := range c.Nodes {
			if prop {
				p.ways[b+v] = res.Model.Ways[v]
			}
			order = append(order, dag.NodeID(v))
		}
		slices.SortFunc(order, func(a, b dag.NodeID) int {
			if pa, pb := c.Nodes[a].Priority, c.Nodes[b].Priority; pa != pb {
				return cmp.Compare(pb, pa)
			}
			return cmp.Compare(a, b)
		})
		for r, v := range order {
			p.nodeRank[b+int(v)] = uint64(r)
		}
	}
	return p, nil
}

// newTrial derives the horizon, the rate-monotonic ranks, the cluster
// partition, the release sequence and the ready-key layout of the task
// set.
func newTrial(tasks []*dag.Task, cfg Config) (*trial, error) {
	tr := &trial{
		cfg:      cfg,
		clusters: (cfg.Cores + cfg.ClusterSize - 1) / cfg.ClusterSize,
		free:     make([][]*job, len(tasks)),
	}
	var maxPeriod float64
	for _, t := range tasks {
		if !(t.Period > 0) || math.IsInf(t.Period, 1) || math.IsNaN(t.Deadline) || math.IsInf(t.Deadline, 0) {
			return nil, fmt.Errorf("rtsim: task %q: period %g must be positive and finite, deadline %g finite",
				t.Name, t.Period, t.Deadline)
		}
		if t.Period > maxPeriod {
			maxPeriod = t.Period
		}
	}
	tr.horizon = cfg.HorizonPeriods * maxPeriod

	// Rate-monotonic ranks: shorter period = higher priority.
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return tasks[order[a]].Period < tasks[order[b]].Period
	})
	tr.rmRank = make([]int, len(tasks))
	for rank, idx := range order {
		tr.rmRank[idx] = rank
	}

	if cfg.Partitioned {
		tr.partition = partitionTasks(tasks, tr.clusters)
	}

	// Every release inside the horizon, by time, then rate-monotonic rank.
	var maxJobs, maxNodes int
	for i, t := range tasks {
		k := 0
		for ; withinHorizon(k, t.Period, t.Deadline, cfg.HorizonPeriods, maxPeriod); k++ {
			tr.releases = append(tr.releases, release{at: float64(k) * t.Period, taskIdx: i})
		}
		maxJobs, maxNodes = max(maxJobs, k), max(maxNodes, len(t.Nodes))
	}
	width := func(n int) uint { return uint(bits.Len(uint(max(n-1, 0)))) }
	tr.jobShift = width(maxNodes)
	tr.rankShift = tr.jobShift + width(maxJobs)
	if tr.rankShift+width(len(tasks)) > 64 {
		return nil, fmt.Errorf("rtsim: %d tasks, %d jobs of a task and %d nodes of a task overflow a 64-bit ready key",
			len(tasks), maxJobs, maxNodes)
	}
	sort.SliceStable(tr.releases, func(a, b int) bool {
		ra, rb := tr.releases[a], tr.releases[b]
		if ra.at != rb.at {
			return ra.at < rb.at
		}
		return tr.rmRank[ra.taskIdx] < tr.rmRank[rb.taskIdx]
	})
	return tr, nil
}

// withinHorizon reports whether the job a task releases at k·period meets
// its deadline inside the horizon, k·period + deadline ≤ h·maxPeriod, in
// exact arithmetic on the float inputs. Rounding each side, as a plain
// float test does, puts 9T + T above 10T for about one period in eight and
// so drops the longest-period task's last job. Each product splits into its
// rounded value and its exact error (FMA); the five terms sum into a
// non-overlapping expansion (Shewchuk's GROW-EXPANSION with zero
// elimination), whose largest component has the sign of the exact sum.
func withinHorizon(k int, period, deadline, h, maxPeriod float64) bool {
	kf := float64(k)
	p1, p2 := kf*period, h*maxPeriod
	terms := [5]float64{p1, math.FMA(kf, period, -p1), deadline, -p2, -math.FMA(h, maxPeriod, -p2)}
	var exp [5]float64
	n := 0
	for _, q := range terms {
		m := 0
		for _, c := range exp[:n] {
			sum := q + c
			cv := sum - q
			if e := (q - (sum - cv)) + (c - cv); e != 0 {
				exp[m] = e
				m++
			}
			q = sum
		}
		if q != 0 {
			exp[m] = q
			m++
		}
		n = m
	}
	return n == 0 || exp[n-1] < 0
}

// runSystem simulates the trial on one system with its family's plan and
// flushes the run's counters.
func (tr *trial) runSystem(kind Kind, p *plan, stop bool) Metrics {
	s := tr.newSim(kind, p)
	s.run(stop)
	s.metrics.System = kind
	mTrials.Inc()
	mJobs.Add(uint64(s.metrics.Jobs))
	mMisses.Add(uint64(s.metrics.Misses))
	mNodes.Add(s.nodes)
	for g, n := range s.grants {
		mGrantedWays.ObserveN(float64(g), n)
	}
	return s.metrics
}

// newSim builds the idle state of one system's run: every core idle, no
// job released.
func (tr *trial) newSim(kind Kind, p *plan) *sim {
	cfg := tr.cfg
	s := &sim{trial: tr, plan: p, rec: cfg.Recorder, kind: kind, kernel: cfg.Kernel}
	switch kind {
	case KindProp:
		// A grant never exceeds ζ: a cluster's assigned ways minus its
		// reclaimable ones are the ways its nodes hold.
		s.grants = make([]uint64, cfg.Zeta+1)
	case KindCMPL1:
		s.plat = schedsim.CMPL1()
	case KindCMPL2:
		s.plat = schedsim.CMPL2()
	case KindSharedL1:
		s.plat = schedsim.SharedL1()
	}
	s.freeAt = make([]float64, cfg.Cores)
	s.idle, s.scan = newCoreSet(cfg.Cores), newCoreSet(cfg.Cores)
	for c := range cfg.Cores {
		s.idle.add(c)
	}
	s.relIdx = make([]int, len(p.tasks))
	s.prevCore = make([]int, len(p.nodeRank))
	for i := range s.prevCore {
		s.prevCore[i] = -1
	}
	s.assigned = make([]int, s.clusters)
	s.reclaimable = make([]int, s.clusters)
	s.sduFreeAt = make([]float64, s.clusters)
	return s
}

// jobRef names one release's incarnation of a recycled job record.
type jobRef struct {
	j      *job
	jobIdx int
}

// run executes the event loop: releases and completions in time order, with
// a dispatch pass after every event. With stop set it ends at the first
// deadline miss.
func (s *sim) run(stop bool) {
	jobs := make([]jobRef, 0, len(s.releases))
	ri, stopped := 0, false
	for ri < len(s.releases) || s.events.Len() > 0 {
		// Next event time: release or completion.
		next := math.Inf(1)
		if ri < len(s.releases) {
			next = s.releases[ri].at
		}
		if s.events.Len() > 0 && s.events[0].at < next {
			next = s.events[0].at
		}
		s.integrate(next)
		s.now = next

		// Process completions at this instant first (frees cores and
		// ways before new dispatches). The node's core is idle again,
		// unless the node had zero length and the core took another
		// node at the same instant.
		for s.events.Len() > 0 && s.events[0].at <= s.now {
			ev := popEvent(&s.events)
			if c := ev.j.coreOf[ev.v]; s.freeAt[c] <= s.now {
				s.idle.add(c)
			}
			s.complete(ev.j, ev.v)
		}
		if stop && s.metrics.Misses > 0 {
			stopped = true
			break
		}
		// Then releases.
		for ri < len(s.releases) && s.releases[ri].at <= s.now {
			rel := s.releases[ri]
			ri++
			j := s.newJob(rel.taskIdx, rel.at)
			jobs = append(jobs, jobRef{j: j, jobIdx: j.jobIdx})
			s.metrics.Jobs++
			s.ready = append(s.ready, s.readyOf(j, j.g.Source()))
		}
		s.dispatch()
	}
	// Any job still unfinished at the horizon missed its deadline (the
	// deadline was inside the horizon by construction). A stopped run
	// already has its miss.
	for _, r := range jobs {
		j := r.j
		if j.jobIdx != r.jobIdx || j.left == 0 {
			continue // finished, maybe reused by a later release
		}
		if !stopped && !j.missed {
			j.missed = true
			s.metrics.Misses++
			s.rec.Emit(flight.Event{Kind: flight.KindDeadline,
				Time: s.horizon, Task: int32(j.taskIdx),
				Job: int32(j.jobIdx), Node: -1, Core: -1,
				Cluster: -1, Wave: -1, A: j.deadline, B: 1})
		}
		s.recycle(j)
	}
	if s.clusterBusy > 0 && s.cfg.Zeta > 0 {
		s.metrics.WayUtilization = s.wayIntegral / (s.clusterBusy * float64(s.cfg.Zeta))
	}
	if s.execTotal > 0 {
		s.metrics.Phi = s.misconfTotal / s.execTotal
	}
	s.metrics.BusyTime = s.busyTime
	if s.respJobs > 0 {
		s.metrics.MeanResponse = s.respSum / float64(s.respJobs)
	}
}

// newJob releases the next job of a task. It reuses a free job record of
// the task when there is one, reset to exactly what a fresh record holds.
func (s *sim) newJob(taskIdx int, at float64) *job {
	t := s.tasks[taskIdx]
	n := len(t.Nodes)
	b := s.base[taskIdx]
	var j *job
	if free := s.free[taskIdx]; len(free) > 0 {
		j = free[len(free)-1]
		s.free[taskIdx] = free[:len(free)-1]
	} else {
		// One backing array serves all five int-valued per-node
		// fields; a job costs three allocations instead of seven.
		ints := make([]int, 5*n)
		j = &job{
			indeg:    ints[0*n : 1*n],
			done:     make([]bool, n),
			coreOf:   ints[1*n : 2*n],
			startAt:  make([]float64, n),
			granted:  ints[2*n : 3*n],
			cluster:  ints[3*n : 4*n],
			succLeft: ints[4*n : 5*n],
		}
	}
	j.taskIdx = taskIdx
	j.jobIdx = s.relIdx[taskIdx]
	j.task = t
	j.g = t.View()
	j.base = b
	j.key = uint64(s.rmRank[taskIdx])<<s.rankShift | uint64(j.jobIdx)<<s.jobShift
	j.release = at
	j.deadline = at + t.Deadline
	j.left = n
	j.missed = false
	s.relIdx[taskIdx]++
	s.rec.Emit(flight.Event{Kind: flight.KindRelease, Time: at,
		Task: int32(taskIdx), Job: int32(j.jobIdx), Node: -1, Core: -1,
		Cluster: -1, Wave: -1, A: j.deadline})
	for id := range n {
		v := dag.NodeID(id)
		j.indeg[id] = j.g.InDegree(v)
		j.succLeft[id] = len(j.g.Succ(v))
		j.coreOf[id] = -1
		j.cluster[id] = -1
		j.granted[id] = 0
		j.done[id] = false
		j.startAt[id] = 0
	}
	return j
}

// recycle returns a job record to its task's free list.
func (s *sim) recycle(j *job) {
	j.task, j.g = nil, nil
	s.free[j.taskIdx] = append(s.free[j.taskIdx], j)
}

// integrate advances the way-utilisation and busy-time accumulators to t.
func (s *sim) integrate(t float64) {
	if math.IsInf(t, 1) || t <= s.lastT {
		s.lastT = math.Max(s.lastT, t)
		return
	}
	dt := t - s.lastT
	busy := false
	// Way utilisation is accounted per cluster, over the time the
	// cluster has work: an idle cluster's ways are unassigned by design,
	// not wasted (§5.3 measures the cache "in busy periods").
	// Since the last event nothing has changed, so lastT is the instant
	// the events kernel's idle set describes.
	for cl := 0; cl < s.clusters; cl++ {
		lo, hi := s.clusterCores(cl)
		clBusy := false
		if s.kernel == kernel.Ticked {
			for c := lo; c < hi; c++ {
				if s.freeAt[c] > s.lastT {
					clBusy = true
					break
				}
			}
		} else {
			clBusy = !s.idle.full(lo, hi)
		}
		if clBusy {
			busy = true
			s.clusterBusy += dt
			s.wayIntegral += float64(s.assigned[cl]) * dt
		}
	}
	if !busy && len(s.ready) > 0 {
		busy = true
	}
	if busy {
		s.busyTime += dt
	}
	s.lastT = t
}

// partitionTasks binds each task to a cluster, worst-fit decreasing by
// load (computation plus communication over period), so the clusters stay
// balanced.
func partitionTasks(tasks []*dag.Task, clusters int) []int {
	partition := make([]int, len(tasks))
	load := make([]float64, clusters)
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	taskLoad := func(i int) float64 {
		t := tasks[i]
		var comm float64
		for _, e := range t.Edges {
			comm += e.Cost
		}
		return (t.Volume() + comm) / t.Period
	}
	sort.SliceStable(order, func(a, b int) bool {
		return taskLoad(order[a]) > taskLoad(order[b])
	})
	for _, idx := range order {
		best := 0
		for cl := 1; cl < clusters; cl++ {
			if load[cl] < load[best] {
				best = cl
			}
		}
		partition[idx] = best
		load[best] += taskLoad(idx)
	}
	return partition
}

// dispatch places ready nodes on idle cores, highest priority first. In
// partitioned mode a node may only use its task's cluster. The events
// kernel reads the idle set and the ready keys it keeps; the ticked kernel
// rebuilds both from scratch on every pass. Both visit nodes and cores in
// the same order.
func (s *sim) dispatch() {
	if s.kernel == kernel.Ticked {
		s.dispatchTicked()
		return
	}
	for s.idle.n > 0 && len(s.ready) > 0 {
		if s.partition == nil {
			s.place(s.takeReady(s.pickReady()), &s.idle, 0, s.cfg.Cores)
			continue
		}
		// Partitioned: serve the highest-priority ready node whose
		// cluster has an idle core; stop when none can be placed.
		skip := s.skipBuf[:0]
		for range s.ready {
			skip = append(skip, false)
		}
		s.skipBuf = skip
		for {
			ri := s.pickReadySkipping(skip)
			if ri < 0 {
				return
			}
			lo, hi := s.clusterCores(s.partition[s.ready[ri].j.taskIdx])
			if s.idle.next(lo, hi) >= 0 {
				s.place(s.takeReady(ri), &s.idle, lo, hi)
				break
			}
			skip[ri] = true
		}
	}
}

// dispatchTicked is the ticked kernel's dispatcher, the oracle the
// kernel-equivalence tests diff the events dispatcher against: it rescans
// freeAt for the idle cores on every pass and orders ready nodes with
// readyLess instead of their keys.
func (s *sim) dispatchTicked() {
	for {
		idle := &s.scan
		idle.clear()
		for c, f := range s.freeAt {
			if f <= s.now {
				idle.add(c)
			}
		}
		if idle.n == 0 || len(s.ready) == 0 {
			return
		}
		if s.partition == nil {
			ri := s.pickReadyExcluding(nil)
			rn := s.ready[ri]
			s.ready = append(s.ready[:ri], s.ready[ri+1:]...)
			s.place(rn, idle, 0, s.cfg.Cores)
			continue
		}
		placed := false
		taken := make(map[int]bool) //lint:ignore hotalloc legacy ticked dispatcher, kept verbatim for the kernel-equivalence harness
		for !placed {
			ri := s.pickReadyExcluding(taken)
			if ri < 0 {
				return
			}
			rn := s.ready[ri]
			lo, hi := s.clusterCores(s.partition[rn.j.taskIdx])
			if idle.next(lo, hi) < 0 {
				taken[ri] = true
				continue
			}
			s.ready = append(s.ready[:ri], s.ready[ri+1:]...)
			s.place(rn, idle, lo, hi)
			placed = true
		}
	}
}

// clusterCores returns the cores [lo, hi) of cluster cl.
func (s *sim) clusterCores(cl int) (lo, hi int) {
	lo = cl * s.cfg.ClusterSize
	return lo, min(lo+s.cfg.ClusterSize, s.cfg.Cores)
}

// pickReadyExcluding returns the best ready index not in skip, or -1,
// comparing with readyLess.
func (s *sim) pickReadyExcluding(skip map[int]bool) int {
	best := -1
	for i := range s.ready {
		if skip[i] {
			continue
		}
		if best < 0 || s.readyLess(s.ready[i], s.ready[best]) {
			best = i
		}
	}
	return best
}

// pickReadySkipping is pickReady over the ready nodes not masked in skip;
// -1 when every one is.
func (s *sim) pickReadySkipping(skip []bool) int {
	best := -1
	for i := range s.ready {
		if !skip[i] && (best < 0 || s.ready[i].key < s.ready[best].key) {
			best = i
		}
	}
	return best
}

// pickReady returns the index of the ready node with the smallest key:
// rate-monotonic task rank, then job release, then Alg. 1 node priority.
func (s *sim) pickReady() int {
	best := 0
	for i := 1; i < len(s.ready); i++ {
		if s.ready[i].key < s.ready[best].key {
			best = i
		}
	}
	return best
}

// takeReady removes and returns ready node ri. Keys are distinct, so the
// ready list's order is free and the last node fills the gap.
func (s *sim) takeReady(ri int) readyNode {
	rn := s.ready[ri]
	last := len(s.ready) - 1
	s.ready[ri] = s.ready[last]
	s.ready = s.ready[:last]
	return rn
}

// readyOf returns node v of job j as a ready node with its key.
func (s *sim) readyOf(j *job, v dag.NodeID) readyNode {
	return readyNode{j: j, v: v, key: j.key | s.nodeRank[j.base+int(v)]}
}

func (s *sim) readyLess(a, b readyNode) bool {
	ra, rb := s.rmRank[a.j.taskIdx], s.rmRank[b.j.taskIdx]
	if ra != rb {
		return ra < rb
	}
	if a.j.release != b.j.release {
		return a.j.release < b.j.release
	}
	pa, pb := a.j.task.Node(a.v).Priority, b.j.task.Node(b.v).Priority
	if pa != pb {
		return pa > pb
	}
	return a.v < b.v
}

// place assigns the node to an idle core in [lo, hi) and schedules its
// completion, taking the core out of idle unless the node has zero
// length.
func (s *sim) place(rn readyNode, idle *coreSet, lo, hi int) {
	j, v := rn.j, rn.v
	i := j.base + int(v)

	c := s.chooseCore(j, v, idle, lo, hi)
	cl := c / s.cfg.ClusterSize

	// c is idle, so every busy core is another core.
	busy := s.cfg.Cores - idle.n
	busyFrac := 0.0
	if s.cfg.Cores > 1 {
		busyFrac = float64(busy) / float64(s.cfg.Cores-1)
	}

	var fetch, exec, misconf float64
	switch s.kind {
	case KindProp:
		grant := 0
		if plan := s.ways[i]; plan > 0 && s.cfg.Zeta > 0 {
			// The Walloc serves a demand from unowned slots first,
			// then by reclaiming released (but still assigned)
			// ways, one way at a time.
			avail := (s.cfg.Zeta - s.assigned[cl]) + s.reclaimable[cl]
			grant = plan
			if avail < grant {
				grant = avail
			}
			if grant < 0 {
				grant = 0
			}
			fresh := s.cfg.Zeta - s.assigned[cl]
			if fresh > grant {
				fresh = grant
			}
			s.assigned[cl] += fresh
			s.reclaimable[cl] -= grant - fresh
		}
		j.granted[v] = grant
		j.cluster[v] = cl
		s.grants[grant]++
		s.rec.Emit(flight.Event{Kind: flight.KindGrant, Time: s.now,
			Task: int32(j.taskIdx), Job: int32(j.jobIdx), Node: int32(v),
			Core: int32(c), Cluster: int32(cl), Wave: -1,
			A: float64(s.ways[i]), B: float64(grant),
			C: float64(s.assigned[cl])})

		// SDU: one way at a time, FIFO per cluster. The node starts
		// executing immediately (the configuration happens during the
		// context switch, in parallel); time executed before the SDU
		// finishes counts toward φ.
		if grant > 0 && s.cfg.WayConfigDelay > 0 {
			start := math.Max(s.now, s.sduFreeAt[cl])
			finish := start + float64(grant)*s.cfg.WayConfigDelay
			s.sduFreeAt[cl] = finish
			misconf = finish - s.now
			s.rec.Emit(flight.Event{Kind: flight.KindSDU, Time: s.now,
				Task: int32(j.taskIdx), Job: int32(j.jobIdx),
				Node: int32(v), Core: int32(c), Cluster: int32(cl),
				Wave: -1, A: float64(grant), B: finish, C: misconf})
		}

		for _, ei := range j.g.PredEdges(v) {
			e := j.task.Edges[ei]
			p := e.From
			n := j.granted[p]
			if j.cluster[p] != cl {
				// Cross-cluster: the producer's L1.5 ways are
				// not visible here; the data travels through
				// the (uncontended) L2.
				n = 0
			}
			cost := etm.Cost(e.Cost, e.Alpha, j.task.Nodes[p].Data, s.cfg.WayBytes, n)
			fetch += cost
			s.rec.Emit(flight.Event{Kind: flight.KindEdge, Time: s.now,
				Task: int32(j.taskIdx), Job: int32(j.jobIdx),
				Node: int32(v), Core: int32(c), Cluster: int32(cl),
				Wave: -1, A: float64(p), B: e.Cost, C: cost})
		}
		exec = j.task.Nodes[v].WCET
	default:
		warm := s.prevCore[i] == c
		kExec, kComm := s.plat.Interference()
		fc := 1 + kComm*busyFrac
		for _, ei := range j.g.PredEdges(v) {
			e := j.task.Edges[ei]
			p := e.From
			cost := s.plat.CommCost(e, j.task.Nodes[p], j.coreOf[p] == c) * fc
			fetch += cost
			s.rec.Emit(flight.Event{Kind: flight.KindEdge, Time: s.now,
				Task: int32(j.taskIdx), Job: int32(j.jobIdx),
				Node: int32(v), Core: int32(c), Cluster: -1,
				Wave: -1, A: float64(p), B: e.Cost, C: cost})
		}
		exec = s.plat.ExecTime(j.task.Nodes[v], warm) * (1 + kExec*busyFrac)
	}

	j.coreOf[v] = c
	j.startAt[v] = s.now
	s.prevCore[i] = c
	s.nodes++
	dur := fetch + exec
	if misconf > dur {
		misconf = dur
	}
	s.execTotal += dur
	s.misconfTotal += misconf
	s.rec.Emit(flight.Event{Kind: flight.KindDispatch, Time: s.now,
		Task: int32(j.taskIdx), Job: int32(j.jobIdx), Node: int32(v),
		Core: int32(c), Cluster: int32(cl), Wave: -1,
		A: fetch, B: exec, C: float64(j.granted[v])})
	s.freeAt[c] = s.now + dur
	if s.freeAt[c] > s.now {
		idle.remove(c)
	}
	pushEvent(&s.events, event{at: s.now + dur, j: j, v: v})
}

// chooseCore picks among the idle cores in [lo, hi), which hold at least
// one: baselines with affinity prefer the previous instance's core; the
// proposed system prefers an idle core in the cluster already holding the
// heaviest predecessor's ways. Ties go to the lowest core.
func (s *sim) chooseCore(j *job, v dag.NodeID, idle *coreSet, lo, hi int) int {
	if s.kind == KindProp {
		bestCl, bestData := -1, int64(-1)
		for _, p := range j.g.Pred(v) {
			if d := j.task.Nodes[p].Data; j.granted[p] > 0 && d > bestData {
				bestData, bestCl = d, j.cluster[p]
			}
		}
		if bestCl >= 0 {
			clLo, clHi := s.clusterCores(bestCl)
			if c := idle.next(max(lo, clLo), min(hi, clHi)); c >= 0 {
				return c
			}
		}
		// No affinity: pick the idle core whose cluster can satisfy
		// the largest demand (unowned plus reclaimable ways), keeping
		// the clusters balanced.
		best, bestFree := idle.next(lo, hi), -1
		for c := best; c >= 0; c = idle.next(c+1, hi) {
			cl := c / s.cfg.ClusterSize
			if free := (s.cfg.Zeta - s.assigned[cl]) + s.reclaimable[cl]; free > bestFree {
				best, bestFree = c, free
			}
		}
		return best
	}
	if s.plat.Affinity() {
		if pc := s.prevCore[j.base+int(v)]; pc >= lo && pc < hi && idle.has(pc) {
			return pc
		}
	}
	return idle.next(lo, hi)
}

// complete finishes a node: releases ways whose consumers are all done,
// marks new ready nodes, and checks the job deadline at the sink.
func (s *sim) complete(j *job, v dag.NodeID) {
	j.done[v] = true
	j.left--
	s.rec.Emit(flight.Event{Kind: flight.KindFinish, Time: s.now,
		Task: int32(j.taskIdx), Job: int32(j.jobIdx), Node: int32(v),
		Core: int32(j.coreOf[v]), Cluster: int32(j.cluster[v]), Wave: -1,
		A: s.now - j.startAt[v]})

	if s.kind == KindProp {
		// A node with no successors never held ways; otherwise its
		// ways stay assigned (turned global) until every consumer has
		// finished reading the dependent data.
		if j.succLeft[v] == 0 {
			s.releaseWays(j, v)
		}
		for _, p := range j.g.Pred(v) {
			j.succLeft[p]--
			if j.succLeft[p] == 0 && j.done[p] {
				s.releaseWays(j, p)
			}
		}
	}

	for _, nxt := range j.g.Succ(v) {
		j.indeg[nxt]--
		if j.indeg[nxt] == 0 {
			s.ready = append(s.ready, s.readyOf(j, nxt))
		}
	}

	if j.left == 0 {
		var resp float64
		if rel := j.task.Deadline; rel > 0 {
			resp = (s.now - j.release) / rel
			s.respSum += resp
			s.respJobs++
			if resp > s.metrics.MaxResponse {
				s.metrics.MaxResponse = resp
			}
		}
		if s.now > j.deadline && !j.missed {
			j.missed = true
			s.metrics.Misses++
		}
		missFlag := 0.0
		if j.missed {
			missFlag = 1
		}
		s.rec.Emit(flight.Event{Kind: flight.KindDeadline, Time: s.now,
			Task: int32(j.taskIdx), Job: int32(j.jobIdx), Node: -1,
			Core: -1, Cluster: -1, Wave: -1,
			A: j.deadline, B: missFlag, C: resp})
		// Job teardown: the kernel revokes the way bindings the job
		// no longer needs (supply()/demand(0) during the final context
		// switch), returning released ways in this cluster to the
		// unowned pool. This is what keeps the monitor's way
		// utilisation below a flat 100%.
		if s.kind == KindProp {
			// Roughly half of the cluster's released ways belong
			// to this job on average; the kernel only tears down
			// its own bindings.
			cl := j.coreOf[v] / s.cfg.ClusterSize
			drop := (s.reclaimable[cl] + 1) / 2
			s.assigned[cl] -= drop
			s.reclaimable[cl] -= drop
			if drop > 0 {
				s.rec.Emit(flight.Event{Kind: flight.KindWayFree,
					Time: s.now, Task: int32(j.taskIdx),
					Job: int32(j.jobIdx), Node: -1, Core: -1,
					Cluster: int32(cl), Wave: -1,
					A: float64(drop),
					B: float64(s.reclaimable[cl]),
					C: float64(s.assigned[cl])})
			}
		}
		s.recycle(j)
	}
}

// releaseWays marks the node's ways reclaimable. The ways remain assigned
// (the monitor still counts them) until the Walloc hands them to a new
// demand.
func (s *sim) releaseWays(j *job, v dag.NodeID) {
	if g := j.granted[v]; g > 0 {
		s.reclaimable[j.cluster[v]] += g
		j.granted[v] = 0
		s.rec.Emit(flight.Event{Kind: flight.KindWayFree, Time: s.now,
			Task: int32(j.taskIdx), Job: int32(j.jobIdx), Node: int32(v),
			Core: -1, Cluster: int32(j.cluster[v]), Wave: -1,
			A: float64(g), B: float64(s.reclaimable[j.cluster[v]])})
	}
}

// coreSet is a set of core indices, one bit per core in as many 64-bit
// words as the core count needs; n is its size.
type coreSet struct {
	w []uint64
	n int
}

func newCoreSet(cores int) coreSet { return coreSet{w: make([]uint64, (cores+63)/64)} }

func (cs *coreSet) has(c int) bool { return cs.w[c>>6]&(1<<uint(c&63)) != 0 }

func (cs *coreSet) add(c int) {
	if !cs.has(c) {
		cs.w[c>>6] |= 1 << uint(c&63)
		cs.n++
	}
}

func (cs *coreSet) remove(c int) {
	if cs.has(c) {
		cs.w[c>>6] &^= 1 << uint(c&63)
		cs.n--
	}
}

func (cs *coreSet) clear() {
	clear(cs.w)
	cs.n = 0
}

// next returns the lowest member in [lo, hi), or -1.
func (cs *coreSet) next(lo, hi int) int {
	for wi := lo >> 6; lo < hi; wi++ {
		if w := cs.w[wi] >> uint(lo&63); w != 0 {
			if c := lo + bits.TrailingZeros64(w); c < hi {
				return c
			}
			return -1
		}
		lo = (wi + 1) << 6
	}
	return -1
}

// full reports whether every core in [lo, hi) is a member.
func (cs *coreSet) full(lo, hi int) bool {
	for lo < hi {
		wi := lo >> 6
		end := min(hi, (wi+1)<<6)
		mask := (^uint64(0) >> uint(64-(end-lo))) << uint(lo&63)
		if cs.w[wi]&mask != mask {
			return false
		}
		lo = end
	}
	return true
}
