// Package rtos is the kernel layer of the full-stack framework: a
// FreeRTOS-like executive hosting periodic DAG tasks on the simulated SoC.
// Nodes execute as real RV32I routines (a compute loop, a read loop over
// the predecessors' dependent data, and a write loop producing the node's
// own data); the kernel dispatches them non-preemptively by fixed priority
// (rate-monotonic between tasks, the scheduler's priorities within a task)
// and performs the §4.3 L1.5 reconfiguration on every context switch:
//
//	demand()  — grow the core's way allocation to cover the node's plan
//	            plus the ways still pinned for unconsumed data;
//	ip_set()  — make the owned ways inclusive so the node's stores fill
//	            the L1.5;
//	gv_set()  — on completion, publish the node's ways to the cluster
//	            (read-only) until every consumer has finished.
//
// The kernel talks to the L1.5 through the cluster control port directly —
// exactly what a kernel running the privileged demand instruction does —
// while all data movement happens through the simulated cores' loads and
// stores.
package rtos

import (
	"fmt"
	"sort"

	"l15cache/internal/bitmap"
	"l15cache/internal/cpu"
	"l15cache/internal/dag"
	"l15cache/internal/kernel"
	"l15cache/internal/sched"
	"l15cache/internal/soc"
	"l15cache/internal/tlb"
)

// ecall service numbers used by the generated routines.
const (
	svcNodeDone = 1
	svcIdlePoll = 2
)

// TaskSpec binds a DAG task to its run-time parameters. Node WCETs are
// interpreted as compute iterations (≈2 cycles each on the simulated core);
// data volumes are rounded up to cache lines.
type TaskSpec struct {
	Task *dag.Task
	// PeriodCycles and DeadlineCycles override the task's period/deadline
	// (which the generators express in abstract units) with cycle counts.
	PeriodCycles   uint64
	DeadlineCycles uint64
}

// JobRecord reports one job (one release of one task).
type JobRecord struct {
	Task     int
	Release  uint64
	Finish   uint64
	Deadline uint64
	Missed   bool
}

// Config configures the kernel.
type Config struct {
	SoC soc.Config

	// UseL15 enables the §4.3 reconfiguration protocol. When false the
	// kernel never touches the L1.5 (the CMP baseline on the same
	// silicon): dependent data flows through the L2.
	UseL15 bool

	// JobsPerTask bounds the experiment: each task releases this many
	// jobs (default 2).
	JobsPerTask int

	// MaxInstructions bounds the whole simulation (default 50M).
	MaxInstructions uint64
}

// Kernel is the executive state.
type Kernel struct {
	cfg   Config
	soc   *soc.SoC
	tasks []*taskState

	routineEntry uint32
	parkEntry    uint32

	records []JobRecord
	coreJob []*jobState // per core: running node's job, nil if idle
	coreV   []dag.NodeID

	// Way bookkeeping per core: published (pinned) data ways per node.
	pinned   []map[nodeKey]bitmap.Bitmap
	pinnedBM []bitmap.Bitmap // union per core
	planned  []int           // current node's planned local ways per core

	calls int // handler calls made by Run
}

type nodeKey struct {
	job *jobState
	v   dag.NodeID
}

type taskState struct {
	idx    int
	spec   TaskSpec
	alloc  *sched.Result
	pt     *tlb.PageTable
	rmRank int
	// bufBase[v] is the physical/virtual address of node v's output
	// buffer, bufLen[v] its length.
	bufBase []uint32
	bufLen  []uint32
}

type jobState struct {
	task     *taskState
	release  uint64
	deadline uint64
	indeg    []int
	done     []bool
	coreOf   []int
	succLeft []int
	left     int
	recorded bool
}

// New builds the kernel: assembles the node routine, lays out the data
// buffers, schedules every task (Alg. 1 when UseL15, longest-path-first
// otherwise) and prepares the SoC.
func New(cfg Config, specs []TaskSpec) (*Kernel, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("rtos: no tasks")
	}
	if cfg.JobsPerTask <= 0 {
		cfg.JobsPerTask = 2
	}
	if cfg.MaxInstructions == 0 {
		cfg.MaxInstructions = 50_000_000
	}
	s, err := soc.New(cfg.SoC)
	if err != nil {
		return nil, err
	}
	k := &Kernel{cfg: cfg, soc: s}

	if err := k.loadRoutines(); err != nil {
		return nil, err
	}

	// Buffer allocator: bump pointer above the code.
	next := uint32(0x40000)
	alignUp := func(v, a uint32) uint32 { return (v + a - 1) &^ (a - 1) }

	zeta := cfg.SoC.L15.Ways
	wayBytes := int64(cfg.SoC.L15.WayBytes)
	for i, spec := range specs {
		if err := spec.Task.Validate(); err != nil {
			return nil, fmt.Errorf("rtos: task %d: %w", i, err)
		}
		if spec.PeriodCycles == 0 || spec.DeadlineCycles == 0 {
			return nil, fmt.Errorf("rtos: task %d: zero period/deadline", i)
		}
		task := spec.Task.Clone()
		ts := &taskState{
			idx:     i,
			spec:    spec,
			bufBase: make([]uint32, len(task.Nodes)),
			bufLen:  make([]uint32, len(task.Nodes)),
		}
		if cfg.UseL15 {
			ts.alloc, err = sched.L15Schedule(task, zeta, wayBytes)
		} else {
			ts.alloc, err = sched.LongestPathFirst(task)
		}
		if err != nil {
			return nil, err
		}
		ts.pt = s.IdentityPageTable(uint16(i + 1))
		for _, n := range task.Nodes {
			length := alignUp(uint32(n.Data), 64)
			if length == 0 {
				length = 64
			}
			ts.bufBase[n.ID] = next
			ts.bufLen[n.ID] = length
			next = alignUp(next+length, 4096)
			if int(next) >= cfg.SoC.MemBytes {
				return nil, fmt.Errorf("rtos: out of buffer memory at task %d", i)
			}
		}
		k.tasks = append(k.tasks, ts)
	}

	// Rate-monotonic ranks.
	order := make([]int, len(k.tasks))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return k.tasks[order[a]].spec.PeriodCycles < k.tasks[order[b]].spec.PeriodCycles
	})
	for rank, idx := range order {
		k.tasks[idx].rmRank = rank
	}

	n := len(s.Cores)
	k.coreJob = make([]*jobState, n)
	k.coreV = make([]dag.NodeID, n)
	k.pinned = make([]map[nodeKey]bitmap.Bitmap, n)
	k.pinnedBM = make([]bitmap.Bitmap, n)
	k.planned = make([]int, n)
	for c := range k.pinned {
		k.pinned[c] = map[nodeKey]bitmap.Bitmap{}
	}
	return k, nil
}

// SoC exposes the underlying system (for inspection after Run).
func (k *Kernel) SoC() *soc.SoC { return k.soc }

// routineSrc is the generic node body. The kernel loads the argument
// registers at dispatch:
//
//	a0 output buffer, a1 output bytes, a2 compute iterations,
//	a3 input buffer, a4 input bytes.
const routineSrc = `
entry:
	beqz a2, readp
comp:
	addi a2, a2, -1
	bnez a2, comp
readp:
	beqz a4, writep
rloop:
	lw t0, 0(a3)
	addi a3, a3, 64
	addi a4, a4, -64
	bnez a4, rloop
writep:
	beqz a1, fin
wloop:
	sw t0, 0(a0)
	addi a0, a0, 64
	addi a1, a1, -64
	bnez a1, wloop
fin:
	li a7, 1
	ecall
	j entry
`

// parkSrc is the idle loop: a bounded delay then a kernel poll, modelling
// the timer tick that re-examines the release queue.
const parkSrc = `
park:
	li t6, 32
delay:
	addi t6, t6, -1
	bnez t6, delay
	li a7, 2
	ecall
	j park
`

func (k *Kernel) loadRoutines() error {
	k.routineEntry = 0x1000
	n, err := k.soc.LoadProgram(k.routineEntry, routineSrc)
	if err != nil {
		return err
	}
	k.parkEntry = k.routineEntry + uint32(4*n) + 0x40
	if _, err := k.soc.LoadProgram(k.parkEntry, parkSrc); err != nil {
		return err
	}
	return nil
}

// Run executes the experiment and returns the per-job records.
func (k *Kernel) Run() ([]JobRecord, error) {
	var jobs []*jobState

	// Pre-compute all releases.
	type release struct {
		at   uint64
		task *taskState
	}
	var releases []release
	for _, ts := range k.tasks {
		for j := 0; j < k.cfg.JobsPerTask; j++ {
			releases = append(releases, release{at: uint64(j) * ts.spec.PeriodCycles, task: ts})
		}
	}
	sort.SliceStable(releases, func(a, b int) bool {
		if releases[a].at != releases[b].at {
			return releases[a].at < releases[b].at
		}
		return releases[a].task.rmRank < releases[b].task.rmRank
	})
	ri := 0

	var ready []readyNode
	now := func(c *cpu.Core) uint64 { return c.Cycles }

	admit := func(t uint64) {
		for ri < len(releases) && releases[ri].at <= t {
			ts := releases[ri].task
			j := newJob(ts, releases[ri].at)
			jobs = append(jobs, j)
			ready = append(ready, readyNode{j: j, v: ts.alloc.Task.Source()})
			ri++
		}
	}
	admit(0)

	// Start every core parked.
	for c := range k.soc.Cores {
		k.soc.StartCore(c, k.parkEntry, 0)
		if err := k.soc.SetPageTable(c, k.tasks[0].pt); err != nil {
			return nil, err
		}
	}

	handler := func(core *cpu.Core, trap cpu.Trap) bool {
		k.calls++
		t := now(core)
		admitted := ri
		admit(t)
		svc := core.Regs[17]
		switch svc {
		case svcNodeDone:
			k.completeNode(core, t, &ready)
		case svcIdlePoll:
			// fall through to dispatch
		}
		if k.dispatch(core, &ready) {
			return true
		}
		// Nothing to run. If all work is done and no releases remain,
		// halt the core; otherwise keep it parked so time advances.
		if ri >= len(releases) && len(ready) == 0 && k.allIdleExcept(core) {
			return false
		}
		core.PC = k.parkEntry
		if svc == svcIdlePoll && ri == admitted && len(ready) == 0 {
			// A quiet poll: the core's next polls admit nothing
			// before the next release and, until some other call
			// changes the queues or the cores' jobs, find the same
			// empty queue and the same reason not to halt.
			until := kernel.Never
			if ri < len(releases) {
				until = releases[ri].at
			}
			k.soc.Quiet(core.ID, until)
		}
		return true
	}

	if _, err := k.soc.Run(k.cfg.MaxInstructions, handler); err != nil {
		return nil, err
	}

	// Record outcomes (jobs still unfinished at the end are misses).
	var horizon uint64
	for _, c := range k.soc.Cores {
		if c.Cycles > horizon {
			horizon = c.Cycles
		}
	}
	for _, j := range jobs {
		if !j.recorded {
			k.records = append(k.records, JobRecord{
				Task:     j.task.idx,
				Release:  j.release,
				Finish:   horizon,
				Deadline: j.deadline,
				Missed:   true,
			})
			j.recorded = true
		}
	}
	return k.records, nil
}

type readyNode struct {
	j *jobState
	v dag.NodeID
}

func newJob(ts *taskState, at uint64) *jobState {
	t := ts.alloc.Task
	n := len(t.Nodes)
	j := &jobState{
		task:     ts,
		release:  at,
		deadline: at + ts.spec.DeadlineCycles,
		indeg:    make([]int, n),
		done:     make([]bool, n),
		coreOf:   make([]int, n),
		succLeft: make([]int, n),
		left:     n,
	}
	for id := range t.Nodes {
		v := dag.NodeID(id)
		j.indeg[id] = len(t.Pred(v))
		j.succLeft[id] = len(t.Succ(v))
		j.coreOf[id] = -1
	}
	return j
}

// allIdleExcept reports whether every other core is idle (parked or
// halted).
func (k *Kernel) allIdleExcept(core *cpu.Core) bool {
	for c := range k.soc.Cores {
		if c != core.ID && k.coreJob[c] != nil {
			return false
		}
	}
	return true
}

// dispatch picks the highest-priority ready node and launches it on the
// calling core, performing the context-switch reconfiguration. It returns
// false if no node was ready. With the L1.5 enabled, the kernel (which has
// the comprehensive system view the paper gives it) prefers placing a node
// in the cluster holding its predecessors' published data: if this core is
// in the wrong cluster and an idle core exists in the right one, the node
// is left for that core's next timer poll.
func (k *Kernel) dispatch(core *cpu.Core, ready *[]readyNode) bool {
	if len(*ready) == 0 {
		return false
	}
	best := 0
	for i := 1; i < len(*ready); i++ {
		if readyLess((*ready)[i], (*ready)[best]) {
			best = i
		}
	}
	rn := (*ready)[best]
	if k.cfg.UseL15 {
		if want := k.affinityCluster(rn); want >= 0 && want != core.ID/k.cfg.SoC.ClusterSize {
			if k.idleCoreInCluster(want, core.ID) {
				return false // leave it for the right cluster
			}
		}
	}
	*ready = append((*ready)[:best], (*ready)[best+1:]...)

	j, v := rn.j, rn.v
	ts := j.task
	c := core.ID
	k.coreJob[c] = j
	k.coreV[c] = v
	j.coreOf[v] = c

	// Context switch: address space + TID, then the §4.3 reconfiguration.
	if err := k.soc.SetPageTable(c, ts.pt); err != nil {
		panic(err) // construction guarantees valid cores/page tables
	}
	if k.cfg.UseL15 {
		k.reconfigure(c, j, v)
	}

	// Launch the routine. Input: the heaviest predecessor's buffer.
	node := ts.alloc.Task.Node(v)
	var inBase, inLen uint32
	for _, p := range ts.alloc.Task.Pred(v) {
		if l := ts.bufLen[p]; l > inLen {
			inBase, inLen = ts.bufBase[p], l
		}
	}
	outLen := ts.bufLen[v]
	if len(ts.alloc.Task.Succ(v)) == 0 {
		outLen = 64 // sinks produce no dependent data; one line of result
	}
	core.PC = k.routineEntry
	core.Regs[10] = ts.bufBase[v]         // a0 out buffer
	core.Regs[11] = outLen                // a1 out bytes
	core.Regs[12] = uint32(node.WCET) / 2 // a2 compute iterations (~2cy each)
	core.Regs[13] = inBase                // a3 in buffer
	core.Regs[14] = inLen                 // a4 in bytes
	core.Regs[17] = 0                     // a7 clear service number
	return true
}

// affinityCluster returns the cluster holding the published data of the
// node's heaviest predecessor, or -1 if it has none.
func (k *Kernel) affinityCluster(rn readyNode) int {
	task := rn.j.task.alloc.Task
	bestCl, bestData := -1, int64(-1)
	for _, p := range task.Pred(rn.v) {
		pc := rn.j.coreOf[p]
		if pc < 0 {
			continue
		}
		if _, pinned := k.pinned[pc][nodeKey{rn.j, p}]; !pinned {
			continue
		}
		if d := task.Node(p).Data; d > bestData {
			bestData = d
			bestCl = pc / k.cfg.SoC.ClusterSize
		}
	}
	return bestCl
}

// idleCoreInCluster reports whether some core other than except in the
// cluster is idle (parked, able to pick work up on its next poll).
func (k *Kernel) idleCoreInCluster(cluster, except int) bool {
	lo := cluster * k.cfg.SoC.ClusterSize
	hi := lo + k.cfg.SoC.ClusterSize
	for c := lo; c < hi && c < len(k.soc.Cores); c++ {
		if c != except && k.coreJob[c] == nil && !k.soc.Cores[c].Halted {
			return true
		}
	}
	return false
}

func readyLess(a, b readyNode) bool {
	ra, rb := a.j.task.rmRank, b.j.task.rmRank
	if ra != rb {
		return ra < rb
	}
	if a.j.release != b.j.release {
		return a.j.release < b.j.release
	}
	pa := a.j.task.alloc.Task.Node(a.v).Priority
	pb := b.j.task.alloc.Task.Node(b.v).Priority
	if pa != pb {
		return pa > pb
	}
	return a.v < b.v
}

// reconfigure performs the dispatch-side L1.5 protocol on core c for node
// v: demand enough ways for the pinned data plus the node's plan, and make
// the fresh (non-published) ways inclusive. Work-conserving: the node
// starts immediately; the SDU applies the configuration concurrently
// (§5.3's φ).
func (k *Kernel) reconfigure(c int, j *jobState, v dag.NodeID) {
	cl := k.soc.ClusterOf(c).L15
	local := c % k.cfg.SoC.ClusterSize
	plan := j.task.alloc.Model.Ways[v]
	k.planned[c] = plan
	target := k.pinnedBM[c].Count() + plan
	if max := cl.Config().Ways; target > max {
		target = max
	}
	// The kernel's demand() — privileged, through the control port.
	if err := cl.Demand(local, target); err != nil {
		panic(err)
	}
	// Inclusion policy: every owned way except the published (pinned)
	// ones accepts the node's output. The policy register is masked
	// against ownership at access time, so the ways the SDU is still
	// granting adopt it as they arrive.
	policy := bitmap.FirstN(cl.Config().Ways).Diff(k.pinnedBM[c])
	if err := cl.IPSet(local, policy); err != nil {
		panic(err)
	}
	if err := cl.GVSet(local, k.pinnedBM[c]); err != nil {
		panic(err)
	}
}

// completeNode handles a node's ecall: publish its ways, release its
// consumers, unpin data nobody needs any more, and close the job when the
// sink finishes.
func (k *Kernel) completeNode(core *cpu.Core, t uint64, ready *[]readyNode) {
	c := core.ID
	j := k.coreJob[c]
	if j == nil {
		return
	}
	v := k.coreV[c]
	k.coreJob[c] = nil

	ts := j.task
	task := ts.alloc.Task
	j.done[v] = true
	j.left--

	if k.cfg.UseL15 {
		cl := k.soc.ClusterOf(c).L15
		local := c % k.cfg.SoC.ClusterSize
		owned, _ := cl.Supply(local)
		fresh := owned.Diff(k.pinnedBM[c])
		if j.succLeft[v] > 0 && !fresh.IsEmpty() {
			// Publish: the node's ways stay pinned (read-only,
			// globally visible) until every consumer finishes.
			k.pinned[c][nodeKey{j, v}] = fresh
			k.pinnedBM[c] = k.pinnedBM[c].Union(fresh)
			if err := cl.GVSet(local, k.pinnedBM[c]); err != nil {
				panic(err)
			}
		}
		// Predecessors whose data this node was the last to consume
		// can be unpinned on their producer cores.
		for _, p := range task.Pred(v) {
			j.succLeft[p]--
			if j.succLeft[p] == 0 {
				k.unpin(j, p)
			}
		}
	} else {
		for _, p := range task.Pred(v) {
			j.succLeft[p]--
		}
	}

	for _, s := range task.Succ(v) {
		j.indeg[s]--
		if j.indeg[s] == 0 {
			*ready = append(*ready, readyNode{j: j, v: s})
		}
	}

	if j.left == 0 && !j.recorded {
		k.records = append(k.records, JobRecord{
			Task:     ts.idx,
			Release:  j.release,
			Finish:   t,
			Deadline: j.deadline,
			Missed:   t > j.deadline,
		})
		j.recorded = true
	}
}

// unpin releases the published ways of node v on its producer core and
// shrinks that core's demand accordingly.
func (k *Kernel) unpin(j *jobState, v dag.NodeID) {
	pc := j.coreOf[v]
	if pc < 0 {
		return
	}
	key := nodeKey{j, v}
	bm, ok := k.pinned[pc][key]
	if !ok {
		return
	}
	delete(k.pinned[pc], key)
	// Rebuild the union.
	var union bitmap.Bitmap
	for _, b := range k.pinned[pc] {
		union = union.Union(b)
	}
	k.pinnedBM[pc] = union
	_ = bm

	cl := k.soc.ClusterOf(pc).L15
	local := pc % k.cfg.SoC.ClusterSize
	target := union.Count() + k.planned[pc]
	if k.coreJob[pc] == nil {
		target = union.Count()
	}
	if max := cl.Config().Ways; target > max {
		target = max
	}
	if err := cl.Demand(local, target); err != nil {
		panic(err)
	}
	if err := cl.GVSet(local, union); err != nil {
		panic(err)
	}
}

// Misses counts missed jobs in the records.
func Misses(records []JobRecord) int {
	n := 0
	for _, r := range records {
		if r.Missed {
			n++
		}
	}
	return n
}
