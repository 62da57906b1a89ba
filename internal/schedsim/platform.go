// Package schedsim re-implements the discrete-event DAG simulator of Zhao
// et al. (RTNS'23 [15]) that the paper's makespan evaluation (Fig. 7,
// Tab. 2) runs on: m cores, non-preemptive fixed-priority work-conserving
// list scheduling, per-edge communication costs paid by the consumer core,
// and per-platform cache behaviour (warm-up, affinity, interference, or the
// L1.5 ETM).
package schedsim

import (
	"l15cache/internal/dag"
	"l15cache/internal/etm"
	"l15cache/internal/sched"
)

// Platform models how a hardware system executes one scheduled DAG node:
// how long its computation runs and how expensive each incoming edge's data
// transfer is. The simulator is agnostic to which concrete system is behind
// the interface.
//
// Every cost has the form term·(1 + k·busyFrac): an uncontended term that
// depends on the node or edge and its placement, times an interference
// factor that depends only on the phase (computation or communication) and
// on busyFrac, the fraction of the other cores busy when the node starts.
// Run evaluates each node's and each edge's terms once per run and then
// multiplies one table entry by one factor per dispatch.
//
// Implementations must be pure: every method's result depends on its
// arguments and the platform's fixed parameters only, never on call
// history, and no method mutates the node, the edge or the *sched.Result
// it reads. Run relies on this to replay steady-state instances instead
// of simulating them (DESIGN.md §11), and the makespan harness to share
// one schedule between platforms.
type Platform interface {
	// Name identifies the system in reports (e.g. "Prop", "CMP|L1").
	Name() string

	// ExecTime returns the uncontended duration of v's computation
	// phase. warm reports whether the node runs on the same core as in
	// the previous task instance (its private-cache contents may
	// survive).
	ExecTime(v *dag.Node, warm bool) float64

	// CommCost returns the uncontended time the consumer core spends
	// fetching the dependent data of edge e. sameCore reports whether
	// producer and consumer were placed on the same core.
	CommCost(e dag.Edge, producer *dag.Node, sameCore bool) float64

	// Interference returns the coefficients k of the computation and
	// communication phases: a phase whose uncontended time is t takes
	// t·(1 + k·busyFrac). Shared-cache systems translate busy cores into
	// interference this way; k = 0 means none.
	Interference() (exec, comm float64)

	// Affinity reports whether the dispatcher should prefer re-placing a
	// node on the core it used in the previous instance (the
	// "learned recency" placement bias of [15]).
	Affinity() bool
}

// Proposed is the paper's system: the L1.5 Cache plus Algorithm 1. Node
// computation is undisturbed (way-level isolation removes inter-core
// interference) and every edge's communication cost follows the ETM under
// the scheduler's way allocation. Because the dependent data is placed in
// the L1.5 before the consumer starts, the system behaves identically in
// cold and warm instances — the source of its worst-case advantage.
type Proposed struct {
	Alloc *sched.Result
}

// Name implements Platform.
func (p *Proposed) Name() string { return "Prop" }

// ExecTime implements Platform: plain WCET, cold or warm.
func (p *Proposed) ExecTime(v *dag.Node, warm bool) float64 {
	return v.WCET
}

// CommCost implements Platform via the ETM.
func (p *Proposed) CommCost(e dag.Edge, producer *dag.Node, sameCore bool) float64 {
	return p.Alloc.EdgeCost(e)
}

// Interference implements Platform: way-level isolation leaves no
// inter-core interference in either phase.
func (p *Proposed) Interference() (exec, comm float64) { return 0, 0 }

// Affinity implements Platform. The L1.5 Cache makes the dependent data
// visible cluster-wide, so placement does not matter.
func (p *Proposed) Affinity() bool { return false }

// CMPParams hold the calibrated constants of a conventional-cache baseline.
// See DESIGN.md §5 and EXPERIMENTS.md for the calibration rationale; the
// defaults reproduce the paper's relative gaps (average makespan of Prop
// beats CMP|L1 by ≈11-16% and CMP|L2 by ≈23%, worst case by ≈19-21%, with
// the gains shrinking as the critical-path ratio grows).
type CMPParams struct {
	Name string

	// ExecSpeedup is the maximal fraction of a node's WCET the private /
	// shared cache removes once warm (requires the node to re-run on the
	// core that cached it). Scaled by CacheFit of the node's data.
	ExecSpeedup float64

	// CacheBytes is the per-core cache capacity available to retain a
	// node's working set between instances.
	CacheBytes int64

	// SameCoreCommFactor scales α_{j,k} when producer and consumer share
	// a core (the data is still resident in the producer core's private
	// cache).
	SameCoreCommFactor float64

	// CrossCoreCommFactor scales α_{j,k} when they do not (the data must
	// travel through the shared levels; only a large shared cache
	// provides relief).
	CrossCoreCommFactor float64

	// ExecInterference inflates execution time by
	// 1+ExecInterference×busyFrac, modelling contention on the shared
	// cache levels a node's working set spills into.
	ExecInterference float64

	// CommInterference inflates communication costs the same way: the
	// dependent data of every cross-core edge travels through the shared
	// levels, whose effective latency grows with the number of busy
	// cores. The L1.5 Cache eliminates exactly this term (way-level
	// isolation), which is the paper's core motivation.
	CommInterference float64

	// UseAffinity biases the dispatcher toward the previous-instance
	// core.
	UseAffinity bool
}

// CMP is a conventional system without the L1.5 Cache, parameterised as
// CMP|L1, CMP|L2 or CMP|Shared-L1.
type CMP struct {
	P CMPParams
}

// CMPL1 returns the CMP|L1 baseline: each core's private L1 doubled (total
// cache capacity equalised with the proposed SoC). Strong warm-instance
// execution speed-up and full same-core communication relief, but no help
// across cores.
func CMPL1() *CMP {
	return &CMP{CMPParams{
		Name:                "CMP|L1",
		ExecSpeedup:         0.08,
		CacheBytes:          8 * 1024,
		SameCoreCommFactor:  0.8,
		CrossCoreCommFactor: 0.0,
		ExecInterference:    0.08,
		CommInterference:    0.50,
		UseAffinity:         true,
	}}
}

// CMPL2 returns the CMP|L2 baseline: the shared L2 enlarged instead. Weaker
// and slower warm-up benefit, a little cross-core relief, and shared-cache
// interference that grows with the number of busy cores.
func CMPL2() *CMP {
	return &CMP{CMPParams{
		Name:                "CMP|L2",
		ExecSpeedup:         0.04,
		CacheBytes:          32 * 1024,
		SameCoreCommFactor:  0.40,
		CrossCoreCommFactor: 0.15,
		ExecInterference:    0.15,
		CommInterference:    0.85,
		UseAffinity:         true,
	}}
}

// SharedL1 returns the CMP|Shared-L1 baseline of Jiang et al. [10]: an L1
// shared by the cluster with heuristic capacity allocation. Communication
// through the shared L1 is cheap in either placement, but the unmanaged
// sharing causes severe inter-core interference under load.
func SharedL1() *CMP {
	return &CMP{CMPParams{
		Name:                "CMP|Shared-L1",
		ExecSpeedup:         0.10,
		CacheBytes:          16 * 1024,
		SameCoreCommFactor:  0.55,
		CrossCoreCommFactor: 0.45,
		ExecInterference:    0.40,
		CommInterference:    0.50,
		UseAffinity:         false,
	}}
}

// Name implements Platform.
func (c *CMP) Name() string { return c.P.Name }

// cacheFit returns the fraction of the node's dependent data the cache can
// retain, min(1, CacheBytes/δ).
func (c *CMP) cacheFit(data int64) float64 {
	if data <= 0 {
		return 1
	}
	fit := float64(c.P.CacheBytes) / float64(data)
	if fit > 1 {
		fit = 1
	}
	return fit
}

// ExecTime implements Platform: warm nodes enjoy the cache speed-up.
func (c *CMP) ExecTime(v *dag.Node, warm bool) float64 {
	t := v.WCET
	if warm {
		t *= 1 - c.P.ExecSpeedup*c.cacheFit(v.Data)
	}
	return t
}

// CommCost implements Platform: the edge's α is honoured only to the extent
// the platform's caches keep the producer's data close.
func (c *CMP) CommCost(e dag.Edge, producer *dag.Node, sameCore bool) float64 {
	factor := c.P.CrossCoreCommFactor
	if sameCore {
		factor = c.P.SameCoreCommFactor
	}
	relief := e.Alpha * factor * c.cacheFit(producer.Data)
	return e.Cost * (1 - relief)
}

// Interference implements Platform: both phases suffer the shared-level
// interference inflation.
func (c *CMP) Interference() (exec, comm float64) {
	return c.P.ExecInterference, c.P.CommInterference
}

// Affinity implements Platform.
func (c *CMP) Affinity() bool { return c.P.UseAffinity }

var _ Platform = (*Proposed)(nil)
var _ Platform = (*CMP)(nil)

// NewProposed schedules the task with Algorithm 1 (ζ ways of κ bytes) and
// wraps the result as a Platform.
func NewProposed(t *dag.Task, zeta int, wayBytes int64) (*Proposed, error) {
	res, err := sched.L15Schedule(t, zeta, wayBytes)
	if err != nil {
		return nil, err
	}
	return &Proposed{Alloc: res}, nil
}

// DefaultZeta and DefaultWayBytes mirror the paper's L1.5 configuration:
// 16 ways of 2 KB.
const (
	DefaultZeta     = 16
	DefaultWayBytes = etm.DefaultWayBytes
)
