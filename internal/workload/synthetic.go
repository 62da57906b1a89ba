// Package workload generates the evaluation workloads of the paper:
// the synthetic layered DAG tasks of §5.1 (Fig. 7, Tab. 2) and the
// PARSEC-like periodic DAG task sets of the case study (§5.2, Fig. 8).
// All generation is deterministic given a *rand.Rand.
package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"l15cache/internal/dag"
)

// SynthParams are the synthetic DAG generation parameters of §5.1.
type SynthParams struct {
	// MinLayers and MaxLayers bound the random layer count ([5,10] in the
	// paper).
	MinLayers, MaxLayers int

	// MaxWidth is p: each layer holds [2, p] nodes (p = 15 by default).
	MaxWidth int

	// EdgeProb is the probability that a node connects to each node of
	// the previous layer (20%).
	EdgeProb float64

	// MinPeriod and MaxPeriod bound the random period T_i ([1,1440]
	// units). D_i = T_i.
	MinPeriod, MaxPeriod float64

	// Utilization is U_i; the workload is W_i = U_i × T_i.
	Utilization float64

	// CPR is the critical path ratio: the longest computation-only path
	// is steered to CPR × W_i.
	CPR float64

	// CommRatio is Σμ / W_i (0.5 in the paper). Edge costs are drawn
	// from [1, 2Σμ/|E|] and rescaled to sum to Σμ.
	CommRatio float64

	// AlphaMax bounds the per-edge ETM speed-up ratio α ∈ (0, AlphaMax]
	// (0.7 in the paper).
	AlphaMax float64

	// MinData and MaxData bound each node's dependent-data volume δ_j in
	// bytes. §5.1 does not state a distribution for the synthetic DAGs;
	// the default [1,4] KB keeps per-node way demand (⌈δ/κ⌉ ∈ {1,2}) in
	// proportion to ζ = 16 so that Alg. 1 can cover most of a wave, which
	// reproduces the paper's gain bands. The case study uses its stated
	// [2,16] KB range.
	MinData, MaxData int64
}

// DefaultSynthParams returns the paper's default configuration: p = 15,
// cpr = 0.1, U = 0.8 (the values at which Fig. 7's three sweeps agree).
func DefaultSynthParams() SynthParams {
	return SynthParams{
		MinLayers:   5,
		MaxLayers:   10,
		MaxWidth:    15,
		EdgeProb:    0.2,
		MinPeriod:   1,
		MaxPeriod:   1440,
		Utilization: 0.8,
		CPR:         0.1,
		CommRatio:   0.5,
		AlphaMax:    0.7,
		MinData:     1 * 1024,
		MaxData:     4 * 1024,
	}
}

// Validate checks the parameters for consistency.
func (p SynthParams) Validate() error {
	switch {
	case p.MinLayers < 1 || p.MaxLayers < p.MinLayers:
		return fmt.Errorf("workload: bad layer range [%d,%d]", p.MinLayers, p.MaxLayers)
	case p.MaxWidth < 2:
		return fmt.Errorf("workload: p = %d must be >= 2", p.MaxWidth)
	case p.EdgeProb < 0 || p.EdgeProb > 1:
		return fmt.Errorf("workload: edge probability %g outside [0,1]", p.EdgeProb)
	case p.MinPeriod <= 0 || p.MaxPeriod < p.MinPeriod:
		return fmt.Errorf("workload: bad period range [%g,%g]", p.MinPeriod, p.MaxPeriod)
	case p.Utilization <= 0:
		return fmt.Errorf("workload: utilization %g must be positive", p.Utilization)
	case p.CPR <= 0 || p.CPR > 1:
		return fmt.Errorf("workload: cpr %g outside (0,1]", p.CPR)
	case p.CommRatio < 0:
		return fmt.Errorf("workload: negative communication ratio %g", p.CommRatio)
	case p.AlphaMax <= 0 || p.AlphaMax >= 1:
		return fmt.Errorf("workload: alpha max %g outside (0,1)", p.AlphaMax)
	case p.MinData < 0 || p.MaxData < p.MinData:
		return fmt.Errorf("workload: bad data range [%d,%d]", p.MinData, p.MaxData)
	}
	return nil
}

// Synthetic generates one random DAG task per §5.1: a layered graph with a
// single source and sink, computation workload W_i = U_i×T_i spread over the
// nodes with the longest computation path steered to CPR×W_i, communication
// costs summing to CommRatio×W_i, per-edge α in (0, AlphaMax], and per-node
// data volumes in [MinData, MaxData].
func Synthetic(r *rand.Rand, p SynthParams) (*dag.Task, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	period := p.MinPeriod + r.Float64()*(p.MaxPeriod-p.MinPeriod)
	t := dag.New("synthetic", period, period)

	randData := func() int64 {
		if p.MaxData == p.MinData {
			return p.MinData
		}
		return p.MinData + r.Int63n(p.MaxData-p.MinData+1)
	}

	// Build the layered structure with unit WCETs first; workloads and
	// costs are assigned afterwards.
	src := t.AddNode("src", 1, randData())
	layers := make([][]dag.NodeID, p.MinLayers+r.Intn(p.MaxLayers-p.MinLayers+1))
	for l := range layers {
		width := 2 + r.Intn(p.MaxWidth-1)
		layers[l] = make([]dag.NodeID, width)
		for i := range layers[l] {
			layers[l][i] = t.AddNode("", 1, randData())
		}
	}
	nameLayers(t, layers)
	// Connectivity: 20% chance per previous-layer node; guarantee one
	// predecessor so the graph stays single-source.
	for _, v := range layers[0] {
		t.MustAddEdge(src, v, 1, alpha(r, p.AlphaMax))
	}
	for l := 1; l < len(layers); l++ {
		for _, v := range layers[l] {
			connected := false
			for _, u := range layers[l-1] {
				if r.Float64() < p.EdgeProb {
					t.MustAddEdge(u, v, 1, alpha(r, p.AlphaMax))
					connected = true
				}
			}
			if !connected {
				u := layers[l-1][r.Intn(len(layers[l-1]))]
				t.MustAddEdge(u, v, 1, alpha(r, p.AlphaMax))
			}
		}
	}
	// Close the graph into a single sink; any node left without a
	// successor feeds it. The rows are laid out only once the task is
	// built, so the out-degrees come from the edge list.
	hasSucc := make([]bool, len(t.Nodes))
	for _, e := range t.Edges {
		hasSucc[e.From] = true
	}
	sink := t.AddNode("sink", 1, 0)
	for id, ok := range hasSucc {
		if !ok {
			t.MustAddEdge(dag.NodeID(id), sink, 1, alpha(r, p.AlphaMax))
		}
	}

	assignWCETs(r, t, p)
	assignCommCosts(r, t, p)

	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated invalid task: %w", err)
	}
	return t, nil
}

// nameLayers names node i of layer l "l<l>n<i>". The names are substrings
// of one builder's string, which only ever grows, so in practice all of
// them share one allocation.
func nameLayers(t *dag.Task, layers [][]dag.NodeID) {
	var b strings.Builder
	b.Grow(5 * len(t.Nodes)) // "l<l>n<i>" with l < 10, i < 100
	var d [20]byte
	for l, layer := range layers {
		for i, id := range layer {
			start := b.Len()
			b.WriteByte('l')
			b.Write(strconv.AppendInt(d[:0], int64(l), 10))
			b.WriteByte('n')
			b.Write(strconv.AppendInt(d[:0], int64(i), 10))
			t.Nodes[id].Name = b.String()[start:]
		}
	}
}

func alpha(r *rand.Rand, max float64) float64 {
	// α ∈ (0, max]: draw (0,1] then scale.
	return (1 - r.Float64()) * max
}

// assignWCETs distributes W = U×T over the nodes uniformly, then iteratively
// steers the longest computation-only path toward CPR × W: nodes on the
// current longest path are deflated (or inflated) and the total is
// re-normalised to W each round. The rounds steer a flat WCET slice,
// written back to the nodes once at the end.
func assignWCETs(r *rand.Rand, t *dag.Task, p SynthParams) {
	w := p.Utilization * t.Period
	// Uniform initial split.
	wcet := make([]float64, len(t.Nodes))
	for i := range wcet {
		wcet[i] = 0.5 + r.Float64()
	}
	rescaleTotal(wcet, w)

	target := p.CPR * w
	var buf dag.PathBuf
	onPath := make([]bool, len(t.Nodes))
	for iter := 0; iter < 200; iter++ {
		cp, path := t.CriticalPathOf(wcet, &buf)
		if diff := cp - target; diff < 0.01*w && diff > -0.01*w {
			break
		}
		factor := target / cp
		// Damp the adjustment to avoid oscillation between competing
		// near-critical paths.
		factor = 0.5 + 0.5*factor
		clear(onPath)
		for _, id := range path {
			onPath[id] = true
			wcet[id] *= factor
		}
		// If the path must grow, deflate the rest so renormalisation
		// does not cancel the adjustment.
		if factor > 1 {
			for id, on := range onPath {
				if !on {
					wcet[id] /= factor
				}
			}
		}
		rescaleTotal(wcet, w)
	}
	for i, n := range t.Nodes {
		n.WCET = wcet[i]
	}
}

// rescaleTotal scales wcet to sum to w, summing in node order as
// Task.Volume does.
func rescaleTotal(wcet []float64, w float64) {
	var cur float64
	for _, c := range wcet {
		cur += c
	}
	if cur <= 0 {
		return
	}
	f := w / cur
	for i := range wcet {
		wcet[i] *= f
	}
}

// assignCommCosts draws per-edge costs uniformly from [1, 2Σμ/|E|] and
// rescales them to sum to exactly Σμ = CommRatio × W. If Σμ/|E| < 1 (tiny
// workloads) the lower bound is relaxed to keep the distribution feasible.
func assignCommCosts(r *rand.Rand, t *dag.Task, p SynthParams) {
	total := p.CommRatio * t.Volume()
	if len(t.Edges) == 0 || total <= 0 {
		return
	}
	mean := total / float64(len(t.Edges))
	lo, hi := 1.0, 2*mean
	if hi <= lo {
		lo, hi = 0, 2*mean
	}
	var sum float64
	for i := range t.Edges {
		c := lo + r.Float64()*(hi-lo)
		t.Edges[i].Cost = c
		sum += c
	}
	if sum > 0 {
		f := total / sum
		for i := range t.Edges {
			t.Edges[i].Cost *= f
		}
	}
}
