package workload

import (
	"fmt"
	"math/rand"

	"l15cache/internal/dag"
)

// Kernel names the PARSEC 3.0 workloads the case study (§5.2) turned into
// DAG tasks by adding precedence constraints and data flow between threads.
// Each kernel maps to the parallel structure of the original benchmark.
type Kernel string

// The eleven PARSEC 3.0 workloads (multi-thread versions).
const (
	Blackscholes  Kernel = "blackscholes"  // data-parallel fork-join
	Bodytrack     Kernel = "bodytrack"     // staged fork-join pipeline
	Canneal       Kernel = "canneal"       // iterative diamond refinement
	Dedup         Kernel = "dedup"         // 5-stage pipeline, parallel middle
	Ferret        Kernel = "ferret"        // 6-stage pipeline, parallel middle
	Fluidanimate  Kernel = "fluidanimate"  // layered grid with neighbour deps
	Freqmine      Kernel = "freqmine"      // expand/reduce tree
	Streamcluster Kernel = "streamcluster" // repeated fork-join rounds
	Swaptions     Kernel = "swaptions"     // embarrassingly parallel
	Vips          Kernel = "vips"          // image pipeline with fan-out
	X264          Kernel = "x264"          // wavefront dependencies
)

// Kernels lists all case-study kernels in a fixed order.
func Kernels() []Kernel {
	return []Kernel{
		Blackscholes, Bodytrack, Canneal, Dedup, Ferret, Fluidanimate,
		Freqmine, Streamcluster, Swaptions, Vips, X264,
	}
}

// profile captures a kernel's published characterisation (Bienia et al.,
// PACT'08): how compute-heavy its nodes are, how much dependent data flows
// between its threads relative to the case study's base range, and how
// cache-friendly that data is (the ETM α range).
type profile struct {
	wcetScale float64 // node computation relative to the suite average
	dataScale float64 // dependent-data volume scale
	alphaLo   float64 // α lower bound: streaming data caches poorly
	alphaHi   float64
}

// profiles follows the suite's characterisation: blackscholes/swaptions are
// compute-bound with tiny sharing; canneal and x264 move the most data;
// streamcluster's streaming access defeats caching (low α); dedup/ferret
// are communication-heavy pipelines.
var profiles = map[Kernel]profile{
	Blackscholes:  {wcetScale: 1.0, dataScale: 0.4, alphaLo: 0.4, alphaHi: 0.7},
	Bodytrack:     {wcetScale: 1.1, dataScale: 0.9, alphaLo: 0.3, alphaHi: 0.7},
	Canneal:       {wcetScale: 0.9, dataScale: 1.5, alphaLo: 0.2, alphaHi: 0.5},
	Dedup:         {wcetScale: 0.8, dataScale: 1.3, alphaLo: 0.3, alphaHi: 0.7},
	Ferret:        {wcetScale: 1.2, dataScale: 1.1, alphaLo: 0.3, alphaHi: 0.7},
	Fluidanimate:  {wcetScale: 1.0, dataScale: 1.0, alphaLo: 0.3, alphaHi: 0.6},
	Freqmine:      {wcetScale: 1.3, dataScale: 0.8, alphaLo: 0.3, alphaHi: 0.6},
	Streamcluster: {wcetScale: 0.9, dataScale: 1.2, alphaLo: 0.1, alphaHi: 0.4},
	Swaptions:     {wcetScale: 1.4, dataScale: 0.3, alphaLo: 0.4, alphaHi: 0.7},
	Vips:          {wcetScale: 1.0, dataScale: 1.2, alphaLo: 0.3, alphaHi: 0.7},
	X264:          {wcetScale: 1.1, dataScale: 1.4, alphaLo: 0.3, alphaHi: 0.7},
}

// CaseStudyParams configure PARSEC-like task generation.
type CaseStudyParams struct {
	// Threads is the degree of parallelism of the benchmark's parallel
	// phases (the case study ran the multi-thread versions on 8/16-core
	// SoCs; 4-8 threads per task is typical).
	Threads int

	// MinData and MaxData bound the dependent data shared between nodes
	// ([2KB, 16KB] in the paper).
	MinData, MaxData int64

	// AlphaMax bounds the ETM speed-up ratio.
	AlphaMax float64
}

// DefaultCaseStudyParams mirror §5.2.
func DefaultCaseStudyParams() CaseStudyParams {
	return CaseStudyParams{
		Threads:  4,
		MinData:  2 * 1024,
		MaxData:  16 * 1024,
		AlphaMax: 0.7,
	}
}

// ParsecTask builds the DAG-structured version of the named kernel. Node
// WCETs are drawn around unit scale and later rescaled by the task-set
// builder to meet the target utilisation; data volumes and α follow the
// paper's distributions.
func ParsecTask(r *rand.Rand, k Kernel, p CaseStudyParams) (*dag.Task, error) {
	if p.Threads < 1 {
		return nil, fmt.Errorf("workload: threads = %d", p.Threads)
	}
	prof, ok := profiles[k]
	if !ok {
		return nil, fmt.Errorf("workload: unknown kernel %q", k)
	}
	b := &taskBuilder{r: r, p: p, prof: prof, t: dag.New(string(k), 0, 0)}
	switch k {
	case Blackscholes, Swaptions:
		b.forkJoin(p.Threads, 1)
	case Bodytrack:
		b.forkJoin(p.Threads, 3) // per-frame stages, each fork-join
	case Canneal:
		b.diamondChain(4)
	case Dedup:
		b.pipeline([]int{1, p.Threads, p.Threads, p.Threads, 1})
	case Ferret:
		b.pipeline([]int{1, p.Threads, p.Threads, p.Threads, p.Threads, 1})
	case Fluidanimate:
		b.grid(3, p.Threads)
	case Freqmine:
		b.tree(2, 3)
	case Streamcluster:
		b.forkJoin(p.Threads, 2)
	case Vips:
		b.pipeline([]int{1, 2, p.Threads, 2, 1})
	case X264:
		b.wavefront(3, p.Threads)
	default:
		return nil, fmt.Errorf("workload: unknown kernel %q", k)
	}
	if err := b.t.Validate(); err != nil {
		return nil, fmt.Errorf("workload: kernel %s produced invalid DAG: %w", k, err)
	}
	return b.t, nil
}

type taskBuilder struct {
	r    *rand.Rand
	p    CaseStudyParams
	prof profile
	t    *dag.Task
}

func (b *taskBuilder) node(name string) dag.NodeID {
	wcet := (0.5 + b.r.Float64()) * b.prof.wcetScale
	data := b.p.MinData
	if b.p.MaxData > b.p.MinData {
		data += b.r.Int63n(b.p.MaxData - b.p.MinData + 1)
	}
	// Scale by the kernel's data character, clamped to the case study's
	// published [MinData, MaxData] range.
	data = int64(float64(data) * b.prof.dataScale)
	if data < b.p.MinData {
		data = b.p.MinData
	}
	if data > b.p.MaxData {
		data = b.p.MaxData
	}
	return b.t.AddNode(name, wcet, data)
}

func (b *taskBuilder) edge(from, to dag.NodeID) {
	// Edge communication cost scales with the producer's data volume:
	// transmitting δ bytes through the memory hierarchy costs time
	// proportional to δ (unit cost per 4 KB, jittered).
	cost := float64(b.t.Node(from).Data) / 4096 * (0.5 + b.r.Float64())
	// α within the kernel's cacheability band, capped by the platform.
	lo, hi := b.prof.alphaLo, b.prof.alphaHi
	if hi > b.p.AlphaMax {
		hi = b.p.AlphaMax
	}
	if lo > hi {
		lo = hi / 2
	}
	a := lo + b.r.Float64()*(hi-lo)
	if a <= 0 {
		a = 0.05
	}
	b.t.MustAddEdge(from, to, cost, a)
}

// forkJoin builds `stages` sequential fork-join phases of the given width.
func (b *taskBuilder) forkJoin(width, stages int) {
	prev := b.node("src")
	for s := 0; s < stages; s++ {
		join := dag.NodeID(-1)
		workers := make([]dag.NodeID, width)
		for i := range workers {
			workers[i] = b.node(fmt.Sprintf("s%dw%d", s, i))
			b.edge(prev, workers[i])
		}
		join = b.node(fmt.Sprintf("s%djoin", s))
		for _, w := range workers {
			b.edge(w, join)
		}
		prev = join
	}
}

// pipeline builds sequential stages of the given widths; every node of a
// stage feeds every node of the next (pipeline with data redistribution).
func (b *taskBuilder) pipeline(widths []int) {
	var prev []dag.NodeID
	for s, w := range widths {
		cur := make([]dag.NodeID, w)
		for i := range cur {
			cur[i] = b.node(fmt.Sprintf("p%dn%d", s, i))
			for _, u := range prev {
				b.edge(u, cur[i])
			}
		}
		prev = cur
	}
	// Close into a single sink if the last stage is parallel.
	if len(prev) > 1 {
		sink := b.node("sink")
		for _, u := range prev {
			b.edge(u, sink)
		}
	}
}

// diamondChain builds n sequential diamonds (src → two branches → join).
func (b *taskBuilder) diamondChain(n int) {
	prev := b.node("src")
	for i := 0; i < n; i++ {
		l := b.node(fmt.Sprintf("d%dl", i))
		r := b.node(fmt.Sprintf("d%dr", i))
		j := b.node(fmt.Sprintf("d%dj", i))
		b.edge(prev, l)
		b.edge(prev, r)
		b.edge(l, j)
		b.edge(r, j)
		prev = j
	}
}

// grid builds rows×cols nodes where each node depends on its upper and
// upper-left neighbours (fluid simulation exchange pattern).
func (b *taskBuilder) grid(rows, cols int) {
	src := b.node("src")
	ids := make([][]dag.NodeID, rows)
	for i := range ids {
		ids[i] = make([]dag.NodeID, cols)
		for j := range ids[i] {
			ids[i][j] = b.node(fmt.Sprintf("g%d_%d", i, j))
			switch {
			case i == 0:
				b.edge(src, ids[i][j])
			default:
				b.edge(ids[i-1][j], ids[i][j])
				if j > 0 {
					b.edge(ids[i-1][j-1], ids[i][j])
				}
			}
		}
	}
	sink := b.node("sink")
	for j := 0; j < cols; j++ {
		b.edge(ids[rows-1][j], sink)
	}
}

// tree builds a fan-out of the given branching factor and depth followed by
// a mirrored reduction.
func (b *taskBuilder) tree(branch, depth int) {
	root := b.node("src")
	level := []dag.NodeID{root}
	var levels [][]dag.NodeID
	for d := 0; d < depth; d++ {
		var next []dag.NodeID
		for _, u := range level {
			for k := 0; k < branch; k++ {
				v := b.node(fmt.Sprintf("t%d_%d", d, len(next)))
				b.edge(u, v)
				next = append(next, v)
			}
		}
		levels = append(levels, next)
		level = next
	}
	// Reduce back to a single sink.
	for d := depth - 2; d >= 0; d-- {
		parents := levels[d]
		reduced := make([]dag.NodeID, len(parents))
		for i := range parents {
			reduced[i] = b.node(fmt.Sprintf("r%d_%d", d, i))
		}
		// Children of parents[i] in `level` occupy a contiguous run.
		per := len(level) / len(parents)
		for i := range parents {
			for k := 0; k < per; k++ {
				b.edge(level[i*per+k], reduced[i])
			}
		}
		level = reduced
	}
	if len(level) > 1 {
		sink := b.node("sink")
		for _, u := range level {
			b.edge(u, sink)
		}
	}
}

// wavefront builds rows×cols nodes with dependencies on the left and upper
// neighbours (x264 macroblock pattern).
func (b *taskBuilder) wavefront(rows, cols int) {
	src := b.node("src")
	ids := make([][]dag.NodeID, rows)
	for i := range ids {
		ids[i] = make([]dag.NodeID, cols)
		for j := range ids[i] {
			ids[i][j] = b.node(fmt.Sprintf("w%d_%d", i, j))
			if i == 0 && j == 0 {
				b.edge(src, ids[i][j])
				continue
			}
			if i > 0 {
				b.edge(ids[i-1][j], ids[i][j])
			}
			if j > 0 {
				b.edge(ids[i][j-1], ids[i][j])
			}
		}
	}
	sink := b.node("sink")
	b.edge(ids[rows-1][cols-1], sink)
}
