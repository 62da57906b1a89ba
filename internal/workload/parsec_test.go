package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"math/rand"
	"testing"

	"l15cache/internal/dag"
)

// goldenParsecDigest pins ParsecTask's output, and the generator stream
// it leaves behind, for every kernel × Threads {1,2,3,4,8} × seeds 1–5
// under the default parameters and two variants (a fixed data volume; an
// α cap below every kernel's band), plus three 16-task TaskSets. It was
// taken from the generator that rebuilt every task node by node; a
// change of names, IDs, draw order, any float's bits, edge order or the
// laid-out rows changes it.
const goldenParsecDigest = "a0e8a2674536a60aa9971e8b523e10cd3b0c5fea8f44740bfae5bb015fe6472c"

// digestTask writes everything a consumer of the task can read into h:
// name, period and deadline bits, every node's ID, name, WCET bits, data
// and priority, every edge in order with its cost and α bits, and the
// view's rows, edge indices, source and sink.
func digestTask(h hash.Hash, t *dag.Task) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	ids := func(vs []dag.NodeID) {
		u64(uint64(len(vs)))
		for _, v := range vs {
			u64(uint64(v))
		}
	}
	str(t.Name)
	u64(math.Float64bits(t.Period))
	u64(math.Float64bits(t.Deadline))
	u64(uint64(len(t.Nodes)))
	for _, n := range t.Nodes {
		u64(uint64(n.ID))
		str(n.Name)
		u64(math.Float64bits(n.WCET))
		u64(uint64(n.Data))
		u64(uint64(n.Priority))
	}
	u64(uint64(len(t.Edges)))
	for _, e := range t.Edges {
		u64(uint64(e.From))
		u64(uint64(e.To))
		u64(math.Float64bits(e.Cost))
		u64(math.Float64bits(e.Alpha))
	}
	g := t.View()
	for v := range t.Nodes {
		id := dag.NodeID(v)
		ids(g.Pred(id))
		ids(g.Succ(id))
		for _, ei := range g.PredEdges(id) {
			u64(uint64(ei))
		}
		for _, ei := range g.SuccEdges(id) {
			u64(uint64(ei))
		}
	}
	u64(uint64(g.Source()))
	u64(uint64(g.Sink()))
}

func TestParsecGoldenDigest(t *testing.T) {
	h := sha256.New()
	fixedData := DefaultCaseStudyParams()
	fixedData.MaxData = fixedData.MinData
	lowAlpha := DefaultCaseStudyParams()
	lowAlpha.AlphaMax = 0.05
	for _, p := range []CaseStudyParams{DefaultCaseStudyParams(), fixedData, lowAlpha} {
		for _, k := range Kernels() {
			for _, threads := range []int{1, 2, 3, 4, 8} {
				p.Threads = threads
				for seed := int64(1); seed <= 5; seed++ {
					r := rand.New(rand.NewSource(seed))
					task, err := ParsecTask(r, k, p)
					if err != nil {
						t.Fatalf("%s threads %d seed %d: %v", k, threads, seed, err)
					}
					digestTask(h, task)
					// Where the generator stream stands afterwards.
					h.Write(binary.LittleEndian.AppendUint64(nil, uint64(r.Int63())))
				}
			}
		}
	}
	set := DefaultTaskSetParams()
	set.Tasks = 16
	set.TargetUtilization = 0.7 * 8
	for seed := int64(1); seed <= 3; seed++ {
		tasks, err := TaskSet(rand.New(rand.NewSource(seed)), set)
		if err != nil {
			t.Fatal(err)
		}
		for _, task := range tasks {
			digestTask(h, task)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenParsecDigest {
		t.Errorf("ParsecTask/TaskSet digest = %s, want %s", got, goldenParsecDigest)
	}
}
