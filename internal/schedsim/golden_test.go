package schedsim

import (
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"l15cache/internal/sched"
)

// goldenStats renders InstanceStats of seeds 1–8 on all four platforms at 2
// and 8 cores and 10 instances, one line per run, every float64 as the hex
// of its bits.
func goldenStats(t *testing.T) []string {
	t.Helper()
	var lines []string
	for seed := int64(1); seed <= 8; seed++ {
		task := synthTask(t, seed, 15, 0.1)
		prop, err := NewProposed(task.Clone(), DefaultZeta, DefaultWayBytes)
		if err != nil {
			t.Fatal(err)
		}
		lpf := mustSchedule(t, task.Clone())
		for _, s := range []struct {
			alloc *sched.Result
			plat  Platform
		}{{prop.Alloc, prop}, {lpf, CMPL1()}, {lpf, CMPL2()}, {lpf, SharedL1()}} {
			for _, cores := range []int{2, 8} {
				st, err := Run(s.alloc, s.plat, Options{Cores: cores, Instances: 10})
				if err != nil {
					t.Fatal(err)
				}
				var b strings.Builder
				fmt.Fprintf(&b, "seed=%d %s cores=%d:", seed, s.plat.Name(), cores)
				for _, x := range st {
					fmt.Fprintf(&b, " %016x/%016x/%016x",
						math.Float64bits(x.Makespan), math.Float64bits(x.Comm), math.Float64bits(x.Exec))
				}
				lines = append(lines, b.String())
			}
		}
	}
	return lines
}

// TestGoldenStats pins every simulated float bit for bit against
// testdata/golden_stats.txt. Unlike the ticked-vs-events comparison, it
// catches a reordered cost formula that both kernels share.
func TestGoldenStats(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_stats.txt")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	got := goldenStats(t)
	if len(got) != len(want) {
		t.Fatalf("got %d runs, golden file holds %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d differs:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}
