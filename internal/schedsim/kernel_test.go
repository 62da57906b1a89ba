package schedsim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"l15cache/internal/flight"
	"l15cache/internal/kernel"
	"l15cache/internal/workload"
)

// runBothKernels simulates the same allocation under the ticked and events
// dispatch kernels and requires identical stats and flight recordings —
// the per-run slice of what internal/experiments/kernel_test.go compares
// across whole sweeps.
func runBothKernels(t *testing.T, seed int64, instances int) {
	t.Helper()
	p := workload.DefaultSynthParams()
	p.MinLayers, p.MaxLayers = 2, 5
	p.MaxWidth = 6
	task, err := workload.Synthetic(rand.New(rand.NewSource(seed)), p)
	if err != nil {
		t.Fatal(err)
	}
	prop, err := NewProposed(task, 16, 2048)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		plat Platform
	}{
		{"raw", rawPlatform{}},
		{"proposed", prop},
	} {
		recT, recE := flight.New(), flight.New()
		alloc := prop.Alloc
		if tc.name == "raw" {
			alloc = mustSchedule(t, task)
		}
		statsT, err := Run(alloc, tc.plat, Options{
			Cores: 4, Instances: instances, Kernel: kernel.Ticked, Recorder: recT})
		if err != nil {
			t.Fatal(err)
		}
		statsE, err := Run(alloc, tc.plat, Options{
			Cores: 4, Instances: instances, Kernel: kernel.Events, Recorder: recE})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(statsT, statsE) {
			t.Errorf("seed %d %s: stats diverged:\nticked %+v\nevents %+v",
				seed, tc.name, statsT, statsE)
		}
		evT, evE := recT.Events(), recE.Events()
		if !reflect.DeepEqual(evT, evE) {
			t.Errorf("seed %d %s: flight recordings diverged (%d vs %d events)",
				seed, tc.name, len(evT), len(evE))
		}
		if len(evE) == 0 {
			t.Errorf("seed %d %s: no flight events recorded; test is vacuous", seed, tc.name)
		}
	}
}

func TestKernelEquivalenceSmallDAGs(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		runBothKernels(t, seed, 1)
	}
	// Warm instances take the conventional platforms' warm path.
	runBothKernels(t, 5, 3)
}

// TestQuickKernelEquivalence lets testing/quick pick the DAG seeds.
func TestQuickKernelEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized equivalence sweep")
	}
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		runBothKernels(t, seed%10000, 1)
		return !t.Failed()
	}
	cfg := &quick.Config{MaxCount: 10, Rand: rand.New(rand.NewSource(99))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
