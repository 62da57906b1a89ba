package runner

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// FuzzCheckpoint feeds arbitrary bytes to the checkpoint decoder as the
// -checkpoint file of a sweep and restores from it. Neither step may
// panic; opening either fails with the "not a runner checkpoint" error or
// binds a section of this sweep's identity, and every shard the restore
// keeps has an in-range index and a decodable value.
func FuzzCheckpoint(f *testing.F) {
	const (
		name   = "fz/sweep"
		seed   = int64(7)
		trials = 8
	)
	f.Add([]byte(`{"sections":{"fz/sweep":{"root_seed":7,"trials":8,"done":{"0":1.5,"3":-2,"7":0}}}}`))
	f.Add([]byte(`{"sections":{"fz/sweep":{"root_seed":7,"trials":8,"done":{"8":1,"-1":2,"x":3,"2":"s","+1":4,"01":5}}}}`))
	f.Add([]byte(`{"sections":{"fz/sweep":{"root_seed":6,"trials":8,"done":{"0":1}},"other":null}}`))
	f.Add([]byte(`{"sections":{"fz/sweep":null}}`))
	f.Add([]byte(`{"sections":null}`))
	f.Add([]byte(`{"sections":`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	dir := f.TempDir()
	path := filepath.Join(dir, "sweep.checkpoint.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		cp, err := openCheckpoint(path, name, seed, trials)
		if err != nil {
			if !strings.Contains(err.Error(), "is not a runner checkpoint") {
				t.Fatalf("unexpected error: %v", err)
			}
			return
		}
		if cp.sec == nil || cp.sec.Done == nil || cp.sec.RootSeed != seed || cp.sec.Trials != trials {
			t.Fatalf("bound section %+v, want root seed %d and %d trials", cp.sec, seed, trials)
		}
		if cp.file.Sections[name] != cp.sec {
			t.Fatal("bound section is not the file's section for this sweep")
		}

		results := make([]float64, trials)
		finished := make([]bool, trials)
		restored := restoreCheckpoint(cp, results, finished)
		marked := 0
		for _, done := range finished {
			if done {
				marked++
			}
		}
		if restored != marked || restored > trials {
			t.Fatalf("restored %d, %d shards marked finished", restored, marked)
		}
		for k := range cp.sec.Done {
			idx, err := strconv.Atoi(k)
			if err != nil || idx < 0 || idx >= trials {
				t.Fatalf("kept out-of-range shard key %q", k)
			}
			if !finished[idx] {
				t.Fatalf("kept shard %q but did not mark it finished", k)
			}
		}
	})
}
