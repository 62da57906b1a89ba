package memo

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"l15cache/internal/metrics"
)

// FuzzDiskEnvelope writes arbitrary bytes as the disk entry of a key and
// reads it back through a fresh cache. Get must never panic, and must
// either serve exactly the value a real Put stored under that key or
// report a miss and remove the file.
func FuzzDiskEnvelope(f *testing.F) {
	dir := f.TempDir()
	k := key(7)
	path := filepath.Join(dir, k.String()+".json")
	stored := []byte(`{"makespan":123.5,"sys":"Prop","ways":[1,2,3]}`)

	c, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
	if err != nil {
		f.Fatal(err)
	}
	if err := c.Put(k, stored); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(`"format":1`), []byte(`"format":2`), 1))
	f.Add(bytes.Replace(good, []byte("123.5"), []byte("124.5"), 1))
	f.Add([]byte(`{"format":1,"key":"` + k.String() + `","sum":"zz","value":1}`))
	f.Add([]byte(`{"format":1,"key":"` + k.String() + `","sum":"","value":null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o666); err != nil {
			t.Fatal(err)
		}
		c, err := New(Options{Dir: dir, Registry: metrics.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		got, ok := c.Get(k)
		if ok {
			if !bytes.Equal(got, stored) {
				t.Fatalf("served %q, want the stored %q", got, stored)
			}
			return
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("rejected entry left on disk (stat err=%v)", err)
		}
	})
}
