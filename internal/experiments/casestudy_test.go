package experiments

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"l15cache/internal/flight"
)

// recordCase returns the JSONL recording of RecordCaseTrial.
func recordCase(t *testing.T, seed int64, cores int, partitioned bool) []byte {
	t.Helper()
	rt := DefaultCaseStudyConfig(cores).RT
	rt.Partitioned = partitioned
	rec := flight.New()
	if err := RecordCaseTrial(seed, rt, rec); err != nil {
		t.Fatal(err)
	}
	return flight.AppendJSONL(nil, rec.Snapshot())
}

// The globally scheduled recording keeps the digest it had when
// RecordCaseTrial took a core count alone; the partitioned one (what
// casestudy -partitioned -flight records) is a different run.
func TestRecordCaseTrialPartitioned(t *testing.T) {
	global := map[string]string{
		"8/1":  "d97902fa2bcd8f62b66ca455c40f67ac67ed3af1a10eff85a2c44180f7ee81e2",
		"8/2":  "9b8ef59067131e64d100dca08c8c84b53570574e059342f10863899b373c1c6d",
		"16/1": "a0f0364b5965b1ba12edf4e9532e8b3b5e66841e2dfd02ae794c1329a48349db",
		"16/2": "ad54255d5a2e794970692c7674a3e4274b89b56ca396df5fc3b0921a21c7778e",
	}
	for _, cores := range []int{8, 16} {
		for _, seed := range []int64{1, 2} {
			name := fmt.Sprintf("%d/%d", cores, seed)
			g := recordCase(t, seed, cores, false)
			if got := fmt.Sprintf("%x", sha256.Sum256(g)); got != global[name] {
				t.Errorf("%s: global recording digest %s, want %s", name, got, global[name])
			}
			p := recordCase(t, seed, cores, true)
			if bytes.Equal(g, p) {
				t.Errorf("%s: the partitioned recording equals the global one", name)
			}
			if !bytes.Equal(p, recordCase(t, seed, cores, true)) {
				t.Errorf("%s: the partitioned recording is not reproducible", name)
			}
		}
	}
}
