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

// The globally scheduled recording keeps the event lines it had when
// RecordCaseTrial took a core count alone (the digests were re-taken
// only for the version-2 header line); the partitioned one (what
// casestudy -partitioned -flight records) is a different run.
func TestRecordCaseTrialPartitioned(t *testing.T) {
	global := map[string]string{
		"8/1":  "3e743e9f0cb3dcc4a6c9632b9c0d4c8458d48615068e584cbd0d1461470fa65f",
		"8/2":  "80dc4a1751a15d5f366e64b6d40e0d60570bf80140f0cc98f4036162dddfefd3",
		"16/1": "1628aaabddcf1b5c5ed2c90a58c1d0b3a3dd284dd66c959e42bca87033f4bfe6",
		"16/2": "adb3b4cadbbeaf8e643eb0dee7aec875c03c3601c96c815011184805d7eca175",
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
