package kernel

import "testing"

// TestStringRoundTrip pins the mode names: memo fingerprints hash them,
// so renaming one would orphan every cached trial.
func TestStringRoundTrip(t *testing.T) {
	for m, want := range map[Mode]string{Events: "events", Ticked: "ticked"} {
		if got := m.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", m, got, want)
		}
	}
	if s := Mode(7).String(); s != "kernel.Mode(7)" {
		t.Errorf("Mode(7).String() = %q", s)
	}
}

func TestZeroValueIsEvents(t *testing.T) {
	// Experiment configs rely on the zero value selecting the default
	// (time-skipping) kernel.
	var m Mode
	if m != Events {
		t.Errorf("zero Mode = %v, want Events", m)
	}
}

func TestEarliest(t *testing.T) {
	if got := Earliest(); got != Never {
		t.Errorf("Earliest() = %d, want Never", got)
	}
	if got := Earliest(Never, Never); got != Never {
		t.Errorf("Earliest(Never, Never) = %d, want Never", got)
	}
	if got := Earliest(Never, 42, 7, Never, 9); got != 7 {
		t.Errorf("Earliest = %d, want 7", got)
	}
	if got := Earliest(0, Never); got != 0 {
		t.Errorf("Earliest with zero wakeup = %d, want 0", got)
	}
}
