// Package buildinfo surfaces the binary's build identity — module version,
// VCS revision/commit time/dirty flag and the Go toolchain — read once from
// runtime/debug.ReadBuildInfo. Every archived artifact the tools produce is
// attributable through it: the metrics snapshot carries the same block as a
// `build` header, and every cmd/ tool prints it under -version.
//
// The block is a pure function of the binary, so embedding it in the
// -metrics snapshot keeps the determinism contract intact: two runs of one
// binary serialise identical headers, and the byte-compare checks (the
// memo warm-run identity job, the telemetry on/off test) both compare
// artifacts produced by a single build.
package buildinfo

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the attribution block stamped into metrics snapshots and the
// cmd tools' -version output.
type Info struct {
	// GoVersion is the toolchain that built the binary (runtime.Version).
	GoVersion string
	// Path is the main module path ("l15cache").
	Path string
	// Version is the main module version; "(devel)" for source builds.
	Version string
	// Revision is the VCS commit hash; "" outside a VCS checkout (e.g.
	// test binaries, `go run` from an exported tree).
	Revision string
	// Time is the VCS commit time (RFC 3339); "" when unknown.
	Time string
	// Modified reports a dirty working tree at build time.
	Modified bool
}

var (
	once   sync.Once
	cached Info
)

// Get returns the build identity, computed once per process.
func Get() Info {
	once.Do(func() {
		cached.GoVersion = runtime.Version()
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		cached.Path = bi.Main.Path
		cached.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Revision = s.Value
			case "vcs.time":
				cached.Time = s.Value
			case "vcs.modified":
				cached.Modified = s.Value == "true"
			}
		}
	})
	return cached
}

// String renders the one-line -version form, e.g.
//
//	l15cache (devel) rev 1a2b3c4d+dirty (2026-08-09T10:00:00Z) go1.24.1
func (i Info) String() string {
	s := i.Path
	if s == "" {
		s = "l15cache"
	}
	if i.Version != "" {
		s += " " + i.Version
	}
	if i.Revision != "" {
		rev := i.Revision
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if i.Modified {
			rev += "+dirty"
		}
		s += " rev " + rev
		if i.Time != "" {
			s += " (" + i.Time + ")"
		}
	}
	return s + " " + i.GoVersion
}

// String returns Get().String() — the -version line of every cmd tool.
func String() string { return Get().String() }

// Map flattens the identity into fixed string keys for JSON embedding
// (the metrics snapshot's `build` header). The key set is
// constant, so the serialised form is deterministic per binary.
func Map() map[string]string {
	i := Get()
	return map[string]string{
		"go":       i.GoVersion,
		"module":   i.Path,
		"version":  i.Version,
		"revision": i.Revision,
		"vcs_time": i.Time,
		"modified": fmt.Sprintf("%t", i.Modified),
	}
}
