// Command codecheck runs the repository's custom static-analysis suite
// (internal/lint) over the given package patterns and exits non-zero on
// any unsuppressed finding. It keeps the simulator's hand-written
// invariants — determinism (syntactic and interprocedural), the kernel's
// zero-alloc hot path and wakeup protocol, exhaustive FSM switches, lock
// discipline, way-bitmap hygiene, metrics atomicity, error handling —
// machine-checked:
//
//	go run ./cmd/codecheck ./...
//	go run ./cmd/codecheck -analyzers detmap,bitmask ./internal/...
//	go run ./cmd/codecheck -list
//	go run ./cmd/codecheck -ignores ./...
//
// The gate itself is internal/lint's TestModuleClean, which runs the same
// suite over the whole module under `go test ./...`; this command is the
// way to run it by hand, or on a subset of packages or analyzers.
//
// All packages load together so the interprocedural analyzers
// (puritycheck, hotalloc, wakeupsafe) see cross-package call chains.
// Unsuppressed findings print one per line as file:line:col: analyzer:
// message. -ignores lists every //lint:ignore directive with its file,
// analyzers and justification instead, the audit trail of what the
// suppressions hide.
//
// A finding is accepted only by a `//lint:ignore <analyzer> <justification>`
// comment on the flagged line or the line above it; the justification is
// mandatory and an ignore without one is itself reported. There is no
// baseline file.
//
// Warning-severity findings (fingerprintcomplete's wasted-key-entropy
// direction) are printed but never block: the exit code is 1 only when
// unsuppressed error-severity findings remain, 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"l15cache/internal/cli"
	"l15cache/internal/lint"
)

func main() {
	names := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flag.Bool("list", false, "list the available analyzers and exit")
	ignores := flag.Bool("ignores", false, "list every //lint:ignore directive instead of running analyzers")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: codecheck [flags] [packages]\n\n")
		flag.PrintDefaults()
	}
	showVersion := cli.VersionFlag()
	flag.Parse()
	showVersion()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := lint.ByName(*names)
	if err != nil {
		fatal(err)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fatal(err)
	}
	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}

	if *ignores {
		entries := lint.Ignores(pkgs)
		for _, e := range entries {
			fmt.Printf("%s:%d: %s: %s\n", lint.RelPath(cwd, e.File), e.Line, e.Analyzers, e.Justification)
		}
		fmt.Fprintf(os.Stderr, "codecheck: %d ignore directive(s) across %d package(s)\n", len(entries), len(pkgs))
		return
	}

	diags, err := lint.RunModule(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	blocking, warnings := 0, 0
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		d.Pos.Filename = lint.RelPath(cwd, d.Pos.Filename)
		if d.Warning {
			warnings++
			fmt.Printf("%s [warning]\n", d)
		} else {
			blocking++
			fmt.Println(d)
		}
	}
	if warnings > 0 {
		fmt.Fprintf(os.Stderr, "codecheck: %d warning(s) (non-blocking)\n", warnings)
	}
	if blocking > 0 {
		fmt.Fprintf(os.Stderr, "codecheck: %d finding(s) across %d package(s)\n", blocking, len(pkgs))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "codecheck:", err)
	os.Exit(2)
}
