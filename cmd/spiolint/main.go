// Command spiolint runs the project's correctness analyzer suite
// (internal/analysis) over Go packages:
//
//	go run ./cmd/spiolint ./...
//
// Analyzers:
//
//	lockorder   lock-order inversions, re-acquisition, locks held
//	            across blocking operations
//	racegate    struct fields written from multiple goroutine origins
//	            without a consistent lock, and atomic/plain mixes
//
// Both analyzers are interprocedural: a lock acquisition or an unlocked
// field write hidden inside a helper is reported at the call site with
// the call path. Findings can be suppressed per line with
//
//	//spio:allow <analyzer> -- <reason>
//
// Suppressed findings do not affect the exit status; -summary lists them
// with their reasons and counts them. A directive without a reason, or
// one suppressing nothing, is itself a finding.
//
// Two flags: -analyzers a,b runs a subset, -summary appends the
// suppressed findings, the per-analyzer counts and the per-analyzer wall
// times. Exit status is analysis.ExitClean (0) when the analyzed
// packages are clean, analysis.ExitFindings (1) when any unsuppressed
// diagnostic is reported, analysis.ExitLoadError (2) on usage, load, or
// type-check errors. The tool is stdlib-only and must be run from inside
// the module (package loading uses the go tool and the source importer).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"spio/internal/analysis"
)

func main() {
	only := flag.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	summary := flag.Bool("summary", false, "also print the suppressed findings with their reasons, per-analyzer counts and wall times")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: spiolint [-analyzers a,b] [-summary] [packages]\n\n")
		fmt.Fprintf(os.Stderr, "Runs the spio collective-correctness analyzers over the given\npackage patterns (default ./...).\n\nAnalyzers:\n")
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var names []string
	if *only != "" {
		names = strings.Split(*only, ",")
	}
	analyzers, err := analysis.ByName(names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spiolint:", err)
		os.Exit(analysis.ExitLoadError)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "spiolint:", err)
		os.Exit(analysis.ExitLoadError)
	}

	diags, timings := analysis.RunTimed(analyzers, pkgs)
	analysis.WriteText(os.Stdout, diags, *summary)
	if *summary {
		fmt.Println(analysis.Summarize(analyzers, diags))
		fmt.Println("timings:", analysis.TimingsLine(timings))
	}
	os.Exit(analysis.ExitCode(diags))
}
