// Command tlcvet runs the project's static-analysis pass (see
// internal/lint): determinism of the simulated testbed (simtime,
// seededrand), crypto hygiene of the Proof-of-Charging (cryptorand),
// error discipline (errdiscard), allocation-free hot paths (hotalloc),
// the two-tier metrics rule (metricstier), goroutine stop paths
// (goroleak), code no binary reaches (unreached) and waiver hygiene
// (staleallow). It is wired into verify.sh as a tier-1 gate.
//
// Usage:
//
//	tlcvet [-checks simtime,errdiscard] [-tests=false] [-json|-sarif] [-json-out file] [-list] [packages]
//
// Packages default to ./... relative to the current directory. Matched
// packages include their in-package _test.go files unless -tests=false.
// Exit status: 0 clean, 1 findings, 2 usage or load/type-check failure.
// Findings print as "file:line: [check] message" and are suppressed
// per line with a //tlcvet:allow <check> directive (same line or the
// line above) followed by a justification. -json and -sarif replace the
// plain rendering on stdout with a machine-readable report (exit status
// is unchanged); -json-out additionally archives the JSON report to a
// file regardless of the stdout format. unreached judges only a load
// that holds every main package of the module; on any other load it
// reports nothing and prints a note on stderr naming the binaries the
// load omits.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"tlc/internal/lint"
)

func main() {
	checks := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	list := flag.Bool("list", false, "list registered checks and exit")
	tests := flag.Bool("tests", true, "analyze in-package _test.go files of matched packages")
	jsonOut := flag.Bool("json", false, "write the findings report to stdout as JSON instead of plain text")
	sarifOut := flag.Bool("sarif", false, "write the findings report to stdout as SARIF 2.1.0 instead of plain text")
	jsonFile := flag.String("json-out", "", "also archive the JSON report to this file")
	flag.Usage = func() {
		//tlcvet:allow errdiscard — best-effort usage text on the flag package's writer
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tlcvet [flags] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range lint.All {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(os.Stderr, "tlcvet: -json and -sarif are mutually exclusive")
		os.Exit(2)
	}

	analyzers, err := lint.Select(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlcvet:", err)
		os.Exit(2)
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlcvet:", err)
		os.Exit(2)
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlcvet:", err)
		os.Exit(2)
	}
	loader.IncludeTests = *tests
	pkgs, err := loader.Load(flag.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tlcvet:", err)
		os.Exit(2)
	}

	// Type errors are fatal: analyzers running on partial type
	// information can silently miss findings, which would make a green
	// gate meaningless.
	broken := false
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "tlcvet: %s: %v\n", pkg.Path, terr)
			broken = true
		}
	}
	if broken {
		os.Exit(2)
	}

	findings := lint.Run(pkgs, analyzers)
	if slices.Contains(analyzers, lint.Unreached) {
		omitted, err := lint.OmittedMains(pkgs)
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "tlcvet: note: unreached judged nothing: listing the module's binaries: %v\n", err)
		case len(omitted) > 0:
			fmt.Fprintf(os.Stderr, "tlcvet: note: unreached judged nothing: the load omits %d of the module's binaries (%s); run it on ./... from the module root\n",
				len(omitted), strings.Join(omitted, ", "))
		}
	}
	switch {
	case *jsonOut:
		if err := lint.WriteJSON(os.Stdout, findings, analyzers, cwd); err != nil {
			fmt.Fprintln(os.Stderr, "tlcvet:", err)
			os.Exit(2)
		}
	case *sarifOut:
		if err := lint.WriteSARIF(os.Stdout, findings, analyzers, cwd); err != nil {
			fmt.Fprintln(os.Stderr, "tlcvet:", err)
			os.Exit(2)
		}
	default:
		lint.Render(os.Stdout, findings, cwd)
	}
	if *jsonFile != "" {
		f, err := os.Create(*jsonFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tlcvet:", err)
			os.Exit(2)
		}
		werr := lint.WriteJSON(f, findings, analyzers, cwd)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "tlcvet:", werr)
			os.Exit(2)
		}
	}
	if len(findings) > 0 {
		os.Exit(1)
	}
}
