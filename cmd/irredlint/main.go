// Command irredlint runs the IRL static analyzers over one or more source
// files and reports findings with stable diagnostic codes.
//
// Usage:
//
//	irredlint [-format text|json] [-codes] [-prove] [-fix] [file.irl ...]
//
// With no files, source is read from standard input. -format selects the
// output encoding: "text" (default) renders human-readable findings,
// "json" emits them as a JSON array for tooling (-json is a legacy alias
// for -format json). -codes prints the catalogue of diagnostic codes
// (source analyzers and schedule-checker invariants) and exits. -prove
// first model-checks the systolic ownership protocol over every (P <= 8,
// k <= 4) strategy — exhaustively verifying the rotation, single-writer
// and bijection invariants the runtime relies on — and additionally
// proves the fold-schedule equivalence W6: for every builtin reduction
// operator, the rotation-order fold is bitwise-equal to the sequential
// fold over the same strategy space. It also discharges
// the reuse soundness check W8: every inter-loop schedule-reuse grant of
// a scenario family is compared against brute-force per-loop inspection
// for every strategy, and every stale refusal is confirmed to actually
// change the schedule. It fails the run if any strategy violates an
// invariant, before linting the files as usual.
// -fix removes dataflow-dead statements (IRL007/IRL009/IRL014) from the
// named files in place (or from stdin to stdout) instead of reporting.
// The exit status is 1 when any file fails to parse or any finding is
// Error-level, 0 otherwise (warnings and notes do not fail the run).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"irred/internal/buildinfo"
	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/lint"
)

func main() {
	asJSON := flag.Bool("json", false, "emit findings as a JSON array (alias for -format json)")
	format := flag.String("format", "", "output format: text or json")
	codes := flag.Bool("codes", false, "list all diagnostic codes and exit")
	prove := flag.Bool("prove", false, "model-check the ownership protocol, fold equivalence and reuse soundness for all P <= 8, k <= 4 before linting")
	fix := flag.Bool("fix", false, "remove dataflow-dead statements in place instead of reporting")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredlint " + buildinfo.Get().String())
		return
	}

	switch *format {
	case "":
	case "text":
		*asJSON = false
	case "json":
		*asJSON = true
	default:
		fmt.Fprintf(os.Stderr, "irredlint: unknown format %q (want text or json)\n", *format)
		os.Exit(2)
	}

	if *codes {
		printCodes()
		return
	}

	if *prove {
		checked, violations := dataflow.ProveAll(8, 4)
		foldChecked, foldViolations := dataflow.ProveAllFold(8, 4)
		violations = append(violations, foldViolations...)
		reuseChecked, reuseViolations := dataflow.ProveAllReuse(8, 4)
		violations = append(violations, reuseViolations...)
		if len(violations) > 0 {
			for _, v := range violations {
				fmt.Fprintln(os.Stderr, "irredlint: prove:", v.Error())
			}
			fmt.Fprintf(os.Stderr, "irredlint: prove: %d invariant violation(s) across %d strategies\n", len(violations), checked)
			os.Exit(1)
		}
		fmt.Printf("prove: %d ownership strategies (P <= 8, k <= 4) satisfy the systolic invariants\n", checked)
		fmt.Printf("prove: %d (strategy, operator) fold schedules are bitwise-equal to the sequential fold (W6)\n", foldChecked)
		fmt.Printf("prove: %d (strategy, scenario) reuse grants match brute-force per-loop inspection (W8)\n", reuseChecked)
	}

	if *fix {
		runFix(flag.Args())
		return
	}

	var all lint.Diagnostics
	failed := false
	if flag.NArg() == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			os.Exit(1)
		}
		ds, err := lint.RunSource(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			os.Exit(1)
		}
		all = ds
	} else {
		for _, name := range flag.Args() {
			src, err := os.ReadFile(name)
			if err != nil {
				fmt.Fprintln(os.Stderr, "irredlint:", err)
				failed = true
				continue
			}
			ds, err := lint.RunSource(string(src))
			if err != nil {
				fmt.Fprintf(os.Stderr, "irredlint: %s: %v\n", name, err)
				failed = true
				continue
			}
			for i := range ds {
				ds[i].File = name
			}
			all = append(all, ds...)
		}
	}

	if *asJSON {
		if err := all.RenderJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			os.Exit(1)
		}
	} else {
		all.Render(os.Stdout)
	}
	if failed || all.HasErrors() {
		os.Exit(1)
	}
}

// runFix applies the dead-statement fixer: in place for named files,
// stdin to stdout otherwise.
func runFix(files []string) {
	if len(files) == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			os.Exit(1)
		}
		out, _, err := lint.FixSource(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			os.Exit(1)
		}
		fmt.Print(out)
		return
	}
	failed := false
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			failed = true
			continue
		}
		out, removed, err := lint.FixSource(string(src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredlint: %s: %v\n", name, err)
			failed = true
			continue
		}
		if removed == 0 {
			continue
		}
		if err := os.WriteFile(name, []byte(out), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "irredlint:", err)
			failed = true
			continue
		}
		fmt.Printf("%s: removed %d dead statement(s)\n", name, removed)
	}
	if failed {
		os.Exit(1)
	}
}

func printCodes() {
	fmt.Println("Source analyzers (IRL programs):")
	for _, a := range lint.Analyzers() {
		fmt.Printf("  %s  %-5s %-26s %s\n", a.Code, a.Severity, a.Name, a.Doc)
	}
	fmt.Println("\nSchedule checker invariants (inspector.CheckSet):")
	for _, c := range inspector.CheckCodes {
		fmt.Printf("  %s  error %s\n", c.Code, c.Doc)
	}
}
