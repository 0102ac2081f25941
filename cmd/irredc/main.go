// Command irredc is the IRL compiler driver: it parses an irregular-loop
// program, runs the paper's Section 4 analysis (array sections, reference
// groups), performs loop fission when a loop updates several groups, and
// prints the analysis report, the fissioned program, and the generated
// Threaded-C-style phase program.
//
// Usage:
//
//	irredc [-lint] [-describe] [-fissioned] [-threaded] [-opt-report] [file.irl]
//	irredc -legality-report [file.irl ...]
//	irredc -reuse-report [file.irl ...]
//
// With no file, source is read from standard input. With no mode flags,
// everything is printed. -lint runs the static analyzers first and refuses
// to generate code when any finding is Error-level. -opt-report prints the
// bounds-proof artifact of every irregular loop: which subscript
// obligations the interval analysis discharged symbolically (unproven
// accesses fall back to checked execution at run time, when the proof is
// re-attempted against concrete parameters and scanned indirection
// contents). -legality-report runs the schedule-legality prover over every
// named file (it accepts several) and prints each loop's schedule license
// with its machine-checked justification ledger: which fold operators were
// inferred, which algebraic properties were proven or disproven (with
// counterexamples), and which parallel schedules — rotation, tiling — the
// loop is licensed for. The legality pass is total, so the
// report covers programs the Section 4 analysis would reject.
// -reuse-report runs the inter-loop schedule-reuse prover instead: it
// prints, per program, which loops are licensed to execute against an
// earlier loop's inspector schedules (with the named-rule justification
// ledger) and which reuses were refused — exiting nonzero when a license
// fails its own Verify self-check, i.e. when a grant is unsound.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"irred/internal/buildinfo"
	"irred/internal/codegen"
	"irred/internal/dataflow"
	"irred/internal/interp"
	"irred/internal/lang"
	"irred/internal/lint"
)

func main() {
	describe := flag.Bool("describe", false, "print the analysis report (sections, reference groups)")
	fissioned := flag.Bool("fissioned", false, "print the program after loop fission")
	threaded := flag.Bool("threaded", false, "print the generated Threaded-C-style listing")
	doLint := flag.Bool("lint", false, "run the static analyzers; refuse codegen on error findings")
	optReport := flag.Bool("opt-report", false, "print the bounds-proof artifact per irregular loop")
	legality := flag.Bool("legality-report", false, "print the schedule license and justification ledger per loop")
	reuse := flag.Bool("reuse-report", false, "print the inter-loop schedule-reuse ledger; exit nonzero on unsound reuse")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredc " + buildinfo.Get().String())
		return
	}
	if *legality {
		legalityReport(flag.Args())
		return
	}
	if *reuse {
		reuseReport(flag.Args())
		return
	}

	var src []byte
	var err error
	switch flag.NArg() {
	case 0:
		src, err = io.ReadAll(os.Stdin)
	case 1:
		src, err = os.ReadFile(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: irredc [flags] [file.irl]")
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "irredc:", err)
		os.Exit(1)
	}

	if *doLint {
		diags, err := lint.RunSource(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredc:", err)
			os.Exit(1)
		}
		diags.Render(os.Stderr)
		if diags.HasErrors() {
			fmt.Fprintln(os.Stderr, "irredc: lint found errors; code generation refused")
			os.Exit(1)
		}
	}

	unit, err := codegen.Compile(string(src))
	if err != nil {
		fmt.Fprintln(os.Stderr, "irredc:", err)
		os.Exit(1)
	}

	if *optReport {
		fmt.Println("=== bounds proof (symbolic) ===")
		env := interp.NewEnv(unit.Fissioned)
		for _, p := range unit.Plans {
			if p.Kind != codegen.Irregular {
				continue
			}
			fmt.Printf("%s: %s", p.Name, p.ComputeFacts(env).Report())
		}
	}

	all := !*describe && !*fissioned && !*threaded && !*optReport && !*legality
	if *describe || all {
		fmt.Println("=== analysis ===")
		fmt.Print(unit.Describe())
	}
	if *fissioned || all {
		fmt.Println("=== after loop fission ===")
		fmt.Print(lang.Format(unit.Fissioned))
	}
	if *threaded || all {
		fmt.Println("=== generated Threaded-C ===")
		for _, p := range unit.Plans {
			fmt.Print(p.ThreadedC())
			fmt.Println()
		}
	}
}

// legalityReport runs the schedule-legality prover over each file (or
// stdin when none are named) and prints every loop's license with its
// justification ledger. Each ledger is re-verified before printing, so a
// rendered grant is always backed by a machine-checked proof chain. The
// exit status is 1 when any file fails to parse, any ledger fails its
// self-check, or any loop holding a reduction is refused every parallel
// schedule — so CI can gate on legality.
func legalityReport(files []string) {
	type input struct {
		name string
		src  []byte
	}
	var inputs []input
	if len(files) == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredc:", err)
			os.Exit(1)
		}
		inputs = append(inputs, input{"<stdin>", src})
	}
	failed := false
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredc:", err)
			failed = true
			continue
		}
		inputs = append(inputs, input{name, src})
	}
	for _, in := range inputs {
		prog, err := lang.Parse(string(in.src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredc: %s: %v\n", in.name, err)
			failed = true
			continue
		}
		fmt.Printf("=== schedule legality: %s ===\n", in.name)
		for _, lic := range dataflow.LegalizeProgram(prog, dataflow.Options{}) {
			if err := lic.Verify(); err != nil {
				fmt.Fprintf(os.Stderr, "irredc: %s: ledger self-check failed: %v\n", in.name, err)
				failed = true
			}
			fmt.Print(lic.Report())
			if len(lic.Ops) > 0 && !lic.Rotation && !lic.Tile {
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// reuseReport runs the inter-loop schedule-reuse prover over each file
// (or stdin when none are named) and prints the per-program ledger:
// grants with justifications, refusals with positions. Every license is
// re-verified before printing; a failed self-check — an unsound grant —
// exits 1 so CI can gate on reuse soundness. Refusals alone are not
// failures: refusing is the sound answer for a rewired indirection.
func reuseReport(files []string) {
	type input struct {
		name string
		src  []byte
	}
	var inputs []input
	if len(files) == 0 {
		src, err := io.ReadAll(os.Stdin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredc:", err)
			os.Exit(1)
		}
		inputs = append(inputs, input{"<stdin>", src})
	}
	failed := false
	for _, name := range files {
		src, err := os.ReadFile(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "irredc:", err)
			failed = true
			continue
		}
		inputs = append(inputs, input{name, src})
	}
	for _, in := range inputs {
		prog, err := lang.Parse(string(in.src))
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredc: %s: %v\n", in.name, err)
			failed = true
			continue
		}
		rl := dataflow.ProveReuse(prog, dataflow.Options{})
		if err := rl.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "irredc: %s: reuse ledger self-check failed: %v\n", in.name, err)
			failed = true
		}
		fmt.Printf("=== schedule reuse: %s ===\n", in.name)
		fmt.Print(rl.Report())
	}
	if failed {
		os.Exit(1)
	}
}
