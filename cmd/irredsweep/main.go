// Command irredsweep is the auto-tuning benchmark harness: it expands a
// grid of (kernel, class, engine, P, k, distribution) cells,
// measures every legal cell through the matching execution
// engine, and persists the results as a BENCH_<date>.json trajectory
// (plus CSV and JSONL artifacts) stamped with the commit, toolchain and
// machine that produced it.
//
// Examples:
//
//	irredsweep                                    # full default grid into ./bench
//	irredsweep -grid small -repeats 2             # the CI short sweep
//	irredsweep -kernels mvm -classes mvm=S -p 1,2,4 -engines native,sim
//	irredsweep -list                              # show cells + skips, run nothing
//	irredsweep -compare bench/BENCH_seed.json     # sweep, then gate against a baseline
//	irredsweep -compare old.json -against new.json  # gate two existing files, no sweep
//
// The comparison gate exits 2 when any matched cell regressed by more
// than -threshold (default +25%), or when no cell matched at all, which
// is what CI hangs the perf gate on. The persisted trajectories also
// feed the runtime tuner: irredrun -auto and irredd pick (engine, P, k)
// per workload from the latest BENCH file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"irred/internal/benchfmt"
	"irred/internal/buildinfo"
	"irred/internal/service"
	"irred/internal/sweep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "irredsweep: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	gridName := flag.String("grid", "default", "base grid: default | small (CI short sweep) | adaptive (streaming amortization)")
	kernelsFlag := flag.String("kernels", "", "comma-separated kernels to sweep (override grid)")
	classesFlag := flag.String("classes", "", `per-kernel classes, e.g. "mvm=S,W;raw=tiny" (override grid)`)
	pFlag := flag.String("p", "", "comma-separated processor counts (override grid)")
	kFlag := flag.String("k", "", "comma-separated unrolling factors (override grid)")
	distsFlag := flag.String("dists", "", "comma-separated distributions: block,cyclic (override grid)")
	enginesFlag := flag.String("engines", "", "comma-separated engines: native,interp,sim (override grid)")
	deltaFlag := flag.String("delta-fracs", "", "comma-separated delta fractions for the adaptive kernel, e.g. 0.01,0.05,0.2 (override grid)")

	steps := flag.Int("steps", 3, "timesteps per measured run")
	warmup := flag.Int("warmup", 1, "discarded runs before measurement")
	repeats := flag.Int("repeats", 5, "measured runs per cell")
	trim := flag.Float64("trim", 0.2, "outlier-trim fraction for the trimmed mean")
	seed := flag.Int64("seed", 1, "dataset seed")
	cacheDir := flag.String("cache-dir", "", "schedule-cache persistence directory (default: in-memory only)")

	outDir := flag.String("out", "bench", "output directory for BENCH/CSV/JSONL artifacts")
	suffix := flag.String("suffix", "", "filename suffix to disambiguate multiple runs per day")
	list := flag.Bool("list", false, "print the expanded cells and skips, run nothing")
	quiet := flag.Bool("q", false, "suppress per-cell progress")

	compare := flag.String("compare", "", "baseline BENCH file: gate results against it (exit 2 on regression)")
	against := flag.String("against", "", "candidate BENCH file: compare -compare against this file instead of sweeping")
	threshold := flag.Float64("threshold", 0.25, "allowed fractional slowdown before a matched cell is a regression")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredsweep " + buildinfo.Get().String())
		return
	}
	if *against != "" {
		if *compare == "" {
			fail("-against needs -compare <baseline>")
		}
		gate(*compare, *against, *threshold)
		return
	}

	g, err := buildGrid(*gridName, *kernelsFlag, *classesFlag, *pFlag, *kFlag, *distsFlag, *enginesFlag, *deltaFlag)
	if err != nil {
		fail("%v", err)
	}
	if *list {
		cells, skipped, err := g.Expand()
		if err != nil {
			fail("%v", err)
		}
		for _, c := range cells {
			fmt.Println(c.ID())
		}
		for _, s := range skipped {
			fmt.Printf("skip %s: %s\n", s.ID, s.Reason)
		}
		fmt.Printf("%d cells, %d skipped\n", len(cells), len(skipped))
		return
	}

	cache, err := service.NewCache(1024, *cacheDir)
	if err != nil {
		fail("%v", err)
	}
	opt := sweep.Options{
		Steps: *steps, Warmup: *warmup, Repeats: *repeats,
		TrimFrac: *trim, Seed: *seed, Cache: cache,
		Stamp: sweep.NewStamp(time.Now()),
	}
	if !*quiet {
		opt.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	start := time.Now()
	sum, err := sweep.Run(g, opt)
	if err != nil {
		fail("%v", err)
	}

	base := benchfmt.FileName(sum.Date, *suffix)
	benchPath := *outDir + "/" + base
	if err := benchfmt.Write(benchPath, sum); err != nil {
		fail("%v", err)
	}
	stem := strings.TrimSuffix(base, ".json")
	csvPath := *outDir + "/" + stem + ".csv"
	jsonlPath := *outDir + "/" + stem + ".jsonl"
	if err := sweep.WriteCSV(csvPath, sum); err != nil {
		fail("%v", err)
	}
	if err := sweep.WriteJSONL(jsonlPath, sum); err != nil {
		fail("%v", err)
	}

	errors := 0
	for i := range sum.Cells {
		if sum.Cells[i].Error != "" {
			errors++
			fmt.Fprintf(os.Stderr, "irredsweep: cell %s: %s\n", sum.Cells[i].ID, sum.Cells[i].Error)
		}
	}
	fmt.Printf("swept %d cells (%d errored, %d skipped) in %s on commit %s\n",
		len(sum.Cells), errors, len(sum.Skipped), time.Since(start).Round(time.Millisecond), shortCommit(sum.Commit))
	fmt.Printf("wrote %s, %s, %s\n", benchPath, csvPath, jsonlPath)

	if *compare != "" {
		gateAgainst(*compare, sum, *threshold)
	}
}

// gate compares two existing BENCH files and exits 2 on regression or
// when nothing matched.
func gate(basePath, candPath string, threshold float64) {
	baseline, err := benchfmt.Read(basePath)
	if err != nil {
		fail("%v", err)
	}
	candidate, err := benchfmt.Read(candPath)
	if err != nil {
		fail("%v", err)
	}
	gateSummaries(baseline, candidate, threshold)
}

func gateAgainst(basePath string, candidate *benchfmt.Summary, threshold float64) {
	baseline, err := benchfmt.Read(basePath)
	if err != nil {
		fail("%v", err)
	}
	gateSummaries(baseline, candidate, threshold)
}

func gateSummaries(baseline, candidate *benchfmt.Summary, threshold float64) {
	comp := benchfmt.Compare(baseline, candidate, threshold)
	fmt.Print(comp.Table())
	switch {
	case comp.Matched == 0:
		fmt.Fprintln(os.Stderr, "irredsweep: no cell matched the baseline; the gate compared nothing")
		os.Exit(2)
	case comp.Failed():
		fmt.Fprintf(os.Stderr, "irredsweep: %d cells regressed beyond +%.0f%%\n", comp.Regressions, comp.Threshold*100)
		os.Exit(2)
	}
}

func shortCommit(c string) string {
	if len(c) > 12 {
		return c[:12]
	}
	if c == "" {
		return "unknown"
	}
	return c
}

// buildGrid starts from the named base grid and applies any dimension
// overrides from flags.
func buildGrid(name, kernels, classes, ps, ks, dists, engines, deltas string) (sweep.Grid, error) {
	var g sweep.Grid
	switch name {
	case "default":
		g = sweep.DefaultGrid()
	case "small":
		g = sweep.SmallGrid()
	case "adaptive":
		g = sweep.AdaptiveGrid()
	default:
		return g, fmt.Errorf("unknown grid %q (default | small | adaptive)", name)
	}
	if kernels != "" {
		g.Kernels = splitList(kernels)
	}
	if classes != "" {
		m := map[string][]string{}
		for _, part := range strings.Split(classes, ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			kernel, list, found := strings.Cut(part, "=")
			if !found {
				return g, fmt.Errorf(`classes: %q is not kernel=class,class`, part)
			}
			m[strings.TrimSpace(kernel)] = splitList(list)
		}
		g.Classes = m
	}
	var err error
	if ps != "" {
		if g.Ps, err = splitInts(ps); err != nil {
			return g, fmt.Errorf("p: %w", err)
		}
	}
	if ks != "" {
		if g.Ks, err = splitInts(ks); err != nil {
			return g, fmt.Errorf("k: %w", err)
		}
	}
	if dists != "" {
		g.Dists = splitList(dists)
	}
	if engines != "" {
		g.Engines = splitList(engines)
	}
	if deltas != "" {
		g.DeltaFracs = g.DeltaFracs[:0]
		for _, v := range splitList(deltas) {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return g, fmt.Errorf("delta-fracs: %q is not a number", v)
			}
			g.DeltaFracs = append(g.DeltaFracs, f)
		}
	}
	return g, nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, v := range splitList(s) {
		n, err := strconv.Atoi(v)
		if err != nil {
			return nil, fmt.Errorf("%q is not an integer", v)
		}
		out = append(out, n)
	}
	return out, nil
}
