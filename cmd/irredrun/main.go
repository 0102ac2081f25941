// Command irredrun executes one of the paper's kernels under a chosen
// strategy, either on the simulated EARTH machine (reporting simulated
// MANNA seconds, like the paper), natively on goroutines (reporting wall
// clock and verifying against the sequential kernel), or remotely on an
// irredd reduction service (-server).
//
// Examples:
//
//	irredrun -kernel euler -dataset 2k -p 32 -k 2 -dist cyclic
//	irredrun -kernel mvm -dataset W -p 16 -k 2
//	irredrun -kernel moldyn -dataset 10k -p 8 -k 4 -engine native -steps 10
//	irredrun -kernel mvm -dataset S -p 4 -k 2 -steps 5 -engine native -json
//	irredrun -kernel mvm -dataset S -p 4 -k 2 -steps 5 -server http://127.0.0.1:8321
//	irredrun -kernel mvm -dataset S -steps 5 -auto -bench bench
//
// -auto ignores the strategy flags: it loads the latest BENCH_*.json
// trajectory from -bench (written by irredsweep), picks the
// measured-fastest (engine, P, k, dist) for the workload among the
// engines the sweep harness runs, and executes that cell.
//
// -json emits one machine-readable object on stdout (timings, result hash)
// so tooling can diff local vs server runs.
//
// Kernel and dataset names come from the kernels table on every engine;
// an unknown one is rejected before any work starts. Exit status: 0 on
// success, 1 when the run fails, 2 on a usage error.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"

	"irred/internal/buildinfo"
	"irred/internal/earth"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/machine"
	"irred/internal/rts"
	"irred/internal/service"
	"irred/internal/service/client"
	"irred/internal/sim"
	"irred/internal/sweep"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the job and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("irredrun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	kernel := fs.String("kernel", "euler", "kernel: euler | moldyn | mvm")
	dataset := fs.String("dataset", "2k", "dataset: 2k | 10k (euler, moldyn); S | W | A | B (mvm)")
	p := fs.Int("p", 8, "processors")
	k := fs.Int("k", 2, "unrolling factor (phases per processor = k*p)")
	distName := fs.String("dist", "cyclic", "iteration distribution: block | cyclic")
	steps := fs.Int("steps", 100, "timesteps")
	engine := fs.String("engine", "sim", "engine: sim (modelled EARTH) | native (goroutines)")
	seed := fs.Int64("seed", 1, "dataset seed")
	trace := fs.Bool("trace", false, "print a Gantt chart of EU occupancy (sim engine)")
	jsonOut := fs.Bool("json", false, "emit one machine-readable JSON object instead of prose")
	server := fs.String("server", "", "irredd base URL: submit the job there (native semantics) instead of running locally")
	auto := fs.Bool("auto", false, "pick (engine, P, k, dist) from the persisted BENCH trajectory instead of the flags")
	benchDir := fs.String("bench", "bench", "BENCH trajectory directory consulted by -auto")
	version := fs.Bool("version", false, "print build information and exit")
	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintf(stderr, "irredrun: %v\n", err)
		return code
	}

	if *version {
		fmt.Fprintln(stdout, "irredrun "+buildinfo.Get().String())
		return 0
	}
	// -auto also tunes the sweep harness's synthetic raw family, whose
	// classes the harness checks itself.
	ds := *dataset
	if !*auto || *kernel != "raw" {
		var err error
		if ds, err = kernels.Dataset(*kernel, *dataset); err != nil {
			return fail(2, err)
		}
	}
	var dist inspector.Dist
	switch strings.ToLower(*distName) {
	case "block":
		dist = inspector.Block
	case "cyclic":
		dist = inspector.Cyclic
	default:
		if !*auto {
			return fail(2, fmt.Errorf("unknown distribution %q", *distName))
		}
	}

	var err error
	switch {
	case *auto:
		err = runAuto(stdout, *kernel, ds, *benchDir, *steps, *seed, *jsonOut)
	case *server != "":
		err = runServer(stdout, *server, *kernel, ds, *p, *k, *distName, *steps, *seed, *jsonOut)
	case *engine == "sim":
		err = runSim(stdout, *kernel, ds, *p, *k, dist, *steps, *seed, *trace, *jsonOut)
	case *engine == "native":
		err = runNative(stdout, *kernel, ds, *p, *k, dist, *steps, *seed, *jsonOut)
	default:
		return fail(2, fmt.Errorf("unknown engine %q", *engine))
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// runReport is the -json payload: one object per run, identical fields for
// local native and server runs so results can be diffed (result_sha256 is
// bit-exact across processes for the same job).
type runReport struct {
	Engine  string `json:"engine"` // sim | native | server
	Kernel  string `json:"kernel"`
	Dataset string `json:"dataset"`
	P       int    `json:"p"`
	K       int    `json:"k"`
	Dist    string `json:"dist"`
	Steps   int    `json:"steps"`
	Seed    int64  `json:"seed"`

	// Native/server runs.
	SeqMS        float64 `json:"seq_ms,omitempty"`
	ParMS        float64 `json:"par_ms,omitempty"`
	Speedup      float64 `json:"speedup,omitempty"`
	MaxRelDiff   float64 `json:"max_rel_diff,omitempty"`
	ResultLen    int     `json:"result_len,omitempty"`
	ResultSHA256 string  `json:"result_sha256,omitempty"`

	// Server runs.
	JobID    string  `json:"job_id,omitempty"`
	CacheHit bool    `json:"cache_hit,omitempty"`
	QueuedMS float64 `json:"queued_ms,omitempty"`
	RunMS    float64 `json:"run_ms,omitempty"`

	// Sim runs.
	SimSeconds    float64 `json:"sim_seconds,omitempty"`
	SimSeqSeconds float64 `json:"sim_seq_seconds,omitempty"`
	MsgsPerStep   float64 `json:"msgs_per_step,omitempty"`
	BytesPerStep  float64 `json:"bytes_per_step,omitempty"`

	// Auto runs.
	TunedFrom string `json:"tuned_from,omitempty"` // BENCH cell ID or "heuristic"
	BenchPath string `json:"bench_path,omitempty"` // trajectory file consulted
}

func emitJSON(w io.Writer, rep runReport) error {
	return json.NewEncoder(w).Encode(rep)
}

func runSim(w io.Writer, kernel, dataset string, p, k int, dist inspector.Dist, steps int, seed int64, trace, jsonOut bool) error {
	wl, err := kernels.Open(kernel, dataset, seed)
	if err != nil {
		return err
	}
	l := wl.Loop(p, k, dist)
	cm := machine.MANNA()

	opt := rts.SimOptions{Steps: steps}
	var tr *earth.Trace
	if trace {
		tr = &earth.Trace{}
		opt.Trace = tr
	}
	seqC, seqS := rts.RunSequentialSim(l, opt)
	res, err := rts.RunSim(l, opt)
	if err != nil {
		return err
	}
	speedup := float64(seqC) / float64(res.Cycles)
	if jsonOut {
		return emitJSON(w, runReport{
			Engine: "sim", Kernel: kernel, Dataset: dataset, P: p, K: k,
			Dist: dist.String(), Steps: steps, Seed: seed,
			Speedup:       speedup,
			SimSeconds:    res.Seconds,
			SimSeqSeconds: seqS,
			MsgsPerStep:   res.MsgsPerStep,
			BytesPerStep:  res.BytesPerStep,
		})
	}
	fmt.Fprintf(w, "%s %s (%d elements, %d iterations) on simulated EARTH/MANNA: P=%d k=%d %s, %d timesteps\n",
		kernel, dataset, l.Cfg.NumElems, l.Cfg.NumIters, p, k, dist, steps)
	fmt.Fprintf(w, "sequential:     %10.2fs simulated\n", seqS)
	fmt.Fprintf(w, "parallel:       %10.2fs simulated (%.2fx speedup)\n", res.Seconds, speedup)
	fmt.Fprintf(w, "per step:       %10.4fs\n", cm.Seconds(res.PerStep))
	fmt.Fprintf(w, "inspector:      %10.4fs (run once)\n", cm.Seconds(res.InspectorCycles))
	fmt.Fprintf(w, "traffic:        %10.0f messages/step, %.0f bytes/step\n", res.MsgsPerStep, res.BytesPerStep)
	fmt.Fprintf(w, "phase balance:  max %d iters/phase vs %.1f average\n", res.MaxPhaseIters, res.AvgPhaseIters)
	fmt.Fprintf(w, "EU utilization: %10.1f%%  (SU: %.1f%%)\n", 100*res.EUUtilization, 100*res.SUUtilization)
	if tr != nil {
		// Render the simulated window (a few timesteps): '#' = EU busy.
		var end sim.Time
		for _, f := range tr.Fibers {
			if f.End > end {
				end = f.End
			}
		}
		fmt.Fprintf(w, "\nEU occupancy over the simulated window (%d fibers, %d messages):\n",
			len(tr.Fibers), len(tr.Msgs))
		fmt.Fprint(w, tr.Gantt(p, end, 100))
	}
	return nil
}

// runNative runs one kernel on the native engine and checks it against
// the sequential oracle.
func runNative(w io.Writer, kernel, dataset string, p, k int, dist inspector.Dist, steps int, seed int64, jsonOut bool) error {
	wl, err := kernels.Open(kernel, dataset, seed)
	if err != nil {
		return err
	}
	t0 := time.Now()
	want := wl.Oracle(steps)
	seqDur := time.Since(t0)
	nat, result, err := wl.NewNativeFrom(nil, p, k, dist)
	if err != nil {
		return err
	}
	t0 = time.Now()
	if err := nat.Run(steps); err != nil {
		return err
	}
	parDur := time.Since(t0)
	diff := maxRelDiff(result, want)
	if jsonOut {
		return emitJSON(w, runReport{
			Engine: "native", Kernel: kernel, Dataset: dataset, P: p, K: k,
			Dist: dist.String(), Steps: steps, Seed: seed,
			SeqMS:        float64(seqDur) / float64(time.Millisecond),
			ParMS:        float64(parDur) / float64(time.Millisecond),
			Speedup:      seqDur.Seconds() / parDur.Seconds(),
			MaxRelDiff:   diff,
			ResultLen:    len(result),
			ResultSHA256: service.HashResult(result),
		})
	}
	fmt.Fprintf(w, "native run: P=%d goroutines, k=%d, %s, %d timesteps\n", p, k, dist, steps)
	fmt.Fprintf(w, "sequential: %v   parallel: %v   speedup %.2fx\n", seqDur, parDur, seqDur.Seconds()/parDur.Seconds())
	fmt.Fprintf(w, "verification: max rel diff vs sequential = %.2e\n", diff)
	return nil
}

// runServer submits the job to an irredd daemon and reports its status.
// The server runs the same native engine with the same deterministic
// dataset construction, so result_sha256 matches a local -engine native
// -json run of the same parameters bit for bit.
func runServer(w io.Writer, base, kernel, dataset string, p, k int, distName string, steps int, seed int64, jsonOut bool) error {
	c := client.New(base)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		return fmt.Errorf("server %s not healthy: %v", base, err)
	}
	spec := service.JobSpec{
		Kernel:  kernel,
		Dataset: dataset,
		Seed:    seed,
		P:       p,
		K:       k,
		Dist:    strings.ToLower(distName),
		Steps:   steps,
	}
	st, err := c.SubmitWait(ctx, spec)
	if err != nil {
		return err
	}
	if st.State != service.StateDone {
		return fmt.Errorf("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if jsonOut {
		return emitJSON(w, runReport{
			Engine: "server", Kernel: kernel, Dataset: dataset, P: p, K: k,
			Dist: strings.ToLower(distName), Steps: steps, Seed: seed,
			ParMS:        st.RunMS,
			ResultLen:    st.ResultLen,
			ResultSHA256: st.ResultSHA256,
			JobID:        st.ID,
			CacheHit:     st.CacheHit,
			QueuedMS:     st.QueuedMS,
			RunMS:        st.RunMS,
		})
	}
	fmt.Fprintf(w, "server run on %s: job %s, P=%d k=%d %s, %d timesteps\n", base, st.ID, p, k, distName, steps)
	fmt.Fprintf(w, "queued: %.1fms   run: %.1fms   schedule cache hit: %v\n", st.QueuedMS, st.RunMS, st.CacheHit)
	fmt.Fprintf(w, "result: %d values, sha256 %s\n", st.ResultLen, st.ResultSHA256)
	return nil
}

// runAuto loads the latest BENCH trajectory, asks the tuner for the
// measured-fastest strategy for this workload, and executes the picked
// cell through the sweep harness — which can run every engine it knows
// (native, interpreter), not just the flag-selectable ones. Cells of engines the
// harness does not know, which older trajectories may hold, never back a
// pick.
func runAuto(w io.Writer, kernel, class, benchDir string, steps int, seed int64, jsonOut bool) error {
	tn, path, err := rts.NewTunerFromDir(benchDir, rts.TunerOptions{Engines: sweep.Engines})
	if err != nil {
		return fmt.Errorf("-auto: %v (run irredsweep first to persist a trajectory)", err)
	}
	pick := tn.Pick(kernel, class)
	cell := sweep.Cell{
		Kernel: kernel, Class: class, Engine: pick.Engine,
		P: pick.P, K: pick.K, Dist: pick.Dist,
	}
	bc := sweep.RunCell(cell, sweep.Options{Steps: steps, Warmup: 1, Repeats: 3, Seed: seed})
	if bc.Error != "" {
		return fmt.Errorf("auto cell %s: %s", bc.ID, bc.Error)
	}
	if jsonOut {
		return emitJSON(w, runReport{
			Engine: pick.Engine, Kernel: kernel, Dataset: class,
			P: pick.P, K: pick.K, Dist: pick.Dist, Steps: steps, Seed: seed,
			ParMS:     bc.Wall.Score(),
			TunedFrom: pick.Source,
			BenchPath: path,
		})
	}
	fmt.Fprintf(w, "auto-tuned from %s\n", path)
	fmt.Fprintf(w, "pick for %s/%s: %s\n", kernel, class, pick)
	if pick.Source != "heuristic" {
		fmt.Fprintf(w, "measured there:  %.3fms trimmed mean\n", pick.ScoreMS)
	}
	fmt.Fprintf(w, "measured now:    %.3fms trimmed mean over %d runs of %d steps\n",
		bc.Wall.Score(), bc.Repeats, steps)
	return nil
}

func maxRelDiff(a, b []float64) float64 {
	m := 0.0
	for i := range a {
		d := math.Abs(a[i]-b[i]) / (1 + math.Abs(b[i]))
		if d > m {
			m = d
		}
	}
	return m
}
