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
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"irred/internal/buildinfo"
	"irred/internal/earth"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/machine"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/service"
	"irred/internal/service/client"
	"irred/internal/sim"
	"irred/internal/sparse"
	"irred/internal/sweep"
)

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "irredrun: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	kernel := flag.String("kernel", "euler", "kernel: euler | moldyn | mvm")
	dataset := flag.String("dataset", "2k", "dataset: 2k | 10k (euler, moldyn); S | W | A | B (mvm)")
	p := flag.Int("p", 8, "processors")
	k := flag.Int("k", 2, "unrolling factor (phases per processor = k*p)")
	distName := flag.String("dist", "cyclic", "iteration distribution: block | cyclic")
	steps := flag.Int("steps", 100, "timesteps")
	engine := flag.String("engine", "sim", "engine: sim (modelled EARTH) | native (goroutines)")
	seed := flag.Int64("seed", 1, "dataset seed")
	trace := flag.Bool("trace", false, "print a Gantt chart of EU occupancy (sim engine)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON object instead of prose")
	server := flag.String("server", "", "irredd base URL: submit the job there (native semantics) instead of running locally")
	auto := flag.Bool("auto", false, "pick (engine, P, k, dist) from the persisted BENCH trajectory instead of the flags")
	benchDir := flag.String("bench", "bench", "BENCH trajectory directory consulted by -auto")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredrun " + buildinfo.Get().String())
		return
	}
	if *auto {
		runAuto(*kernel, *dataset, *benchDir, *steps, *seed, *jsonOut)
		return
	}

	var dist inspector.Dist
	switch strings.ToLower(*distName) {
	case "block":
		dist = inspector.Block
	case "cyclic":
		dist = inspector.Cyclic
	default:
		fail("unknown distribution %q", *distName)
	}

	switch {
	case *server != "":
		runServer(*server, *kernel, *dataset, *p, *k, *distName, *steps, *seed, *jsonOut)
	case *engine == "sim":
		runSim(*kernel, *dataset, *p, *k, dist, *steps, *seed, *trace, *jsonOut)
	case *engine == "native":
		runNative(*kernel, *dataset, *p, *k, dist, *steps, *seed, *jsonOut)
	default:
		fail("unknown engine %q", *engine)
	}
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

func emitJSON(rep runReport) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rep); err != nil {
		fail("%v", err)
	}
}

func buildLoop(kernel, dataset string, p, k int, dist inspector.Dist, seed int64) (*rts.Loop, string) {
	switch kernel {
	case "euler":
		var nodes, edges int
		switch strings.ToLower(dataset) {
		case "2k":
			nodes, edges = mesh.Paper2K()
		case "10k":
			nodes, edges = mesh.Paper10K()
		default:
			fail("euler datasets: 2k, 10k")
		}
		m := mesh.Generate(nodes, edges, seed)
		return kernels.NewEuler(m, seed).Loop(p, k, dist),
			fmt.Sprintf("euler %s (%d nodes, %d edges)", dataset, nodes, edges)
	case "moldyn":
		var sys *moldyn.System
		switch strings.ToLower(dataset) {
		case "2k":
			sys = moldyn.Paper2K(seed)
		case "10k":
			sys = moldyn.Paper10K(seed)
		default:
			fail("moldyn datasets: 2k, 10k")
		}
		return kernels.NewMoldyn(sys).Loop(p, k, dist),
			fmt.Sprintf("moldyn %s (%d molecules, %d interactions)", dataset, sys.N, sys.NumInteractions())
	case "mvm":
		var class sparse.Class
		switch strings.ToUpper(dataset) {
		case "S":
			class = sparse.ClassS
		case "W":
			class = sparse.ClassW
		case "A":
			class = sparse.ClassA
		case "B":
			class = sparse.ClassB
		default:
			fail("mvm datasets: S, W, A, B")
		}
		a := sparse.Generate(class, uint64(seed))
		return kernels.NewMVM(a).Loop(p, k, dist),
			fmt.Sprintf("mvm class %s (n=%d, nnz=%d)", class.Name, class.N, class.NNZ)
	default:
		fail("unknown kernel %q", kernel)
	}
	return nil, ""
}

func runSim(kernel, dataset string, p, k int, dist inspector.Dist, steps int, seed int64, trace, jsonOut bool) {
	l, desc := buildLoop(kernel, dataset, p, k, dist, seed)
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
		fail("%v", err)
	}
	speedup := float64(seqC) / float64(res.Cycles)
	if jsonOut {
		emitJSON(runReport{
			Engine: "sim", Kernel: kernel, Dataset: dataset, P: p, K: k,
			Dist: dist.String(), Steps: steps, Seed: seed,
			Speedup:       speedup,
			SimSeconds:    res.Seconds,
			SimSeqSeconds: seqS,
			MsgsPerStep:   res.MsgsPerStep,
			BytesPerStep:  res.BytesPerStep,
		})
		return
	}
	fmt.Printf("%s on simulated EARTH/MANNA: P=%d k=%d %s, %d timesteps\n", desc, p, k, dist, steps)
	fmt.Printf("sequential:     %10.2fs simulated\n", seqS)
	fmt.Printf("parallel:       %10.2fs simulated (%.2fx speedup)\n", res.Seconds, speedup)
	fmt.Printf("per step:       %10.4fs\n", cm.Seconds(res.PerStep))
	fmt.Printf("inspector:      %10.4fs (run once)\n", cm.Seconds(res.InspectorCycles))
	fmt.Printf("traffic:        %10.0f messages/step, %.0f bytes/step\n", res.MsgsPerStep, res.BytesPerStep)
	fmt.Printf("phase balance:  max %d iters/phase vs %.1f average\n", res.MaxPhaseIters, res.AvgPhaseIters)
	fmt.Printf("EU utilization: %10.1f%%  (SU: %.1f%%)\n", 100*res.EUUtilization, 100*res.SUUtilization)
	if tr != nil {
		// Render the simulated window (a few timesteps): '#' = EU busy.
		var end sim.Time
		for _, f := range tr.Fibers {
			if f.End > end {
				end = f.End
			}
		}
		fmt.Printf("\nEU occupancy over the simulated window (%d fibers, %d messages):\n",
			len(tr.Fibers), len(tr.Msgs))
		fmt.Print(tr.Gantt(p, end, 100))
	}
}

// nativeRun executes one kernel natively and returns the parallel result,
// the sequential reference, and both durations.
func nativeRun(kernel, dataset string, p, k int, dist inspector.Dist, steps int, seed int64) (result, want []float64, seqDur, parDur time.Duration) {
	switch kernel {
	case "euler":
		var nodes, edges int
		if strings.ToLower(dataset) == "10k" {
			nodes, edges = mesh.Paper10K()
		} else {
			nodes, edges = mesh.Paper2K()
		}
		m := mesh.Generate(nodes, edges, seed)
		eu := kernels.NewEuler(m, seed)
		t0 := time.Now()
		want = eu.RunSequential(steps)
		seqDur = time.Since(t0)
		nat, q, err := eu.NewNative(p, k, dist)
		if err != nil {
			fail("%v", err)
		}
		t0 = time.Now()
		if err := nat.Run(steps); err != nil {
			fail("%v", err)
		}
		parDur = time.Since(t0)
		result = q
	case "moldyn":
		var sys *moldyn.System
		if strings.ToLower(dataset) == "10k" {
			sys = moldyn.Paper10K(seed)
		} else {
			sys = moldyn.Paper2K(seed)
		}
		md := kernels.NewMoldyn(sys)
		t0 := time.Now()
		wantPos, _ := md.RunSequential(steps)
		seqDur = time.Since(t0)
		nat, pos, _, err := md.NewNative(p, k, dist)
		if err != nil {
			fail("%v", err)
		}
		t0 = time.Now()
		if err := nat.Run(steps); err != nil {
			fail("%v", err)
		}
		parDur = time.Since(t0)
		result, want = pos, wantPos
	case "mvm":
		var class sparse.Class
		switch strings.ToUpper(dataset) {
		case "W":
			class = sparse.ClassW
		case "A":
			class = sparse.ClassA
		case "B":
			class = sparse.ClassB
		default:
			class = sparse.ClassS
		}
		a := sparse.Generate(class, uint64(seed))
		mv := kernels.NewMVM(a)
		t0 := time.Now()
		want = mv.RunSequential(steps)
		seqDur = time.Since(t0)
		nat, err := mv.NewNative(p, k, dist)
		if err != nil {
			fail("%v", err)
		}
		t0 = time.Now()
		if err := nat.Run(steps); err != nil {
			fail("%v", err)
		}
		parDur = time.Since(t0)
		result = nat.X
	default:
		fail("unknown kernel %q", kernel)
	}
	return result, want, seqDur, parDur
}

func runNative(kernel, dataset string, p, k int, dist inspector.Dist, steps int, seed int64, jsonOut bool) {
	result, want, seqDur, parDur := nativeRun(kernel, dataset, p, k, dist, steps, seed)
	diff := maxRelDiff(result, want)
	if jsonOut {
		emitJSON(runReport{
			Engine: "native", Kernel: kernel, Dataset: dataset, P: p, K: k,
			Dist: dist.String(), Steps: steps, Seed: seed,
			SeqMS:        float64(seqDur) / float64(time.Millisecond),
			ParMS:        float64(parDur) / float64(time.Millisecond),
			Speedup:      seqDur.Seconds() / parDur.Seconds(),
			MaxRelDiff:   diff,
			ResultLen:    len(result),
			ResultSHA256: service.HashResult(result),
		})
		return
	}
	fmt.Printf("native run: P=%d goroutines, k=%d, %s, %d timesteps\n", p, k, dist, steps)
	fmt.Printf("sequential: %v   parallel: %v   speedup %.2fx\n", seqDur, parDur, seqDur.Seconds()/parDur.Seconds())
	fmt.Printf("verification: max rel diff vs sequential = %.2e\n", diff)
}

// runServer submits the job to an irredd daemon and reports its status.
// The server runs the same native engine with the same deterministic
// dataset construction, so result_sha256 matches a local -engine native
// -json run of the same parameters bit for bit.
func runServer(base, kernel, dataset string, p, k int, distName string, steps int, seed int64, jsonOut bool) {
	c := client.New(base)
	ctx := context.Background()
	if err := c.Health(ctx); err != nil {
		fail("server %s not healthy: %v", base, err)
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
		fail("%v", err)
	}
	if st.State != service.StateDone {
		fail("job %s finished %s: %s", st.ID, st.State, st.Error)
	}
	if jsonOut {
		emitJSON(runReport{
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
		return
	}
	fmt.Printf("server run on %s: job %s, P=%d k=%d %s, %d timesteps\n", base, st.ID, p, k, distName, steps)
	fmt.Printf("queued: %.1fms   run: %.1fms   schedule cache hit: %v\n", st.QueuedMS, st.RunMS, st.CacheHit)
	fmt.Printf("result: %d values, sha256 %s\n", st.ResultLen, st.ResultSHA256)
}

// runAuto loads the latest BENCH trajectory, asks the tuner for the
// measured-fastest strategy for this workload, and executes the picked
// cell through the sweep harness — which can run every engine it knows
// (native, interpreter), not just the flag-selectable ones. Cells of engines the
// harness does not know, which older trajectories may hold, never back a
// pick.
func runAuto(kernel, dataset, benchDir string, steps int, seed int64, jsonOut bool) {
	// Proof-elided picks are allowed: the sweep harness only elides checks
	// on loops carrying dataflow bounds proofs, so an unchecked cell is as
	// safe here as it was when it was measured.
	tn, path, err := rts.NewTunerFromDir(benchDir, rts.TunerOptions{AllowUnchecked: true, Engines: sweep.Engines})
	if err != nil {
		fail("-auto: %v (run irredsweep first to persist a trajectory)", err)
	}
	class := strings.ToLower(dataset)
	if kernel == "mvm" {
		class = strings.ToUpper(dataset)
	}
	pick := tn.Pick(kernel, class)
	cell := sweep.Cell{
		Kernel: kernel, Class: class, Engine: pick.Engine,
		P: pick.P, K: pick.K, Dist: pick.Dist, Checked: pick.Checked,
	}
	bc := sweep.RunCell(cell, sweep.Options{Steps: steps, Warmup: 1, Repeats: 3, Seed: seed})
	if bc.Error != "" {
		fail("auto cell %s: %s", bc.ID, bc.Error)
	}
	if jsonOut {
		emitJSON(runReport{
			Engine: pick.Engine, Kernel: kernel, Dataset: class,
			P: pick.P, K: pick.K, Dist: pick.Dist, Steps: steps, Seed: seed,
			ParMS:     bc.Wall.Score(),
			TunedFrom: pick.Source,
			BenchPath: path,
		})
		return
	}
	fmt.Printf("auto-tuned from %s\n", path)
	fmt.Printf("pick for %s/%s: %s\n", kernel, class, pick)
	if pick.Source != "heuristic" {
		fmt.Printf("measured there:  %.3fms trimmed mean\n", pick.ScoreMS)
	}
	fmt.Printf("measured now:    %.3fms trimmed mean over %d runs of %d steps\n",
		bc.Wall.Score(), bc.Repeats, steps)
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
