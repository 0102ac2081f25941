package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/machine"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sim"
	"irred/internal/sparse"
)

// AblationK extends the paper's k ∈ {1,2,4} evaluation to k = 8 on the
// euler 2K mesh: more phases mean more overlap slack and imbalance
// tolerance, but more threading overhead and finer locality fragmentation.
func AblationK(opt Options) (*Figure, error) {
	opt.fill([]int{8, 16, 32})
	nodes, edges := mesh.Paper2K()
	m := mesh.Generate(nodes, edges, opt.Seed)
	eu := kernels.NewEuler(m, opt.Seed)
	strats := []StrategyDef{
		{"k=1", 1, inspector.Cyclic},
		{"k=2", 2, inspector.Cyclic},
		{"k=4", 4, inspector.Cyclic},
		{"k=8", 8, inspector.Cyclic},
	}
	f, err := runFigure("ablation-k", "euler 2K: unrolling factor sweep (cyclic)", opt, opt.Procs, strats,
		func(p, k int, d inspector.Dist) *rts.Loop { return eu.Loop(p, k, d) })
	if err != nil {
		return nil, err
	}
	f.Notes = append(f.Notes, "the paper evaluates k in {1,2,4} and finds k=2 the best balance")
	return f, nil
}

// AblationEdgeOrder compares block and cyclic distributions on the natural
// (coarsely sorted) edge order versus a fully shuffled edge list: the
// block distribution's per-phase imbalance comes from edge/node
// correlation, which shuffling destroys.
func AblationEdgeOrder(opt Options) (string, error) {
	opt.fill([]int{32})
	nodes, edges := mesh.Paper2K()
	natural := mesh.Generate(nodes, edges, opt.Seed)
	shuffled := natural.Shuffled(opt.Seed + 1)
	var b strings.Builder
	b.WriteString("ABLATION-EDGE-ORDER: euler 2K at P=32, k=2 — edge ordering vs distribution\n")
	fmt.Fprintf(&b, "%10s %8s %14s %14s %14s\n", "ordering", "dist", "seconds", "maxPhaseIters", "avgPhaseIters")
	for _, tc := range []struct {
		name string
		m    *mesh.Mesh
	}{{"natural", natural}, {"shuffled", shuffled}} {
		eu := kernels.NewEuler(tc.m, opt.Seed)
		for _, d := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
			res, err := rts.RunSim(eu.Loop(32, 2, d), rts.SimOptions{Steps: opt.Steps})
			if err != nil {
				return "", err
			}
			fmt.Fprintf(&b, "%10s %8s %13.2fs %14d %14.1f\n",
				tc.name, d, res.Seconds, res.MaxPhaseIters, res.AvgPhaseIters)
		}
	}
	return b.String(), nil
}

// AdaptiveRow is one adaptation period of the adaptive ablation.
type AdaptiveRow struct {
	Period           int     // timesteps between indirection mutations
	LightPerStep     float64 // effective seconds/step, full LightInspector rerun
	IncrPerStep      float64 // effective seconds/step, incremental update
	ClassicPerStep   float64 // effective seconds/step, inspector/executor
	LightInspector   float64 // one full preprocessing, seconds
	IncrInspector    float64 // one incremental update, seconds
	ClassicInspect   float64 // one classic schedule build, seconds
	LightOverClassic float64
}

// AblationAdaptive models the paper's future-work scenario: the
// indirection arrays change every `period` timesteps (10%% of the edges per
// adaptation), so preprocessing reruns at that period. The phase strategy
// reruns only the local LightInspector — or, with the incremental variant
// this repository adds (the paper's stated future work), updates only the
// changed iterations. The classic inspector/executor must rebuild its
// communication schedule (requiring an interprocessor exchange) and pays
// per-step ghost traffic. Effective cost = per-step cost + preprocessing
// amortized over the period.
func AblationAdaptive(opt Options, procs int) ([]AdaptiveRow, string, error) {
	opt.fill(nil)
	nodes, edges := mesh.Paper2K()
	m := mesh.Generate(nodes, edges, opt.Seed)
	eu := kernels.NewEuler(m, opt.Seed)
	l := eu.Loop(procs, 2, inspector.Cyclic)
	cm, net := machine.MANNA(), machine.MANNANet()

	res, err := rts.RunSim(l, rts.SimOptions{Steps: opt.Steps})
	if err != nil {
		return nil, "", err
	}
	lightStep := cm.Seconds(res.PerStep)
	lightInsp := cm.Seconds(res.InspectorCycles)
	// Incremental update: 10% of this processor's iterations change.
	changed := l.Cfg.NumIters / procs / 10
	incrInsp := cm.Seconds(rts.IncrementalInspectorCost(cm, l, changed))

	// The classic baseline runs owner-computes: block iterations aligned
	// with block element ownership.
	lB := eu.Loop(procs, 2, inspector.Block)
	cs, err := inspector.ClassicInspect(lB.Cfg, lB.Ind...)
	if err != nil {
		return nil, "", err
	}
	cStep, cInsp := classicCost(cm, net, lB, cs)
	classicStep, classicInsp := cm.Seconds(cStep), cm.Seconds(cInsp)

	var rows []AdaptiveRow
	for _, period := range []int{1, 2, 5, 10, 25, 100} {
		lr := lightStep + lightInsp/float64(period)
		ir := lightStep + incrInsp/float64(period)
		cr := classicStep + classicInsp/float64(period)
		rows = append(rows, AdaptiveRow{
			Period:           period,
			LightPerStep:     lr,
			IncrPerStep:      ir,
			ClassicPerStep:   cr,
			LightInspector:   lightInsp,
			IncrInspector:    incrInsp,
			ClassicInspect:   classicInsp,
			LightOverClassic: lr / cr,
		})
	}

	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION-ADAPTIVE: euler 2K at P=%d — indirection arrays mutate every m steps\n", procs)
	fmt.Fprintf(&b, "preprocessing: LightInspector %.4fs (local), incremental update %.5fs (10%% churn), classic inspector %.4fs (needs exchange)\n",
		lightInsp, incrInsp, classicInsp)
	fmt.Fprintf(&b, "%6s %16s %16s %18s %10s\n", "m", "light (full)", "light (incr)", "inspector/executor", "ratio")
	for _, r := range rows {
		fmt.Fprintf(&b, "%6d %15.4fs %15.4fs %17.4fs %10.2f\n", r.Period, r.LightPerStep, r.IncrPerStep, r.ClassicPerStep, r.LightOverClassic)
	}
	b.WriteString("ratio < 1: the phase strategy is faster. The paper's thesis: frequent adaptation\n")
	b.WriteString("amortizes the classic inspector poorly while the LightInspector stays cheap.\n")
	return rows, b.String(), nil
}

// classicCost is an analytic model of the classic inspector/executor on
// the same machine. Per-step cost is the owner-computes compute (sequential
// work / P — the classic scheme keeps the original iteration order, so no
// phase-partitioning locality loss) under the same compiler-generated-code
// factor as the phase executor (its loop carries translation-table
// indirection and ghost branches), plus the ghost gather/scatter traffic on
// the critical path. The inspector cost follows the CHAOS-style structure:
// a hash-based localize pass over every reference, per-ghost schedule and
// translation-table construction, the request-list exchange, and all-to-all
// message overheads — the parts the LightInspector avoids entirely.
func classicCost(cm machine.CostModel, net machine.Network, l *rts.Loop, cs *inspector.ClassicSchedule) (perStep, insp sim.Time) {
	seq := rts.SequentialCost(cm, l)
	compute := seq / sim.Time(l.Cfg.P)
	if cm.CodegenFactor > 1 {
		compute = sim.Time(float64(compute) * cm.CodegenFactor)
	}

	// Ghost traffic: worst processor sends and receives its ghost bytes
	// each step (gather of read data in, scatter-add of contributions out).
	maxGhost := 0
	for p := 0; p < l.Cfg.P; p++ {
		if g := cs.GhostBytes(p); g > maxGhost {
			maxGhost = g
		}
	}
	comm := 2 * (net.XmitCycles(maxGhost) + net.Latency + net.RecvOverhead)
	perStep = compute + comm

	// Inspector: hash-based localize over every local reference (~60
	// cycles each: hash, probe, insert), schedule + translation-table
	// construction per ghost, the request-list exchange, and three
	// all-to-all synchronization rounds.
	const hashPerRef, perGhost = 60, 200
	refs := sim.Time(l.Cfg.NumIters / l.Cfg.P * len(l.Ind))
	maxGhosts := 0
	for p := 0; p < l.Cfg.P; p++ {
		if g := len(cs.Procs[p].Ghosts); g > maxGhosts {
			maxGhosts = g
		}
	}
	local := refs*hashPerRef + sim.Time(maxGhosts)*perGhost
	exchBytes := cs.InspectorExchangedBytes / l.Cfg.P
	exch := net.XmitCycles(exchBytes) + net.Latency + net.RecvOverhead
	allToAll := sim.Time(l.Cfg.P-1) * (net.SendOverhead + net.RecvOverhead)
	insp = local + 3*(exch+allToAll)
	return perStep, insp
}

// AblationInspector reports the LightInspector's one-time cost relative to
// a single timestep for each kernel — the paper runs it once per 100
// timesteps, so it must be cheap.
func AblationInspector(opt Options) (string, error) {
	opt.fill(nil)
	cm := machine.MANNA()
	var b strings.Builder
	b.WriteString("ABLATION-INSPECTOR: LightInspector cost vs one timestep (P=16, 2c)\n")
	fmt.Fprintf(&b, "%10s %16s %16s %10s\n", "kernel", "inspector (s)", "timestep (s)", "ratio")

	row := func(name string, l *rts.Loop) error {
		res, err := rts.RunSim(l, rts.SimOptions{Steps: opt.Steps})
		if err != nil {
			return err
		}
		insp := cm.Seconds(res.InspectorCycles)
		step := cm.Seconds(res.PerStep)
		fmt.Fprintf(&b, "%10s %15.5fs %15.5fs %10.2f\n", name, insp, step, insp/step)
		return nil
	}
	nodes, edges := mesh.Paper2K()
	eu := kernels.NewEuler(mesh.Generate(nodes, edges, opt.Seed), opt.Seed)
	if err := row("euler2K", eu.Loop(16, 2, inspector.Cyclic)); err != nil {
		return "", err
	}
	md := kernels.NewMoldyn(moldyn.Paper2K(opt.Seed))
	if err := row("moldyn2K", md.Loop(16, 2, inspector.Cyclic)); err != nil {
		return "", err
	}
	mv := kernels.NewMVM(sparse.Generate(sparse.ClassS, uint64(opt.Seed)))
	if err := row("mvmS", mv.Loop(16, 2, inspector.Block)); err != nil {
		return "", err
	}
	b.WriteString("the paper executes the inspector once per run of 100 timesteps\n")
	return b.String(), nil
}

// AblationMachine re-runs the k sweep on a modern machine preset (3 GHz
// core, 32 KB L1, microsecond-latency interconnect) next to the paper's
// MANNA: per cycle, communication is now far more expensive relative to
// computation, so the value of overlap (k >= 2) is a prediction the paper
// makes about the future that this ablation checks.
func AblationMachine(opt Options, procs int) (string, error) {
	opt.fill(nil)
	nodes, edges := mesh.Paper2K()
	m := mesh.Generate(nodes, edges, opt.Seed)
	eu := kernels.NewEuler(m, opt.Seed)

	var b strings.Builder
	fmt.Fprintf(&b, "ABLATION-MACHINE: euler 2K at P=%d — MANNA (1997) vs a modern node\n", procs)
	fmt.Fprintf(&b, "%8s %10s %14s %14s %15s\n", "machine", "k", "sec/step", "speedup", "k-gain vs k=1")
	for _, mc := range []struct {
		name string
		cm   machine.CostModel
		net  machine.Network
	}{
		{"MANNA", machine.MANNA(), machine.MANNANet()},
		{"modern", machine.Modern(), machine.ModernNet()},
	} {
		l1 := eu.Loop(1, 1, inspector.Block)
		seq := rts.SequentialCost(mc.cm, l1)
		var k1Step sim.Time
		for _, k := range []int{1, 2, 4} {
			l := eu.Loop(procs, k, inspector.Cyclic)
			res, err := rts.RunSim(l, rts.SimOptions{Steps: opt.Steps, Cost: mc.cm, Net: mc.net})
			if err != nil {
				return "", err
			}
			if k == 1 {
				k1Step = res.PerStep
			}
			gain := float64(k1Step)/float64(res.PerStep) - 1
			fmt.Fprintf(&b, "%8s %10d %13.5fs %13.2fx %13.1f%%\n",
				mc.name, k, mc.cm.Seconds(res.PerStep),
				float64(seq)/float64(res.PerStep), 100*gain)
		}
	}
	b.WriteString("k-gain: per-step time of k=1 over this k (positive = overlap pays).\n")
	return b.String(), nil
}

// AblationIncremental measures (in host wall-clock) the full LightInspector
// rebuild against the incremental update for growing churn fractions on the
// euler 10K mesh — the real cost of the paper's future-work feature.
func AblationIncremental(opt Options) (string, error) {
	opt.fill(nil)
	nodes, edges := mesh.Paper10K()
	m := mesh.Generate(nodes, edges, opt.Seed)
	eu := kernels.NewEuler(m, opt.Seed)
	l := eu.Loop(16, 2, inspector.Cyclic)

	var b strings.Builder
	b.WriteString("ABLATION-INCREMENTAL: euler 10K at P=16 — measured host time, schedule maintenance\n")
	fullStart := time.Now()
	scheds, err := l.Schedules()
	if err != nil {
		return "", err
	}
	fullDur := time.Since(fullStart)
	fmt.Fprintf(&b, "full LightInspector (all %d processors): %v\n", l.Cfg.P, fullDur)
	// Build the incremental indexes up front so the rows time only the
	// per-churn work (the index persists across updates in a real run).
	idxStart := time.Now()
	for _, s := range scheds {
		s.BeginIncremental()
	}
	fmt.Fprintf(&b, "one-time incremental index build: %v\n", time.Since(idxStart))
	fmt.Fprintf(&b, "%10s %16s %14s\n", "churn", "incremental", "vs full")

	rng := rand.New(rand.NewSource(opt.Seed + 9))
	for _, frac := range []float64{0.001, 0.01, 0.05, 0.20} {
		nChange := int(frac * float64(l.Cfg.NumIters))
		changed := make([]int32, 0, nChange)
		for j := 0; j < nChange; j++ {
			i := rng.Intn(l.Cfg.NumIters)
			l.Ind[1][i] = int32(rng.Intn(l.Cfg.NumElems))
			changed = append(changed, int32(i))
		}
		start := time.Now()
		for _, s := range scheds {
			if err := s.Update(changed, l.Ind...); err != nil {
				return "", err
			}
		}
		dur := time.Since(start)
		fmt.Fprintf(&b, "%9.1f%% %16v %13.2fx\n", 100*frac, dur, float64(fullDur)/float64(dur+1))
	}
	if err := inspector.CheckSet(l.Cfg, scheds, l.Ind...); err != nil {
		return "", fmt.Errorf("after churn: %w", err)
	}
	b.WriteString("all schedules re-verified after the churn sequence.\n")
	return b.String(), nil
}
