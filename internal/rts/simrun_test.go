package rts

import (
	"math/rand"
	"testing"

	"irred/internal/earth"
	"irred/internal/inspector"
	"irred/internal/machine"
	"irred/internal/sim"
)

// eulerLikeLoop builds a mesh-flavoured loop: iterations reference pairs of
// nearby elements (spatial locality), the shape the paper's kernels have.
func eulerLikeLoop(rng *rand.Rand, p, k, edges, nodes int, dist inspector.Dist) *Loop {
	i1 := make([]int32, edges)
	i2 := make([]int32, edges)
	for i := range i1 {
		a := rng.Intn(nodes)
		b := a + 1 + rng.Intn(8)
		if b >= nodes {
			b = a - 1 - rng.Intn(8)
			if b < 0 {
				b = 0
			}
		}
		i1[i], i2[i] = int32(a), int32(b)
	}
	return &Loop{
		Cfg:  inspector.Config{P: p, K: k, NumIters: edges, NumElems: nodes, Dist: dist},
		Mode: Reduce,
		Ind:  [][]int32{i1, i2},
		Cost: KernelCost{
			Flops: 30, IntOps: 6, IterArrays: 2, NodeArrays: 2,
			UpdateFlopsPerElem: 4, UpdateArraysPerElem: 2, BcastComp: 2,
		},
	}
}

func TestRunSimCompletes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, p := range []int{1, 2, 4, 8} {
		for _, k := range []int{1, 2, 4} {
			l := eulerLikeLoop(rng, p, k, 2000, 500, inspector.Cyclic)
			res, err := RunSim(l, SimOptions{Steps: 10})
			if err != nil {
				t.Fatalf("P=%d k=%d: %v", p, k, err)
			}
			if res.Cycles <= 0 || res.PerStep <= 0 {
				t.Fatalf("P=%d k=%d: nonpositive cycles %d/%d", p, k, res.Cycles, res.PerStep)
			}
			if res.Seconds <= 0 {
				t.Fatalf("seconds = %v", res.Seconds)
			}
		}
	}
}

func TestRunSimDeterministic(t *testing.T) {
	mk := func() *Loop { return eulerLikeLoop(rand.New(rand.NewSource(6)), 4, 2, 3000, 600, inspector.Block) }
	r1, err := RunSim(mk(), SimOptions{Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSim(mk(), SimOptions{Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.MsgsPerStep != r2.MsgsPerStep {
		t.Fatalf("nondeterministic simulation: %v vs %v", r1.Cycles, r2.Cycles)
	}
}

func TestRunSimParallelBeatsSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	l1 := eulerLikeLoop(rng, 1, 2, 20000, 4000, inspector.Cyclic)
	seq, _ := RunSequentialSim(l1, SimOptions{Steps: 10})
	l8 := &Loop{Cfg: l1.Cfg, Mode: l1.Mode, Ind: l1.Ind, Cost: l1.Cost}
	l8.Cfg.P = 8
	res, err := RunSim(l8, SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(seq) / float64(res.Cycles)
	if speedup < 2 {
		t.Fatalf("8-processor speedup = %.2f, expected at least 2", speedup)
	}
	// Mildly superlinear speedups are expected (and reported in the paper):
	// eight 16 KB caches hold what one cannot. Guard only against absurdity.
	if speedup > 16 {
		t.Fatalf("8-processor speedup = %.2f is implausible", speedup)
	}
}

// TestRunSimChargesTheInspectorOnce: the LightInspector's cost is in the
// total once, whatever the run length, so ten more steps cost ten more
// steady-state steps and nothing else.
func TestRunSimChargesTheInspectorOnce(t *testing.T) {
	l := eulerLikeLoop(rand.New(rand.NewSource(3)), 4, 2, 5000, 800, inspector.Cyclic)
	short, err := RunSim(l, SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunSim(l, SimOptions{Steps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if short.InspectorCycles <= 0 || short.InspectorCycles != long.InspectorCycles {
		t.Fatalf("inspector cycles %d at 10 steps, %d at 20", short.InspectorCycles, long.InspectorCycles)
	}
	if short.Cycles <= short.InspectorCycles {
		t.Fatalf("total %d cycles is not above the inspector's %d", short.Cycles, short.InspectorCycles)
	}
	if d := long.Cycles - short.Cycles; d != 10*short.PerStep {
		t.Fatalf("ten more steps cost %d cycles, want 10 x %d", d, short.PerStep)
	}
}

// The paper's central claim: message count and volume depend only on the
// machine shape, never on the indirection contents.
func TestCommunicationContentIndependent(t *testing.T) {
	mk := func(seed int64) *Loop {
		return eulerLikeLoop(rand.New(rand.NewSource(seed)), 4, 2, 2000, 512, inspector.Block)
	}
	a, err := RunSim(mk(1), SimOptions{Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSim(mk(999), SimOptions{Steps: 8})
	if err != nil {
		t.Fatal(err)
	}
	if a.MsgsPerStep != b.MsgsPerStep || a.BytesPerStep != b.BytesPerStep {
		t.Fatalf("communication varies with indirection contents: %v/%v vs %v/%v",
			a.MsgsPerStep, a.BytesPerStep, b.MsgsPerStep, b.BytesPerStep)
	}
}

// k=2 must beat k=1 when transfers are substantial: k=1 has no slack to
// overlap the portion rotation with computation.
func TestOverlapK2BeatsK1(t *testing.T) {
	mk := func(k int) *Loop {
		rng := rand.New(rand.NewSource(12))
		// Big portions (many elements) relative to per-phase compute make
		// the rotation expensive enough to need hiding.
		return eulerLikeLoop(rng, 8, k, 6000, 8000, inspector.Cyclic)
	}
	r1, err := RunSim(mk(1), SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSim(mk(2), SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if r2.PerStep >= r1.PerStep {
		t.Fatalf("k=2 (%d cycles/step) not faster than k=1 (%d cycles/step)", r2.PerStep, r1.PerStep)
	}
}

func TestSequentialCostScalesWithWork(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	small := eulerLikeLoop(rng, 1, 1, 1000, 300, inspector.Block)
	large := eulerLikeLoop(rng, 1, 1, 4000, 300, inspector.Block)
	cm := machine.MANNA()
	cs, cl := SequentialCost(cm, small), SequentialCost(cm, large)
	if cl < 3*cs || cl > 5*cs {
		t.Fatalf("4x iterations changed cost %d -> %d (want ~4x)", cs, cl)
	}
}

func TestInspectorCostProportional(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cm := machine.MANNA()
	l := eulerLikeLoop(rng, 2, 2, 4000, 500, inspector.Block)
	scheds, err := l.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	c := InspectorCost(cm, l, scheds[0])
	if c <= 0 {
		t.Fatal("inspector cost not positive")
	}
	// The inspector is a few linear passes: it must be far cheaper than
	// even one timestep of the loop body (the paper runs it once per 100
	// timesteps).
	if seq := SequentialCost(cm, l); c > seq {
		t.Fatalf("inspector (%d) costs more than a whole sequential step (%d)", c, seq)
	}
}

func TestPhaseCostsCoverAllPhases(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := eulerLikeLoop(rng, 4, 2, 2000, 400, inspector.Cyclic)
	scheds, err := l.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	cm := machine.MANNA()
	phases, upd := PhaseCosts(cm, l, scheds[0])
	if len(phases) != l.Cfg.NumPhases() {
		t.Fatalf("got %d phase costs", len(phases))
	}
	var nonzero int
	for _, c := range phases {
		if c > 0 {
			nonzero++
		}
	}
	if nonzero == 0 {
		t.Fatal("all phases cost zero")
	}
	if upd <= 0 {
		t.Fatal("update loop cost zero despite update work declared")
	}
}

func TestRunSimSingleStep(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	l := eulerLikeLoop(rng, 2, 2, 500, 128, inspector.Block)
	res, err := RunSim(l, SimOptions{Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("single-step run produced no time")
	}
}

func TestGatherSimRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const n, nnz = 1000, 8000
	col := make([]int32, nnz)
	row := make([]int32, nnz)
	for i := range col {
		col[i] = int32(rng.Intn(n))
		row[i] = int32(i * n / nnz)
	}
	l := &Loop{
		Cfg:       inspector.Config{P: 4, K: 2, NumIters: nnz, NumElems: n, Dist: inspector.Block},
		Mode:      Gather,
		Ind:       [][]int32{col},
		Cost:      KernelCost{Flops: 2, IterArrays: 2, UpdateFlopsPerElem: 2, UpdateArraysPerElem: 1},
		GatherOut: row,
	}
	res, err := RunSim(l, SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("gather sim produced no time")
	}
}

func TestRunSimTraceRecordsOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	l := eulerLikeLoop(rng, 4, 2, 2000, 400, inspector.Cyclic)
	tr := &earth.Trace{}
	res, err := RunSim(l, SimOptions{Steps: 4, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	// Every phase and update fiber of the simulated window is recorded:
	// tsim * (kP + 1) * P fibers.
	if len(tr.Fibers) == 0 || len(tr.Msgs) == 0 {
		t.Fatal("trace empty")
	}
	wantFibers := 4 * (l.Cfg.NumPhases() + 1) * l.Cfg.P
	if len(tr.Fibers) != wantFibers {
		t.Fatalf("traced %d fibers, want %d", len(tr.Fibers), wantFibers)
	}
	// Labels follow the documented scheme.
	seenPh, seenUpd := false, false
	for _, f := range tr.Fibers {
		if f.Label == "t0/ph0" {
			seenPh = true
		}
		if f.Label == "t0/upd" {
			seenUpd = true
		}
	}
	if !seenPh || !seenUpd {
		t.Fatal("trace labels missing")
	}
	// The Gantt must render one row per node.
	var end sim.Time
	for _, f := range tr.Fibers {
		if f.End > end {
			end = f.End
		}
	}
	g := tr.Gantt(l.Cfg.P, end, 60)
	if len(g) == 0 || res.Cycles <= 0 {
		t.Fatal("gantt or result empty")
	}
}

// TestSimExecMatchesSequential validates the simulated fiber graph's
// dataflow by computing through it: the DES-ordered phase executions must
// produce exactly the sequential reduction, over multiple timesteps with
// an update hook.
func TestSimExecMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, p := range []int{1, 2, 4, 5} {
		for _, k := range []int{1, 2, 3} {
			l := eulerLikeLoop(rng, p, k, 800, 200, inspector.Cyclic)
			contrib := func(i, r int) float64 { return float64(i+1) * float64(r+1) }
			ex := &SimExec{
				Contribs: func(_, i int, out []float64) {
					out[0], out[1] = contrib(i, 0), contrib(i, 1)
				},
			}
			const steps = 3
			ex.Update = func(proc, step int) {
				lo, _ := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, 0))
				_, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, l.Cfg.K-1))
				for e := lo; e < hi; e++ {
					ex.X[e] *= 0.5
				}
			}
			if _, err := RunSim(l, SimOptions{Steps: steps, WarmSteps: 1, MeasureSteps: 2, Exec: ex}); err != nil {
				t.Fatal(err)
			}
			// Sequential replay.
			want := make([]float64, l.Cfg.NumElems)
			for s := 0; s < steps; s++ {
				for i := 0; i < l.Cfg.NumIters; i++ {
					want[l.Ind[0][i]] += contrib(i, 0)
					want[l.Ind[1][i]] += contrib(i, 1)
				}
				for e := range want {
					want[e] *= 0.5
				}
			}
			for e := range want {
				d := ex.X[e] - want[e]
				if d < -1e-9 || d > 1e-9 {
					t.Fatalf("P=%d k=%d: sim-exec diverged at element %d: %v vs %v", p, k, e, ex.X[e], want[e])
				}
			}
		}
	}
}

func TestSimExecGather(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const n, nnz = 60, 400
	col := make([]int32, nnz)
	row := make([]int32, nnz)
	vals := make([]float64, nnz)
	for i := range col {
		col[i] = int32(rng.Intn(n))
		row[i] = int32(rng.Intn(n))
		vals[i] = rng.Float64()
	}
	l := &Loop{
		Cfg:       inspector.Config{P: 3, K: 2, NumIters: nnz, NumElems: n, Dist: inspector.Block},
		Mode:      Gather,
		Ind:       [][]int32{col},
		Cost:      KernelCost{Flops: 2, IterArrays: 2},
		GatherOut: row,
	}
	y := make([]float64, n)
	ex := &SimExec{
		X: make([]float64, n),
		Consume: func(_, i int, v []float64) {
			y[row[i]] += vals[i] * v[0]
		},
	}
	for i := range ex.X {
		ex.X[i] = float64(i%5) + 1
	}
	x0 := append([]float64(nil), ex.X...)
	if _, err := RunSim(l, SimOptions{Steps: 1, Exec: ex}); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, n)
	for i := 0; i < nnz; i++ {
		want[row[i]] += vals[i] * x0[col[i]]
	}
	for e := range want {
		d := y[e] - want[e]
		if d < -1e-9 || d > 1e-9 {
			t.Fatalf("gather sim-exec diverged at %d", e)
		}
	}
}

func TestSUUtilizationReported(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	l := eulerLikeLoop(rng, 4, 2, 2000, 400, inspector.Cyclic)
	res, err := RunSim(l, SimOptions{Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.SUUtilization <= 0 || res.SUUtilization > 1 {
		t.Fatalf("SU utilization = %v", res.SUUtilization)
	}
	// In the manna-dual design, the SU handles sync ops and message
	// delivery — on these workloads it must be far less loaded than the EU.
	if res.SUUtilization >= res.EUUtilization {
		t.Fatalf("SU (%v) busier than EU (%v)", res.SUUtilization, res.EUUtilization)
	}
}

// TestSimVerifyClean: executing under SimExec reproduces the sequential
// reduction, sweep for sweep.
func TestSimVerifyClean(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := randLoop(rng, 4, 2, 200, 64, 2, inspector.Cyclic, 1)
	contrib := func(i, r, c int) float64 { return float64(i+1) + float64(r) }
	ex := &SimExec{
		Contribs: func(_, i int, out []float64) {
			for r := range out {
				out[r] = contrib(i, r, 0)
			}
		},
	}
	res, err := RunSim(l, SimOptions{Steps: 2, WarmSteps: 1, MeasureSteps: 1, Exec: ex})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("no cycles simulated")
	}
	want := seqReduce(l, contrib)
	for i := range want {
		want[i] *= 2
	}
	if !near(ex.X, want, 1e-9) {
		t.Fatal("simulated execution diverged from sequential")
	}
}
