package kernels

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

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

// nativeMatchesSequential runs a named kernel's native engine on its
// smallest dataset against the sequential oracle. Not bitwise: P > 1
// splits each sum (a row's nonzeros, a node's edges) across processors.
// TestDatasetNames pins Names() to the three kernels tested this way.
func nativeMatchesSequential(t *testing.T, name string) {
	t.Helper()
	const steps = 4
	w, err := Open(name, Datasets(name)[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	want := w.Oracle(steps)
	for _, p := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 2, 4} {
			for _, d := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
				n, got, err := w.NewNativeFrom(nil, p, k, d)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Run(steps); err != nil {
					t.Fatal(err)
				}
				if diff := maxRelDiff(got, want); diff > 1e-10 {
					t.Fatalf("%s P=%d k=%d %v: max rel diff %.2e", name, p, k, d, diff)
				}
			}
		}
	}
}

func TestMVMNativeMatchesSequential(t *testing.T)   { nativeMatchesSequential(t, "mvm") }
func TestEulerNativeMatchesSequential(t *testing.T) { nativeMatchesSequential(t, "euler") }

// TestMoldynNativeMatchesSequential also checks velocities, which reach
// the compared positions only scaled by Dt.
func TestMoldynNativeMatchesSequential(t *testing.T) {
	nativeMatchesSequential(t, "moldyn")
	w, err := Open("moldyn", Datasets("moldyn")[0], 1)
	if err != nil {
		t.Fatal(err)
	}
	md := w.(*Moldyn)
	const steps = 4
	_, wantVel := md.RunSequential(steps)
	for _, p := range []int{1, 2, 3, 4} {
		for _, k := range []int{1, 2} {
			for _, d := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
				n, _, vel, err := md.NewNative(p, k, d)
				if err != nil {
					t.Fatal(err)
				}
				if err := n.Run(steps); err != nil {
					t.Fatal(err)
				}
				if diff := maxRelDiff(vel, wantVel); diff > 1e-10 {
					t.Fatalf("moldyn P=%d k=%d %v: vel diff %.2e", p, k, d, diff)
				}
			}
		}
	}
}

func TestEulerLoopShape(t *testing.T) {
	m := mesh.Generate(400, 2400, 1)
	l := NewEuler(m, 2).Loop(4, 2, inspector.Cyclic)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Mode != rts.Reduce || len(l.Ind) != 2 || l.Cost.Comp != 3 {
		t.Fatalf("unexpected euler loop shape: %+v", l.Cost)
	}
	if l.Cost.BcastComp == 0 {
		t.Fatal("euler must refresh replicated state each step")
	}
}

func TestMVMLoopShape(t *testing.T) {
	a := sparse.Generate(sparse.Class{Name: "t", N: 100, NNZ: 600}, 0)
	l := NewMVM(a).Loop(4, 2, inspector.Block)
	if err := l.Validate(); err != nil {
		t.Fatal(err)
	}
	if l.Mode != rts.Gather || len(l.Ind) != 1 {
		t.Fatal("mvm must be a single-reference gather loop")
	}
	// The paper: mvm needs no LightInspector buffering.
	scheds, err := l.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range scheds {
		if s.BufLen != 0 {
			t.Fatalf("mvm schedule allocated %d buffer slots", s.BufLen)
		}
	}
}

func TestKernelSimRuns(t *testing.T) {
	m := mesh.Generate(400, 2400, 1)
	e := NewEuler(m, 2)
	res, err := rts.RunSim(e.Loop(4, 2, inspector.Cyclic), rts.SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("euler sim produced no cycles")
	}

	sys := moldyn.Generate(4, 1, 0.02, 3)
	md := NewMoldyn(sys)
	res, err = rts.RunSim(md.Loop(4, 2, inspector.Cyclic), rts.SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("moldyn sim produced no cycles")
	}

	a := sparse.Generate(sparse.Class{Name: "t", N: 500, NNZ: 4000}, 0)
	mv := NewMVM(a)
	res, err = rts.RunSim(mv.Loop(4, 2, inspector.Block), rts.SimOptions{Steps: 10})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 {
		t.Fatal("mvm sim produced no cycles")
	}
}

func TestLJForceAntisymmetric(t *testing.T) {
	pos := []float64{0.2, 0.2, 0.2, 0.9, 0.4, 0.3}
	var fab, fba [3]float64
	ljForce(pos, 10, 0, 1, fab[:])
	ljForce(pos, 10, 1, 0, fba[:])
	for c := 0; c < 3; c++ {
		if math.Abs(fab[c]+fba[c]) > 1e-12 {
			t.Fatalf("force not antisymmetric: %v vs %v", fab, fba)
		}
	}
}

func TestMomentumConservation(t *testing.T) {
	// Equal-and-opposite force accumulation keeps total momentum constant.
	sys := moldyn.Generate(3, 1, 0.02, 5)
	md := NewMoldyn(sys)
	_, vel := md.RunSequential(5)
	var totBefore, totAfter [3]float64
	for i := 0; i < sys.N; i++ {
		for c := 0; c < 3; c++ {
			totBefore[c] += sys.Vel[3*i+c]
			totAfter[c] += vel[3*i+c]
		}
	}
	for c := 0; c < 3; c++ {
		if math.Abs(totAfter[c]-totBefore[c]) > 1e-8*float64(sys.N) {
			t.Fatalf("momentum drifted: %v -> %v", totBefore, totAfter)
		}
	}
}

func TestFluxDeterministic(t *testing.T) {
	var a, b [3]float64
	qa := []float64{1, 2, 3}
	qb := []float64{0.5, 0.25, 0.125}
	flux(1.5, qa, qb, a[:])
	flux(1.5, qa, qb, b[:])
	for c := 0; c < 3; c++ {
		if a[c] != b[c] {
			t.Fatal("flux not deterministic")
		}
	}
	if a[0] == 0 && a[1] == 0 && a[2] == 0 {
		t.Fatal("flux identically zero")
	}
}

func TestDiagnostics(t *testing.T) {
	vel := []float64{1, 0, 0, 0, 2, 0}
	if ke := KineticEnergy(vel); ke != 2.5 {
		t.Fatalf("KE = %v, want 2.5", ke)
	}
	p := Momentum(vel)
	if p != [3]float64{1, 2, 0} {
		t.Fatalf("momentum = %v", p)
	}
	if n := ResidualNorm([]float64{3, 4}); n != 5 {
		t.Fatalf("norm = %v", n)
	}
}

func TestEnergyConservationShortRun(t *testing.T) {
	// Over a short leapfrog run at tiny dt, total LJ + kinetic energy must
	// be nearly conserved — a strong physical check that the parallel
	// force reduction is complete and correctly signed.
	sys := moldyn.Generate(4, 1, 0.02, 11)
	md := NewMoldyn(sys)
	md.Dt = 5e-5
	e0 := md.LJPotential(sys.Pos) + KineticEnergy(sys.Vel)

	nat, pos, vel, err := md.NewNative(4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if err := nat.Run(20); err != nil {
		t.Fatal(err)
	}
	e1 := md.LJPotential(pos) + KineticEnergy(vel)
	drift := math.Abs(e1-e0) / (math.Abs(e0) + 1)
	if drift > 1e-3 {
		t.Fatalf("energy drifted by %.2e (from %v to %v)", drift, e0, e1)
	}
}

func TestLJPotentialShape(t *testing.T) {
	// With sigma = 1, the FCC nearest-neighbour spacing (1/sqrt 2) is
	// inside the repulsive core, so the lattice potential is positive; a
	// pair at the LJ minimum distance 2^(1/6) has energy exactly -1.
	sys := moldyn.Generate(4, 2, 0, 1)
	md := NewMoldyn(sys)
	if u := md.LJPotential(sys.Pos); u <= 0 {
		t.Fatalf("compressed lattice potential %v, want positive", u)
	}
	pair := &moldyn.System{N: 2, Box: 100, Pos: []float64{0, 0, 0, math.Pow(2, 1.0/6), 0, 0},
		Vel: make([]float64, 6), I1: []int32{0}, I2: []int32{1}, Cutoff: 2}
	mdPair := NewMoldyn(pair)
	if u := mdPair.LJPotential(pair.Pos); math.Abs(u+1) > 1e-12 {
		t.Fatalf("pair potential at the minimum = %v, want -1", u)
	}
	// And the force there is zero.
	var f [3]float64
	ljForce(pair.Pos, pair.Box, 0, 1, f[:])
	if math.Abs(f[0]) > 1e-10 {
		t.Fatalf("force at the LJ minimum = %v, want 0", f[0])
	}
}

// blockEqualsContribs checks a kernel's block form against its
// per-iteration form, bit for bit, over every iteration in blocks of
// uneven length.
func blockEqualsContribs(t *testing.T, n *rts.Native) {
	t.Helper()
	const stride = 6 // two references, three components
	iters := make([]int32, n.Loop.Cfg.NumIters)
	for i := range iters {
		iters[i] = int32(len(iters) - 1 - i) // any order: a phase's list is not ascending after an update
	}
	want := make([]float64, stride)
	got := make([]float64, 256*stride)
	for lo, size := 0, 1; lo < len(iters); lo, size = lo+size, size%220+37 {
		blk := iters[lo:min(lo+size, len(iters))]
		n.ContribBlock(0, blk, got[:len(blk)*stride])
		for j, it := range blk {
			n.Contribs(0, int(it), want)
			for s := range want {
				if math.Float64bits(got[j*stride+s]) != math.Float64bits(want[s]) {
					t.Fatalf("iteration %d slot %d: block %v, per-iteration %v", it, s, got[j*stride+s], want[s])
				}
			}
		}
	}
}

// sameRun checks that the engine gives the same bits driven by the block
// form and by the adapter over Contribs.
func sameRun(t *testing.T, steps int, build func() (*rts.Native, []float64)) {
	t.Helper()
	n1, s1 := build()
	n2, s2 := build()
	n2.ContribBlock = nil
	for _, n := range []*rts.Native{n1, n2} {
		if err := n.Run(steps); err != nil {
			t.Fatal(err)
		}
	}
	for i := range s1 {
		if math.Float64bits(s1[i]) != math.Float64bits(s2[i]) {
			t.Fatalf("state[%d]: block %v, adapter %v", i, s1[i], s2[i])
		}
	}
}

func TestEulerBlockEqualsContribs(t *testing.T) {
	e := NewEuler(mesh.Generate(400, 2400, 1), 2)
	n, _, err := e.NewNative(3, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	blockEqualsContribs(t, n)
	sameRun(t, 4, func() (*rts.Native, []float64) {
		n, q, err := e.NewNative(3, 2, inspector.Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		return n, q
	})
}

func TestMoldynBlockEqualsContribs(t *testing.T) {
	md := NewMoldyn(moldyn.Generate(4, 1, 0.02, 3))
	n, _, _, err := md.NewNative(3, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	blockEqualsContribs(t, n)
	sameRun(t, 4, func() (*rts.Native, []float64) {
		n, pos, _, err := md.NewNative(3, 2, inspector.Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		return n, pos
	})
}

// TestMVMConsumeBlockEqualsConsume: the kernel's gather block — reading A
// in place on the first sweep, packing on the second, streaming the packed
// copy on the third — and the
// engine's adapter over its per-iteration Consume give the same bits, over
// several sweeps with the vector update between them. The 10-row matrix
// has more portions than rows at k*P >= 12, so some phases are empty.
func TestMVMConsumeBlockEqualsConsume(t *testing.T) {
	for _, class := range []sparse.Class{{Name: "t", N: 300, NNZ: 3000}, {Name: "tiny", N: 10, NNZ: 30}} {
		mv := NewMVM(sparse.Generate(class, 2))
		for _, p := range []int{1, 2, 3} {
			for _, k := range []int{1, 2, 4} {
				for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
					run := func(block bool) []float64 {
						n, err := mv.NewNative(p, k, dist)
						if err != nil {
							t.Fatal(err)
						}
						if !block {
							n.ConsumeBlock = nil
						}
						if err := n.Run(3); err != nil {
							t.Fatal(err)
						}
						return n.X
					}
					got, want := run(true), run(false)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s P=%d k=%d %v: x[%d] block %v, per-iteration %v", class.Name, p, k, dist, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// sameBits fails unless got and want hold the same float64 bits.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

// halveInPlace halves a's values where they are and returns the undo.
func halveInPlace(a *sparse.CSR) (restore func()) {
	saved := append([]float64(nil), a.Val...)
	for i := range a.Val {
		a.Val[i] *= 0.5
	}
	return func() { copy(a.Val, saved) }
}

// TestMVMPacksFromTheSecondSweep: the block loop reads A in place during a
// processor's first sweep, packs during its second and streams the copy
// after that. Halving A's values in place after s sweeps, a change the
// copy does not see, tells the paths apart: after one sweep the next two
// read the halved values, as the per-iteration Consume does; after two
// they stream the copy and continue the unchanged matrix's iteration.
func TestMVMPacksFromTheSecondSweep(t *testing.T) {
	a := sparse.Generate(sparse.Class{Name: "t", N: 300, NNZ: 3000}, 5)
	mv := NewMVM(a)
	// run makes s sweeps, then two more with A halved when halve is set.
	run := func(s int, block, halve bool) []float64 {
		n, err := mv.NewNative(2, 2, inspector.Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		if !block {
			n.ConsumeBlock = nil
		}
		if err := n.Run(s); err != nil {
			t.Fatal(err)
		}
		if halve {
			defer halveInPlace(a)()
		}
		if err := n.Run(2); err != nil {
			t.Fatal(err)
		}
		return n.X
	}
	sameBits(t, "halved after one sweep", run(1, true, true), run(1, false, true))
	sameBits(t, "halved after two sweeps", run(2, true, true), run(2, false, false))
}

// TestMVMReplacedOperandsDropTheCopy: a Scheds entry or A.Val replaced
// between Runs drops the processor's copy, and the next sweep packs anew,
// so the block loop keeps the per-iteration Consume's bits: for a new
// value array, and for schedules that list each phase's iterations in
// reverse.
func TestMVMReplacedOperandsDropTheCopy(t *testing.T) {
	mv := NewMVM(sparse.Generate(sparse.Class{Name: "t", N: 300, NNZ: 3000}, 9))
	orig := mv.A.Val
	replace := map[string]func(n *rts.Native){
		"values": func(*rts.Native) {
			mv.A.Val = make([]float64, len(orig))
			for i, v := range orig {
				mv.A.Val[i] = 0.5 * v
			}
		},
		"schedules": func(n *rts.Native) {
			n.Scheds = inspector.CloneSchedules(n.Scheds)
			for _, s := range n.Scheds {
				for ph := range s.Phases {
					prog := &s.Phases[ph]
					slices.Reverse(prog.Iters)
					slices.Reverse(prog.Ind[0])
				}
			}
		},
	}
	for name, swap := range replace {
		run := func(block bool) []float64 {
			defer func() { mv.A.Val = orig }()
			n, err := mv.NewNative(2, 2, inspector.Cyclic)
			if err != nil {
				t.Fatal(err)
			}
			if !block {
				n.ConsumeBlock = nil
			}
			if err := n.Run(3); err != nil {
				t.Fatal(err)
			}
			swap(n)
			if err := n.Run(3); err != nil {
				t.Fatal(err)
			}
			return n.X
		}
		sameBits(t, name, run(true), run(false))
	}
}

// withBadTarget is a copy of scheds in which processor 1's phase 2 reads
// element to in the middle of its iteration list: the set a Native is
// handed to replace a clean one.
func withBadTarget(scheds []*inspector.Schedule, to int32) []*inspector.Schedule {
	bad := inspector.CloneSchedules(scheds)
	prog := &bad[1].Phases[2]
	prog.Ind[0][len(prog.Iters)/2] = to
	return bad
}

// TestMVMRefusedSetKeepsTheCopy: a bad set that replaces the clean one
// after its Runs packed a copy is refused before any block runs, so the
// copy survives it: with the clean set put back, the block loop streams
// the copy — halving A's values in place does not reach it — and gives
// the bits of the per-iteration Consume over the unchanged matrix.
func TestMVMRefusedSetKeepsTheCopy(t *testing.T) {
	mv := NewMVM(sparse.Generate(sparse.Class{Name: "t", N: 300, NNZ: 3000}, 7))
	const p, k = 2, 2
	scheds, err := mv.Loop(p, k, inspector.Cyclic).Schedules()
	if err != nil {
		t.Fatal(err)
	}
	bad := withBadTarget(scheds, int32(mv.A.N+3))
	run := func(block bool) []float64 {
		n, _, err := mv.NewNativeFrom(scheds, p, k, inspector.Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		if !block {
			n.ConsumeBlock = nil
		}
		if err := n.Run(2); err != nil {
			t.Fatal(err)
		}
		n.Scheds = bad
		if err := n.Run(2); err == nil || !strings.Contains(err.Error(), "target check") {
			t.Fatalf("bad set: %v, want a target check error", err)
		}
		n.Scheds = scheds
		if block {
			defer halveInPlace(mv.A)()
		}
		if err := n.Run(2); err != nil {
			t.Fatal(err)
		}
		return n.X
	}
	sameBits(t, "halved after the refused set", run(true), run(false))
}

// TestNativeChecksTheSchedulesItRuns: whatever the loop, a Native checks
// the schedule set it runs, and a set that replaces a clean one between
// Runs is checked again. One target outside the local image must come
// back from Run as a target check error, not as an index panic on a
// worker — for the euler kernel (reduce, three components), the mvm
// kernel (gather) and a raw two-reference loop.
func TestNativeChecksTheSchedulesItRuns(t *testing.T) {
	nodes, edges := mesh.Paper2K()
	eu := NewEuler(mesh.Generate(nodes, edges, 1), 1)
	mv := NewMVM(sparse.Generate(sparse.Class{Name: "t", N: 300, NNZ: 3000}, 5))
	rawInd := [][]int32{make([]int32, 2000), make([]int32, 2000)}
	for i := range rawInd[0] {
		rawInd[0][i], rawInd[1][i] = int32(i*7%500), int32(i*13%500)
	}
	rows := map[string]func() (*rts.Native, error){
		"euler": func() (*rts.Native, error) {
			n, _, err := eu.NewNative(2, 2, inspector.Cyclic)
			return n, err
		},
		"mvm": func() (*rts.Native, error) { return mv.NewNative(2, 2, inspector.Cyclic) },
		"raw-pair": func() (*rts.Native, error) {
			n, err := rts.NewNative(&rts.Loop{
				Cfg:  inspector.Config{P: 2, K: 2, NumIters: 2000, NumElems: 500, Dist: inspector.Cyclic},
				Mode: rts.Reduce,
				Ind:  rawInd,
			})
			if err != nil {
				return nil, err
			}
			n.Contribs = func(_, i int, out []float64) { out[0], out[1] = float64(i), -float64(i) }
			return n, nil
		},
	}
	for name, build := range rows {
		t.Run(name, func(t *testing.T) {
			n, err := build()
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Run(1); err != nil {
				t.Fatalf("clean Run: %v", err)
			}
			bad := inspector.CloneSchedules(n.Scheds)
			prog := &bad[1].Phases[2]
			prog.Ind[0][len(prog.Iters)/2] = int32(bad[1].LocalLen())
			n.Scheds = bad
			if err := n.Run(1); err == nil || !strings.Contains(err.Error(), "target check") {
				t.Fatalf("Run over a replaced set with a bad target: %v, want a target check error", err)
			}
		})
	}
}

// BenchmarkMVMShortRuns times a fresh Native's first Run of 1 to 4 sweeps
// on NAS CG class A at P = 2, k = 2, cyclic: what a one-job Native pays
// (service jobs default to one step, sweep cells to three). Building the
// Native is not timed; B/op includes the packed copies.
func BenchmarkMVMShortRuns(b *testing.B) {
	mv := NewMVM(sparse.Generate(sparse.ClassA, 1))
	for _, steps := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n, err := mv.NewNative(2, 2, inspector.Cyclic)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := n.Run(steps); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMVMNewNative times what the repo benchmark's native.coarse
// counts as set-up: NewMVM and NewNative on NAS CG class A at P = 2, k = 2,
// cyclic — the LightInspector for both processors. The packed copies are
// made later, in each processor's second sweep.
func BenchmarkMVMNewNative(b *testing.B) {
	a := sparse.Generate(sparse.ClassA, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewMVM(a).NewNative(2, 2, inspector.Cyclic); err != nil {
			b.Fatal(err)
		}
	}
}
