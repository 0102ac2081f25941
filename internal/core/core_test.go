package core

import (
	"context"
	"math"
	"math/rand"
	"testing"
)

func randReduction(rng *rand.Rand, iters, elems int) *Reduction {
	i1 := make([]int32, iters)
	i2 := make([]int32, iters)
	for i := range i1 {
		i1[i] = int32(rng.Intn(elems))
		i2[i] = int32(rng.Intn(elems))
	}
	return NewReduction(iters, elems, i1, i2)
}

func TestStrategyNames(t *testing.T) {
	cases := map[string]Strategy{
		"1c@8":  Strategy1C(8),
		"2c@32": Strategy2C(32),
		"4c@4":  Strategy4C(4),
		"2b@16": Strategy2B(16),
	}
	for want, s := range cases {
		if s.String() != want {
			t.Fatalf("%v renders %q, want %q", s, s.String(), want)
		}
	}
}

func TestRunNativeMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	r := randReduction(rng, 400, 67)
	contribs := func(_, i int, out []float64) {
		out[0] = float64(i) + 1
		out[1] = 0.5 * float64(i)
	}
	x, err := r.RunNative(Strategy2C(4), contribs, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, r.NumElems)
	for i := 0; i < r.NumIters; i++ {
		want[r.Ind[0][i]] += float64(i) + 1
		want[r.Ind[1][i]] += 0.5 * float64(i)
	}
	for e := range want {
		if math.Abs(x[e]-want[e]) > 1e-9 {
			t.Fatalf("x[%d] = %v, want %v", e, x[e], want[e])
		}
	}
}

// TestRunNativeBlockMatchesContribs: the block form gives the bits the
// per-iteration form gives.
func TestRunNativeBlockMatchesContribs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randReduction(rng, 1000, 67)
	contribs := func(_, i int, out []float64) {
		out[0] = float64(i)*0.3 + 1
		out[1] = -0.7 * float64(i)
	}
	block := func(p int, iters []int32, out []float64) {
		for j, it := range iters {
			contribs(p, int(it), out[2*j:2*j+2])
		}
	}
	want, err := r.RunNative(Strategy2C(4), contribs, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.RunNativeBlock(context.Background(), Strategy2C(4), block, nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("x[%d]: block %v, per-iteration %v", e, got[e], want[e])
		}
	}
}

func TestSchedulesCoverIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	r := randReduction(rng, 300, 50)
	s := Strategy2B(4)
	scheds, err := r.Schedules(s)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, sch := range scheds {
		if err := sch.Check(r.Ind...); err != nil {
			t.Fatal(err)
		}
		total += sch.NumIters()
	}
	if total != r.NumIters {
		t.Fatalf("schedules cover %d iterations, want %d", total, r.NumIters)
	}
}

func TestSimulateReportsSpeedup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	r := randReduction(rng, 5000, 800)
	rep, err := r.Simulate(Strategy2C(8), 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Speedup <= 1 {
		t.Fatalf("8-processor speedup = %v", rep.Speedup)
	}
	if rep.Cycles <= 0 || rep.SeqCycles <= rep.Cycles {
		t.Fatalf("cycles: par %d seq %d", rep.Cycles, rep.SeqCycles)
	}
	if rep.InspectorCycles <= 0 {
		t.Fatal("inspector cost missing")
	}
}

func TestSimulateCommunicationIndependence(t *testing.T) {
	// The core property: traffic identical across different indirections.
	a, err := randReduction(rand.New(rand.NewSource(4)), 2000, 256).Simulate(Strategy2C(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := randReduction(rand.New(rand.NewSource(99)), 2000, 256).Simulate(Strategy2C(4), 5)
	if err != nil {
		t.Fatal(err)
	}
	if a.MsgsPerStep != b.MsgsPerStep || a.BytesPerStep != b.BytesPerStep {
		t.Fatal("communication depends on indirection contents")
	}
}

func TestCompileIRLRoundTrip(t *testing.T) {
	u, err := CompileIRL(`
param n, m
array ia[n] int
array x[m]
loop i = 0, n { x[ia[i]] += 1 }
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 {
		t.Fatalf("plans = %d", len(u.Plans))
	}
}

func TestMultiComponentNative(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	r := randReduction(rng, 200, 40)
	r.Comp = 3
	contribs := func(_, i int, out []float64) {
		for j := range out {
			out[j] = float64(i + j)
		}
	}
	x, err := r.RunNative(Strategy1C(3), contribs, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != r.NumElems*3 {
		t.Fatalf("x len = %d", len(x))
	}
}

func TestUpdateSchedulesAdaptive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	r := randReduction(rng, 250, 48)
	s := Strategy2C(3)
	scheds, err := r.Schedules(s)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate a handful of entries and update in place.
	changed := []int32{3, 57, 101, 200}
	for _, i := range changed {
		r.Ind[0][i] = (r.Ind[0][i] + 7) % 48
		r.Ind[1][i] = (r.Ind[1][i] + 11) % 48
	}
	if err := r.UpdateSchedules(scheds, changed); err != nil {
		t.Fatal(err)
	}
	for p, sch := range scheds {
		if err := sch.Check(r.Ind...); err != nil {
			t.Fatalf("proc %d after update: %v", p, err)
		}
	}
}
