package service

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/fault"
)

// multiLoopSpec builds a CG-style two-loop program: both loops traverse
// the base indirection (loop 1 inherits everything, loop 2 swaps in a
// "ones" contribution), so one inspection must serve both. Contributions
// are integral, so the parallel result is bitwise-comparable.
func multiLoopSpec(seed int64, p, k, iters, elems, steps int) JobSpec {
	spec := rawSpec(seed, p, k, iters, elems, steps)
	spec.Loops = []LoopSpec{{}, {Contrib: &ContribSpec{Kind: "ones"}}}
	return spec
}

// TestMultiLoopJobMatchesOracle is the executor contract: a multi-loop
// job's loops chain through one shared reduction array in loop order, and
// the result is bitwise-equal to the sequential multi-loop oracle.
func TestMultiLoopJobMatchesOracle(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	spec := multiLoopSpec(11, 4, 2, 2000, 193, 3)
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	if len(st.Result) != len(want) {
		t.Fatalf("result has %d elements, want %d", len(st.Result), len(want))
	}
	for e := range want {
		if st.Result[e] != want[e] {
			t.Fatalf("result[%d] = %g, want %g", e, st.Result[e], want[e])
		}
	}
	if st.ResultSHA256 != HashResult(want) {
		t.Fatal("result hash does not match the oracle")
	}
	// The amortization claim itself: two loops over the same indirection
	// contents pay exactly one inspection (one cache miss, zero hits —
	// the second loop is served from the job-local slot map without even
	// touching the cache).
	if cs := s.Cache().Stats(); cs.Misses != 1 {
		t.Fatalf("two identical-traversal loops paid %d inspections, want 1 (stats %+v)", cs.Misses, cs)
	}
}

// TestMultiLoopJobDistinctTraversals: a loop with its own indirection
// contents pays its own inspection — content-addressing, not loop
// counting, decides what is shared.
func TestMultiLoopJobDistinctTraversals(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(12, 2, 2, 1500, 128, 2)
	other := rawSpec(13, 2, 2, 1500, 128, 2) // different seed, different contents
	spec.Loops = []LoopSpec{
		{},
		{Ind: other.Ind, Contrib: other.Contrib},
		{}, // traverses the base arrays again: must reuse loop 0's schedules
	}
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	for e := range want {
		if st.Result[e] != want[e] {
			t.Fatalf("result[%d] = %g, want %g", e, st.Result[e], want[e])
		}
	}
	if cs := s.Cache().Stats(); cs.Misses != 2 {
		t.Fatalf("three loops over two distinct traversals paid %d inspections, want 2 (stats %+v)", cs.Misses, cs)
	}
}

// TestMultiLoopValidation pins the multi-loop admission rules.
func TestMultiLoopValidation(t *testing.T) {
	base := func() JobSpec { return multiLoopSpec(5, 2, 1, 100, 32, 1) }
	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantSub string
	}{
		{"distributed engine", func(sp *JobSpec) { sp.Engine = "distributed" }, "was removed"},
		{"checkpointing", func(sp *JobSpec) { sp.CheckpointEvery = 2 }, "do not checkpoint"},
		{"too many loops", func(sp *JobSpec) { sp.Loops = make([]LoopSpec, 9) }, "max 8"},
		{"pair contrib arity", func(sp *JobSpec) {
			sp.Loops[1] = LoopSpec{
				Ind:     sp.Ind[:1],
				Contrib: &ContribSpec{Kind: "pair", Weights: make([]float64, sp.NumIters)},
			}
		}, `loop 1: contrib "pair" needs exactly 2`},
		{"short per-loop ind", func(sp *JobSpec) {
			sp.Loops[0] = LoopSpec{Ind: [][]int32{{0, 1}}}
		}, "loop 0: ind[0] has 2 entries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sp := base()
			tc.mutate(&sp)
			err := sp.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.wantSub)
			}
		})
	}
	sp := base()
	if err := sp.Validate(); err != nil {
		t.Fatalf("well-formed multi-loop spec rejected: %v", err)
	}
}

// TestMultiLoopSession: a multi-loop session runs every loop of a sweep
// against the one session-resident schedule clone, both at open and after
// a delta — schedule maintenance is paid once per delta, not once per
// loop, and the results stay bitwise-equal to the multi-loop oracle.
func TestMultiLoopSession(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	rng := rand.New(rand.NewSource(21))
	spec := multiLoopSpec(21, 2, 2, 600, 97, 2)

	mirror := spec
	mirror.Ind = make([][]int32, len(spec.Ind))
	for r := range spec.Ind {
		mirror.Ind[r] = append([]int32(nil), spec.Ind[r]...)
	}

	st, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	check := func(st *SessionStatus) {
		t.Helper()
		want, err := mirror.SequentialRaw()
		if err != nil {
			t.Fatal(err)
		}
		for e := range want {
			if st.Result[e] != want[e] {
				t.Fatalf("result[%d] = %g, want %g", e, st.Result[e], want[e])
			}
		}
	}
	check(st)

	d := mkDelta(rng, &mirror, 9)
	applyLocal(&mirror, d)
	st, err = s.ApplyDelta(context.Background(), st.ID, d, true)
	if err != nil {
		t.Fatal(err)
	}
	if !st.LastIncremental || st.Incremental != 1 {
		t.Fatalf("sparse delta on a multi-loop session took the full path: %+v", st)
	}
	check(st)
}

// TestMultiLoopSessionRejectsPrivateInd: session loops inherit the
// resident arrays; a loop with private indirection is a job shape.
func TestMultiLoopSessionRejectsPrivateInd(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := multiLoopSpec(23, 2, 1, 200, 64, 1)
	spec.Loops[1].Ind = spec.Ind
	_, err := s.OpenSession(context.Background(), spec)
	if err == nil || !strings.Contains(err.Error(), "inherit the resident arrays") {
		t.Fatalf("OpenSession = %v, want per-loop ind rejection", err)
	}
}

// TestMultiLoopChaosRejected: the multi-loop path has no chaos support,
// and the validation error must say so rather than silently ignoring the
// spec.
func TestMultiLoopChaosRejected(t *testing.T) {
	sp := multiLoopSpec(7, 2, 1, 100, 32, 1)
	sp.Chaos = &fault.Spec{Seed: 1, DiskRate: 0.1}
	err := sp.Validate()
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("Validate() = %v, want chaos rejection", err)
	}
}
