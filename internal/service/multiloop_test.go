package service

import (
	"context"
	"fmt"
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

// TestMultiLoopJobMatchesOracle is the executor contract, over the
// processor counts, contribution kinds and loop shapes one executor serves:
// the loops of a sweep chain through one shared reduction array in loop
// order, the result is bitwise equal to the sequential oracle (weights are
// integral), and inspection is paid once per distinct traversal. The rows
// whose loops all share the base arrays are session-valid, and also run as
// a session: open, one incremental delta and one that falls back to full
// re-inspection, each checked against the oracle of a local mirror.
func TestMultiLoopJobMatchesOracle(t *testing.T) {
	own := rawSpec(13, 1, 1, 600, 97, 1).Ind // a second traversal
	shapes := []struct {
		name     string
		loops    []LoopSpec
		distinct int64
	}{
		{"single", nil, 1},
		{"shared-ind", []LoopSpec{{}, {}}, 1},
		// The third loop traverses the base arrays again: it must reuse
		// loop 0's schedules from the job-local slot map.
		{"own-ind", []LoopSpec{{}, {Ind: own}, {}}, 2},
	}
	for _, p := range []int{1, 3} {
		for _, kind := range []string{"ones", "weights", "pair"} {
			for _, shape := range shapes {
				t.Run(fmt.Sprintf("p%d/%s/%s", p, kind, shape.name), func(t *testing.T) {
					spec := rawSpec(11, p, 2, 600, 97, 3)
					spec.Contrib.Kind = kind
					if kind == "ones" {
						spec.Contrib.Weights = nil
					}
					spec.Loops = shape.loops
					s := newTestService(t, Options{Workers: 2})
					j, err := s.Submit(spec)
					if err != nil {
						t.Fatal(err)
					}
					st := waitJob(t, j)
					if st.State != StateDone {
						t.Fatalf("job %s: %s", st.State, st.Error)
					}
					matchesOracle(t, &spec, st.Result)
					// A repeated traversal is served from the job-local slot
					// map without touching the cache: no hits.
					if cs := s.Cache().Stats(); cs.Misses != shape.distinct || cs.Hits != 0 {
						t.Fatalf("%d distinct traversals paid %d inspections and %d cache hits (stats %+v)", shape.distinct, cs.Misses, cs.Hits, cs)
					}
					if shape.name != "own-ind" {
						sessionMatchesOracle(t, s, spec)
					}
				})
			}
		}
	}
}

// matchesOracle fails unless got is bitwise equal to spec's sequential
// oracle.
func matchesOracle(t *testing.T, spec *JobSpec, got []float64) {
	t.Helper()
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result has %d elements, want %d", len(got), len(want))
	}
	for e := range want {
		if got[e] != want[e] {
			t.Fatalf("result[%d] = %g, want %g", e, got[e], want[e])
		}
	}
}

// sessionMatchesOracle opens spec as a session and applies a sparse delta
// (the incremental path) and a dense one (the full re-inspection path),
// checking every result against the oracle of a local mirror.
func sessionMatchesOracle(t *testing.T, s *Service, spec JobSpec) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	mirror := spec
	mirror.Ind = make([][]int32, len(spec.Ind))
	for r := range spec.Ind {
		mirror.Ind[r] = append([]int32(nil), spec.Ind[r]...)
	}
	st, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	matchesOracle(t, &mirror, st.Result)
	for _, n := range []int{9, spec.NumIters / 2} {
		d := mkDelta(rng, &mirror, n)
		applyLocal(&mirror, d)
		if st, err = s.ApplyDelta(context.Background(), st.ID, d, true); err != nil {
			t.Fatal(err)
		}
		if incremental := n == 9; st.LastIncremental != incremental {
			t.Fatalf("delta of %d iterations: incremental = %v, want %v", n, st.LastIncremental, incremental)
		}
		matchesOracle(t, &mirror, st.Result)
	}
	if st.Incremental != 1 || st.Full != 1 {
		t.Fatalf("session took %d incremental and %d full revisions, want 1 and 1", st.Incremental, st.Full)
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
