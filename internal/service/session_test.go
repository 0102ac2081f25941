package service

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"irred/internal/fault"
)

// mkDelta draws n distinct iterations and fresh indirection values: a
// canonical delta against the given spec's shape.
func mkDelta(rng *rand.Rand, spec *JobSpec, n int) *Delta {
	perm := rng.Perm(spec.NumIters)[:n]
	sort.Ints(perm)
	d := &Delta{Changed: make([]int32, n), Values: make([][]int32, len(spec.Ind))}
	for j, it := range perm {
		d.Changed[j] = int32(it)
	}
	for r := range d.Values {
		d.Values[r] = make([]int32, n)
		for j := range d.Values[r] {
			d.Values[r][j] = int32(rng.Intn(spec.NumElems))
		}
	}
	return d
}

// applyLocal commits a delta to the test's own mirror of the indirection
// arrays, the state the sequential oracle recomputes from.
func applyLocal(spec *JobSpec, d *Delta) {
	for r, row := range d.Values {
		for j, it := range d.Changed {
			spec.Ind[r][it] = row[j]
		}
	}
}

// TestSessionOracle drives a session through a stream of sparse deltas and
// checks every response bitwise against the sequential oracle recomputed
// from a local mirror: the resident, incrementally-revised schedule must be
// indistinguishable from re-solving the problem from scratch.
func TestSessionOracle(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	rng := rand.New(rand.NewSource(41))
	spec := rawSpec(41, 3, 2, 900, 128, 2)

	// Mirror with its own deep-copied Ind (OpenSession copies too, but the
	// test must not share state with the session).
	mirror := spec
	mirror.Ind = make([][]int32, len(spec.Ind))
	for r := range spec.Ind {
		mirror.Ind[r] = append([]int32(nil), spec.Ind[r]...)
	}

	st, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mirror.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Result) != len(want) {
		t.Fatalf("base result has %d elements, want %d", len(st.Result), len(want))
	}
	for e := range want {
		if st.Result[e] != want[e] {
			t.Fatalf("base result[%d] = %g, want %g", e, st.Result[e], want[e])
		}
	}
	if !st.CacheHit && st.ScheduleKey == "" {
		t.Fatal("open did not report a schedule key")
	}

	for round := 0; round < 12; round++ {
		n := 1 + rng.Intn(spec.NumIters/5) // up to 20%: incremental territory
		d := mkDelta(rng, &mirror, n)
		applyLocal(&mirror, d)
		st, err = s.ApplyDelta(context.Background(), st.ID, d, true)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !st.LastIncremental {
			t.Fatalf("round %d: %d/%d changed took the full path below the threshold", round, n, spec.NumIters)
		}
		want, err := mirror.SequentialRaw()
		if err != nil {
			t.Fatal(err)
		}
		for e := range want {
			if st.Result[e] != want[e] {
				t.Fatalf("round %d: result[%d] = %g, want %g", round, e, st.Result[e], want[e])
			}
		}
	}
	if st.Deltas != 12 || st.Incremental != 12 || st.Full != 0 {
		t.Fatalf("counters deltas=%d incr=%d full=%d, want 12/12/0", st.Deltas, st.Incremental, st.Full)
	}

	// A delta past the fallback fraction re-inspects — and must still
	// match the oracle exactly.
	big := mkDelta(rng, &mirror, spec.NumIters/2)
	applyLocal(&mirror, big)
	st, err = s.ApplyDelta(context.Background(), st.ID, big, true)
	if err != nil {
		t.Fatal(err)
	}
	if st.LastIncremental || st.Full != 1 {
		t.Fatalf("50%% delta stayed incremental (full=%d)", st.Full)
	}
	want, err = mirror.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	for e := range want {
		if st.Result[e] != want[e] {
			t.Fatalf("post-fallback result[%d] = %g, want %g", e, st.Result[e], want[e])
		}
	}

	m := s.Metrics().Sessions
	if m.Live != 1 || m.DeltasApplied != 13 || m.Incremental != 12 || m.FullReinspects != 1 {
		t.Fatalf("metrics %+v, want live=1 deltas=13 incr=12 full=1", m)
	}

	if err := s.CloseSession(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.GetSession(st.ID, false); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("closed session answered %v, want ErrSessionGone", err)
	}
	if _, err := s.ApplyDelta(context.Background(), st.ID, mkDelta(rng, &mirror, 1), false); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("delta to closed session answered %v, want ErrSessionGone", err)
	}
}

// TestSessionFallbackConfig checks the configured threshold is honoured:
// with SessionFallbackFrac 0.5 a 40% delta stays incremental.
func TestSessionFallbackConfig(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, SessionFallbackFrac: 0.5})
	rng := rand.New(rand.NewSource(5))
	spec := rawSpec(5, 2, 1, 500, 64, 1)
	st, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	d := mkDelta(rng, &spec, 200) // 40%
	if st, err = s.ApplyDelta(context.Background(), st.ID, d, false); err != nil {
		t.Fatal(err)
	}
	if !st.LastIncremental {
		t.Fatalf("40%% delta with threshold 0.5 took the full path (last_frac %g)", st.LastFrac)
	}
	if st.FallbackFrac != 0.5 {
		t.Fatalf("status reports threshold %g, want 0.5", st.FallbackFrac)
	}
}

// TestSessionEviction opens more sessions than the store holds and checks
// the evicted one is gone for every verb — fail closed, never stale.
func TestSessionEviction(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, MaxSessions: 2})
	rng := rand.New(rand.NewSource(9))
	ids := make([]string, 3)
	specs := make([]JobSpec, 3)
	for i := range ids {
		specs[i] = rawSpec(int64(100+i), 2, 1, 200+10*i, 32, 1)
		st, err := s.OpenSession(context.Background(), specs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	if _, err := s.GetSession(ids[0], false); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("evicted session answered %v, want ErrSessionGone", err)
	}
	if _, err := s.ApplyDelta(context.Background(), ids[0], mkDelta(rng, &specs[0], 1), false); !errors.Is(err, ErrSessionGone) {
		t.Fatalf("delta to evicted session answered %v, want ErrSessionGone", err)
	}
	for _, id := range ids[1:] {
		if _, err := s.GetSession(id, false); err != nil {
			t.Fatalf("resident session %s: %v", id, err)
		}
	}
	m := s.Metrics().Sessions
	if m.Live != 2 || m.Evicted != 1 || m.Opened != 3 {
		t.Fatalf("metrics %+v, want live=2 evicted=1 opened=3", m)
	}
}

// TestSessionBusy holds the delta gate directly and checks a concurrent
// submission is refused with ErrSessionBusy instead of queued or applied.
func TestSessionBusy(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	rng := rand.New(rand.NewSource(3))
	spec := rawSpec(3, 2, 1, 300, 48, 1)
	st, err := s.OpenSession(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	sess, ok := s.sessions.get(st.ID)
	if !ok {
		t.Fatal("session vanished")
	}
	sess.gate <- struct{}{}
	if _, err := s.ApplyDelta(context.Background(), st.ID, mkDelta(rng, &spec, 2), false); !errors.Is(err, ErrSessionBusy) {
		t.Fatalf("delta against held gate answered %v, want ErrSessionBusy", err)
	}
	<-sess.gate
	if _, err := s.ApplyDelta(context.Background(), st.ID, mkDelta(rng, &spec, 2), false); err != nil {
		t.Fatalf("delta after release: %v", err)
	}
}

// TestSessionSpecValidation enumerates the shapes sessions refuse. Each
// body goes the way POST /v1/session takes it, decode then open, so a field
// JobSpec does not have is refused by name before any session opens.
func TestSessionSpecValidation(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, AllowChaos: true})
	named := JobSpec{Kernel: "mvm", Dataset: "S", P: 2, K: 1, Steps: 1}
	raw := rawSpec(1, 2, 1, 100, 16, 1)
	chaotic := raw
	chaotic.Chaos = &fault.Spec{Seed: 1, DiskRate: 0.1}
	dist := raw
	dist.Engine = "distributed"
	auto := mustMarshal(t, raw)
	auto = append(auto[:len(auto)-1], `,"auto":true}`...)
	for name, tc := range map[string]struct {
		body []byte
		why  string // substring the refusal must carry
	}{
		"named kernel": {mustMarshal(t, named), ""},
		"chaos":        {mustMarshal(t, chaotic), ""},
		"distributed":  {mustMarshal(t, dist), ""},
		"auto":         {auto, `unknown field "auto"`},
	} {
		spec, _, err := DecodeJobSpec(tc.body)
		if err == nil {
			_, err = s.OpenSession(context.Background(), spec)
		}
		if err == nil || !strings.Contains(err.Error(), tc.why) {
			t.Fatalf("%s spec as a session: %v", name, err)
		}
	}
}
