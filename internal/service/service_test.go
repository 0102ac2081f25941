package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"irred/internal/inspector"
	"irred/internal/kernels"
)

// rawSpec builds a raw reduction job with integral weights: contributions
// are exactly representable, so floating-point addition is exact and the
// parallel result must equal the sequential reference bit for bit,
// whatever the summation order.
func rawSpec(seed int64, p, k, iters, elems, steps int) JobSpec {
	rng := rand.New(rand.NewSource(seed))
	ind := make([][]int32, 2)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	w := make([]float64, iters)
	for i := range w {
		w[i] = float64(1 + rng.Intn(8))
	}
	return JobSpec{
		NumIters: iters,
		NumElems: elems,
		Ind:      ind,
		Contrib:  &ContribSpec{Kind: "weights", Weights: w},
		P:        p, K: k, Steps: steps,
	}
}

func newTestService(t *testing.T, opt Options) *Service {
	t.Helper()
	s, err := New(opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// waitJob blocks until the job is terminal, with a hard timeout so a
// broken service fails fast instead of hanging the suite.
func waitJob(t *testing.T, j *Job) JobStatus {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s stuck in %s", j.ID, j.State())
	}
	return j.Status(true)
}

func TestRawJobMatchesSequentialBitwise(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	spec := rawSpec(1, 4, 2, 3000, 257, 3)
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
		t.Fatalf("result len %d, want %d", len(st.Result), len(want))
	}
	for i := range want {
		if st.Result[i] != want[i] {
			t.Fatalf("element %d: got %v, want %v (bitwise)", i, st.Result[i], want[i])
		}
	}
	if st.ResultSHA256 != HashResult(want) {
		t.Fatal("result hash does not match sequential reference")
	}
}

// TestNamedKernelMatchesSequential serves each named kernel's smallest
// dataset, named in lower case, and checks the result against the kernels
// table: bit for bit against the table's own native run (the SHA that
// irredrun -engine native -json reports), and to 1e-10 against the
// sequential oracle.
func TestNamedKernelMatchesSequential(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	const p, k, steps = 4, 2, 3
	for _, name := range kernels.Names() {
		ds := kernels.Datasets(name)[0]
		j, err := s.Submit(JobSpec{Kernel: name, Dataset: strings.ToLower(ds), Seed: 1, P: p, K: k, Dist: "block", Steps: steps})
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("%s job %s: %s", name, st.State, st.Error)
		}
		w, err := kernels.Open(name, ds, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, local, err := w.NewNativeFrom(nil, p, k, inspector.Block)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(steps); err != nil {
			t.Fatal(err)
		}
		if st.ResultSHA256 != HashResult(local) {
			t.Errorf("%s %s: served sha256 %s, local native run %s", name, ds, st.ResultSHA256, HashResult(local))
		}
		want := w.Oracle(steps)
		if len(st.Result) != len(want) {
			t.Fatalf("%s: result len %d, want %d", name, len(st.Result), len(want))
		}
		for i := range want {
			if d := math.Abs(st.Result[i]-want[i]) / (1 + math.Abs(want[i])); d > 1e-10 {
				t.Fatalf("%s element %d: got %v, want %v", name, i, st.Result[i], want[i])
			}
		}
	}
}

// TestValidateNamedKernels checks Validate against the kernels table: every
// dataset in either case passes, and a bad dataset or kernel answers the
// 400 text clients see.
func TestValidateNamedKernels(t *testing.T) {
	for _, name := range kernels.Names() {
		for _, ds := range kernels.Datasets(name) {
			for _, spelling := range []string{strings.ToLower(ds), strings.ToUpper(ds)} {
				sp := JobSpec{Kernel: name, Dataset: spelling, P: 2, K: 1}
				if err := sp.Validate(); err != nil {
					t.Errorf("%s %s rejected: %v", name, spelling, err)
				}
			}
		}
	}
	for _, c := range []struct{ kernel, dataset, msg string }{
		{"mvm", "Z", `mvm datasets: S, W, A, B (got "Z")`},
		{"euler", "5k", `euler datasets: 2k, 10k (got "5k")`},
		{"moldyn", "20K", `moldyn datasets: 2k, 10k (got "20K")`},
		{"nope", "S", `unknown kernel "nope"`},
	} {
		sp := JobSpec{Kernel: c.kernel, Dataset: c.dataset, P: 2, K: 1}
		if err := sp.Validate(); err == nil || err.Error() != c.msg {
			t.Errorf("%s %s: error %v, want %s", c.kernel, c.dataset, err, c.msg)
		}
	}
}

func TestScheduleCacheReuseAcrossJobs(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(2, 4, 2, 1000, 101, 2)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitJob(t, first)
	if st1.State != StateDone || st1.CacheHit {
		t.Fatalf("first job: state %s cacheHit %v", st1.State, st1.CacheHit)
	}
	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st2 := waitJob(t, second)
	if st2.State != StateDone || !st2.CacheHit {
		t.Fatalf("second job: state %s cacheHit %v, want a schedule cache hit", st2.State, st2.CacheHit)
	}
	if st1.ScheduleKey == "" || st1.ScheduleKey != st2.ScheduleKey {
		t.Fatalf("schedule keys differ: %q vs %q", st1.ScheduleKey, st2.ScheduleKey)
	}
	if st1.ResultSHA256 != st2.ResultSHA256 {
		t.Fatal("same job produced different results")
	}
	cs := s.Cache().Stats()
	if cs.Misses != 1 || cs.Hits != 1 {
		t.Fatalf("cache stats = %+v, want 1 miss + 1 hit", cs)
	}
	// A different strategy over the same arrays is a different key.
	spec.K = 1
	third, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, third); st.CacheHit {
		t.Fatal("different strategy must not hit the cache")
	}
}

// TestKeptKeyIsTheOnlyHash: the content key a node keeps at ingress is
// the only hash of a job's arrays on that node. The kept key is replaced
// by a planted one, so any second hash would show: the job's schedule key,
// its cache lookup (one miss, under the planted key) and the checkpoint
// replicas' placement must all read the planted key. A job that arrives
// with no key is hashed once by its worker, which keeps the key for the
// replicas.
func TestKeptKeyIsTheOnlyHash(t *testing.T) {
	var mu sync.Mutex
	placed := map[string]string{} // uid → the key its replicas were placed by
	s := newTestService(t, Options{
		Workers:  1,
		CacheDir: t.TempDir(),
		Replicate: func(uid, key string, _ []byte) {
			mu.Lock()
			defer mu.Unlock()
			placed[uid] = key
		},
	})
	placedBy := func(uid string) string {
		mu.Lock()
		defer mu.Unlock()
		return placed[uid]
	}
	const planted = "b1a2c3d4e5f60718293a4b5c6d7e8f90a1b2c3d4e5f60718293a4b5c6d7e8f9"
	plant := func(spec JobSpec) JobSpec {
		spec.KeepRoutingKey()
		spec.keptKey = planted
		return spec
	}
	run := func(spec JobSpec) JobStatus {
		t.Helper()
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st := waitJob(t, j)
		if st.State != StateDone {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
		return st
	}

	if st, cs := run(plant(rawSpec(42, 2, 2, 600, 97, 2))), s.Cache().Stats(); st.ScheduleKey != planted || cs.Misses != 1 {
		t.Fatalf("kept key: keyed %s with %d cache misses; want %s and 1", st.ScheduleKey, cs.Misses, planted)
	}

	replica := rawSpec(43, 2, 2, 600, 97, 3)
	replica.CheckpointEvery, replica.ClusterUID = 1, "uid-43"
	if st, key := run(plant(replica)), placedBy("uid-43"); st.ScheduleKey != planted || key != planted {
		t.Fatalf("replicated: keyed %s, replicas placed by %s; want %s", st.ScheduleKey, key, planted)
	}
	replica.ClusterUID = "uid-44"
	if st, key := run(replica), placedBy("uid-44"); st.ScheduleKey != replica.RoutingKey() || key != st.ScheduleKey {
		t.Fatalf("no kept key: keyed %s, replicas placed by %s; want %s", st.ScheduleKey, key, replica.RoutingKey())
	}
	// What the worker hashes it keeps: a second read is the first hash,
	// even of arrays edited since (only a session edits them, and a
	// session's spec never keeps a key).
	fresh := rawSpec(45, 2, 2, 600, 97, 1)
	first := fresh.baseKey()
	fresh.Ind[0][0] ^= 1
	if fresh.baseKey() != first {
		t.Fatal("baseKey hashed the arrays again instead of keeping its key")
	}
}

// longSpec is a job that runs for many seconds if not cancelled: a small
// sweep repeated a million times, so cancellation has thousands of phase
// boundaries per second to land on.
func longSpec() JobSpec {
	sp := rawSpec(3, 4, 2, 500, 64, 1)
	sp.Steps = 1_000_000
	return sp
}

func TestCancelRunningJob(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	j, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick it up, then cancel mid-run.
	deadline := time.Now().Add(10 * time.Second)
	for j.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", j.State())
		}
		time.Sleep(time.Millisecond)
	}
	if !s.Cancel(j.ID) {
		t.Fatal("Cancel reported unknown job")
	}
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled job did not stop; worker still held")
	}
	if st := j.Status(false); st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled", st.State)
	}
	// The worker must be free again: a quick job completes.
	quick, err := s.Submit(rawSpec(4, 2, 1, 100, 32, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, quick); st.State != StateDone {
		t.Fatalf("post-cancel job: %s (%s) — worker not released", st.State, st.Error)
	}
}

func TestDeadlineExpiryCancelsJob(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	sp := longSpec()
	sp.TimeoutMS = 50
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-j.Done():
	case <-time.After(15 * time.Second):
		t.Fatal("deadline-bound job did not stop")
	}
	if st := j.Status(false); st.State != StateCancelled {
		t.Fatalf("state = %s, want cancelled on deadline", st.State)
	}
}

func TestQueueSheddingUnderLoad(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, QueueLen: 1})
	running, err := s.Submit(longSpec())
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for running.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	queued, err := s.Submit(longSpec())
	if err != nil {
		t.Fatalf("queue slot should have accepted the second job: %v", err)
	}
	if _, err := s.Submit(longSpec()); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third submission: err = %v, want ErrQueueFull", err)
	}
	snap := s.Metrics()
	if snap.Jobs["shed"] != 1 {
		t.Fatalf("shed = %d, want 1", snap.Jobs["shed"])
	}
	if snap.QueueDepth != 1 {
		t.Fatalf("queue depth = %d, want 1", snap.QueueDepth)
	}
	running.Cancel()
	queued.Cancel()
	<-running.Done()
	<-queued.Done()
	// The queued job was cancelled before a worker ran it.
	if st := queued.Status(false); st.State != StateCancelled {
		t.Fatalf("queued job state = %s", st.State)
	}
}

func TestInvalidSpecsRejected(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	bad := []JobSpec{
		{Kernel: "mvm", Dataset: "Z", P: 2, K: 1},
		{Kernel: "nope", Dataset: "S", P: 2, K: 1},
		{Kernel: "mvm", Dataset: "S", P: 0, K: 1},
		{Kernel: "mvm", Dataset: "S", P: 2, K: 0},
		{Kernel: "mvm", Dataset: "S", P: 2, K: 1, Dist: "diagonal"},
		{NumIters: 4, NumElems: 8, P: 2, K: 1},                                                                    // raw without ind
		{NumIters: 4, NumElems: 8, Ind: [][]int32{{0, 1, 2, 9}}, Contrib: &ContribSpec{Kind: "ones"}, P: 2, K: 1}, // out of range
		{NumIters: 2, NumElems: 8, Ind: [][]int32{{0, 1}}, Contrib: &ContribSpec{Kind: "pair", Weights: []float64{1, 1}}, P: 2, K: 1}, // pair needs 2 refs
	}
	for i, sp := range bad {
		if _, err := s.Submit(sp); err == nil {
			t.Errorf("spec %d accepted: %+v", i, sp)
		}
	}
}

func TestMetricsLatencyAndStates(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	for i := 0; i < 5; i++ {
		j, err := s.Submit(rawSpec(int64(10+i), 2, 2, 500, 77, 2))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
	}
	snap := s.Metrics()
	if snap.Jobs["done"] != 5 || snap.Jobs["submitted"] != 5 {
		t.Fatalf("jobs = %+v", snap.Jobs)
	}
	if snap.Jobs["running"] != 0 || snap.Jobs["queued"] != 0 {
		t.Fatalf("gauges not drained: %+v", snap.Jobs)
	}
	if snap.Latency.Count != 5 || snap.Latency.P95MS < snap.Latency.P50MS {
		t.Fatalf("latency = %+v", snap.Latency)
	}
	// 5 jobs with distinct seeds → 5 distinct keys → all misses.
	if snap.CacheHitRatio != 0 || snap.Cache.Misses != 5 {
		t.Fatalf("cache = %+v ratio %v", snap.Cache, snap.CacheHitRatio)
	}
}

func TestFinishedJobPruning(t *testing.T) {
	s := newTestService(t, Options{Workers: 1, MaxFinished: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(rawSpec(int64(20+i), 2, 1, 50, 16, 1))
		if err != nil {
			t.Fatal(err)
		}
		waitJob(t, j)
		ids = append(ids, j.ID)
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest finished job not pruned")
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatal("newest finished job pruned")
	}
}

// TestLinearFormMatchesContrib: every built-in contribution kind, over two
// references and over three where the kind allows them, gives the same
// values in the engine's data form as in the per-iteration form the
// oracle runs. At P = 1 and P = 3 the executor — which drives the data
// form — reproduces the sequential oracle bit for bit, as a job and as a
// session: open, one incremental delta and one that falls back to full
// re-inspection.
func TestLinearFormMatchesContrib(t *testing.T) {
	s := newTestService(t, Options{Workers: 2})
	for _, p := range []int{1, 3} {
		for _, tc := range []struct {
			kind string
			refs int
		}{{"ones", 2}, {"ones", 3}, {"weights", 2}, {"weights", 3}, {"pair", 2}} {
			t.Run(fmt.Sprintf("p%d/%s/refs%d", p, tc.kind, tc.refs), func(t *testing.T) {
				spec := rawSpec(21, p, 2, 700, 50, 2)
				spec.Ind = append(spec.Ind, rawSpec(22, p, 2, 700, 50, 2).Ind...)[:tc.refs]
				spec.Contrib = &ContribSpec{Kind: tc.kind, Weights: spec.Contrib.Weights}
				if tc.kind == "ones" {
					spec.Contrib.Weights = nil
				}
				weights, coef := spec.linearFor()
				per, want := spec.contribFor(), make([]float64, tc.refs)
				for it := 0; it < spec.NumIters; it++ {
					w := 1.0
					if weights != nil {
						w = weights[it]
					}
					per(0, it, want)
					for r, c := range coef {
						if c*w != want[r] {
							t.Fatalf("iteration %d reference %d: data form %v, per-iteration %v", it, r, c*w, want[r])
						}
					}
				}

				j, err := s.Submit(spec)
				if err != nil {
					t.Fatal(err)
				}
				st := waitJob(t, j)
				if st.State != StateDone {
					t.Fatalf("job %s: %s", st.State, st.Error)
				}
				matchesOracle(t, &spec, st.Result)
				sessionMatchesOracle(t, s, spec)
			})
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
// checking every result against the oracle of a local mirror and the
// threshold the status reports.
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
	if st.Incremental != 1 || st.Full != 1 || st.FallbackFrac != DefaultFallbackFrac {
		t.Fatalf("session took %d incremental and %d full revisions at threshold %g, want 1 and 1 at %g",
			st.Incremental, st.Full, st.FallbackFrac, DefaultFallbackFrac)
	}
}

// TestFinishedJobReleasesSpecArrays: a terminal job keeps what status
// queries and uid dedupe read — scalars and the result — and lets go of the
// indirection and weight arrays, which the caller's own copy of the spec
// must still hold.
func TestFinishedJobReleasesSpecArrays(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(21, 2, 2, 500, 61, 2)
	spec.ClusterUID = "uid-release"
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone || st.ResultSHA256 != HashResult(want) || len(st.Result) != len(want) {
		t.Fatalf("status after release: %s %q, %d results", st.State, st.Error, len(st.Result))
	}
	js := &j.Spec
	if js.Ind != nil || js.Contrib.Weights != nil || js.Contrib.Kind != "weights" {
		t.Fatalf("finished job still holds its arrays: ind %d, contrib %+v", len(js.Ind), js.Contrib)
	}
	if js.NumIters != 500 || js.P != 2 || js.Steps != 2 || js.ClusterUID != "uid-release" {
		t.Fatalf("finished job lost scalars: %+v", js)
	}
	if len(spec.Ind) != 2 || len(spec.Contrib.Weights) != 500 {
		t.Fatal("release reached into the caller's spec")
	}
	again, err := s.Submit(spec)
	if err != nil || again != j {
		t.Fatalf("re-submitted cluster_uid did not attach to the finished job: %v, %v", again, err)
	}
	if st2 := again.Status(true); st2.ResultSHA256 != st.ResultSHA256 || st2.RunMS != st.RunMS {
		t.Fatalf("status changed on re-attach: %+v", st2)
	}
}

// BenchmarkExecuteRaw submits and waits for raw jobs of the serving
// workloads' shape — 32,768 iterations × 2 references over 4,096 elements,
// pair contributions with integral weights, P = 2, k = 2, cyclic, 4 sweeps
// — against a warm schedule cache, so each job costs admission plus the
// executor and no inspection. ones and weights use the other two
// contribution kinds, so the three rows run the engine's data form with
// each kind's weights and coefficients.
func BenchmarkExecuteRaw(b *testing.B) {
	for _, bc := range []struct {
		name, kind string
	}{
		{"one-loop", "pair"},
		{"ones", "ones"},
		{"weights", "weights"},
	} {
		b.Run(bc.name, func(b *testing.B) {
			spec := rawSpec(1, 2, 2, 32768, 4096, 4)
			spec.Contrib.Kind = bc.kind
			if bc.kind == "ones" {
				spec.Contrib.Weights = nil
			}
			spec.Dist = "cyclic"
			want, err := spec.SequentialRaw()
			if err != nil {
				b.Fatal(err)
			}
			s, err := New(Options{Workers: 1, TraceSpans: -1})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			run := func() JobStatus {
				j, err := s.Submit(spec)
				if err != nil {
					b.Fatal(err)
				}
				<-j.Done()
				return j.Status(false)
			}
			if st := run(); st.State != StateDone || st.ResultSHA256 != HashResult(want) {
				b.Fatalf("warm-up job %s (%s) does not match the oracle", st.State, st.Error)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if st := run(); st.State != StateDone {
					b.Fatalf("job %s: %s", st.State, st.Error)
				}
			}
		})
	}
}
