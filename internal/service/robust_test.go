package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"irred/internal/fault"
)

// robustSpec builds a deterministic raw reduction spec with integral
// contributions, so recovered/resumed runs can be compared bitwise.
func robustSpec(seed int64, steps int) JobSpec {
	rng := rand.New(rand.NewSource(seed))
	iters, elems := 160, 48
	ind := make([][]int32, 2)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	w := make([]float64, iters)
	for i := range w {
		w[i] = float64(rng.Intn(9) + 1)
	}
	return JobSpec{
		NumIters: iters, NumElems: elems, Ind: ind,
		Contrib: &ContribSpec{Kind: "weights", Weights: w},
		P:       3, K: 2, Steps: steps,
	}
}

// TestCheckpointRoundTrip pins the IRCJ file format: write, read back,
// verify every field survives bit-exactly. The stored spec is JSON and is
// read back by JobSpec's own decoder: a plain spec, and one carrying every
// scalar a cluster job's checkpoint holds.
func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	plain := robustSpec(1, 6)
	cluster := robustSpec(3, 6)
	cluster.ClusterUID, cluster.CheckpointEvery, cluster.Dist, cluster.TimeoutMS = "00c0ffee", 2, "block", 60000
	for _, spec := range []JobSpec{plain, cluster} {
		want, err := spec.SequentialRaw()
		if err != nil {
			t.Fatal(err)
		}
		ck := &jobCheckpoint{Spec: spec, Sweep: 4, X: want}
		path := ckPath(dir, "j000042")
		if err := writeJobCheckpoint(path, ck, nil); err != nil {
			t.Fatal(err)
		}
		got, err := readJobCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		if got.Sweep != 4 || len(got.X) != len(want) {
			t.Fatalf("read back sweep=%d len=%d", got.Sweep, len(got.X))
		}
		for i := range want {
			if got.X[i] != want[i] {
				t.Fatalf("X[%d] = %v, want %v", i, got.X[i], want[i])
			}
		}
		if !reflect.DeepEqual(got.Spec, spec) {
			t.Fatalf("spec did not survive:\n got  %+v\n want %+v", got.Spec, spec)
		}
	}
}

// TestCheckpointRejectsCorruption: any flipped byte fails the checksum and
// the scanner deletes the file rather than resuming from it.
func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	spec := robustSpec(2, 4)
	x, _ := spec.SequentialRaw()
	path := ckPath(dir, "j000001")
	if err := writeJobCheckpoint(path, &jobCheckpoint{Spec: spec, Sweep: 2, X: x}, nil); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readJobCheckpoint(path); err == nil {
		t.Fatal("corrupted checkpoint accepted")
	}
	if cks := scanJobCheckpoints(dir); len(cks) != 0 {
		t.Fatalf("scanner resumed %d corrupt checkpoints", len(cks))
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("scanner left the corrupt file on disk")
	}
}

// TestCheckpointClaimedSizes: an IRCJ frame reaches the decoder from any
// cluster peer (POST /v1/cluster/replica/{uid}), checksum and all, so a
// length it claims is only believed as far as the frame's own bytes back
// it. Each frame here is refused with a labelled error and allocates next
// to nothing, whatever it claims.
func TestCheckpointClaimedSizes(t *testing.T) {
	spec, err := json.Marshal(robustSpec(1, 6))
	if err != nil {
		t.Fatal(err)
	}
	// frame seals fields with the IRCJ header and the FNV-1a trailer.
	frame := func(fields ...[]byte) []byte {
		b := append([]byte(ckFileMagic), ckFileVersion)
		for _, f := range fields {
			b = append(b, f...)
		}
		sum := fnv.New64a()
		sum.Write(b)
		return binary.LittleEndian.AppendUint64(b, sum.Sum64())
	}
	varint := func(v int64) []byte { return binary.AppendVarint(nil, v) }
	withVector := func(n int64, floats int) []byte {
		return frame(varint(int64(len(spec))), spec, varint(1), varint(n), make([]byte, 8*floats))
	}
	for _, tc := range []struct {
		name, why string
		raw       []byte
	}{
		{"spec 2^30", "spec length", frame(varint(1<<30), []byte(`{"p":2}`))},
		{"spec 2^31", "spec length", frame(varint(1<<31), []byte(`{"p":2}`))},
		{"vector 2^28", "vector length", withVector(1<<28, 4)},
		{"short vector", "vector length", withVector(5, 4)},
		{"bytes after spec", "bytes after the spec", frame(varint(int64(len(spec)+2)), spec, []byte("{}"), varint(1), varint(1), make([]byte, 8))},
	} {
		// TotalAlloc counts every goroutine's allocations, so the least of
		// three decodes is this one's.
		alloc := uint64(math.MaxUint64)
		for try := 0; try < 3; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := decodeJobCheckpoint(tc.raw, "peer")
			runtime.ReadMemStats(&after)
			if err == nil || !strings.HasPrefix(err.Error(), "service: checkpoint peer: "+tc.why) {
				t.Fatalf("%s: error %v, want one labelled %q", tc.name, err, tc.why)
			}
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > 1<<20 {
			t.Errorf("%s: decoding allocated %d bytes", tc.name, alloc)
		}
	}
	if _, err := decodeJobCheckpoint(withVector(4, 4), "peer"); err != nil {
		t.Fatalf("the same frame with its true length: %v", err)
	}
}

// TestCheckpointWriteFaultInjected: an injected disk failure loses the
// resume point but not the write path's atomicity (no partial file).
func TestCheckpointWriteFaultInjected(t *testing.T) {
	dir := t.TempDir()
	spec := robustSpec(3, 4)
	x, _ := spec.SequentialRaw()
	inj := fault.New(fault.Spec{Seed: 1, DiskRate: 1})
	path := ckPath(dir, "j000001")
	if err := writeJobCheckpoint(path, &jobCheckpoint{Spec: spec, Sweep: 2, X: x}, inj); err == nil {
		t.Fatal("rate-1 disk injector let the checkpoint through")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("failed write left a file behind")
	}
	if c := inj.Counters(); c.DiskFails != 1 {
		t.Fatalf("counters %+v, want 1 disk failure", c)
	}
}

// TestServiceResumesCheckpointedJob is the restart contract end to end: a
// multi-sweep job checkpoints mid-run; a second service over the same
// directory picks the checkpoint up, reruns only the remaining sweeps, and
// produces the bitwise-identical result.
func TestServiceResumesCheckpointedJob(t *testing.T) {
	dir := t.TempDir()
	spec := robustSpec(4, 8)
	spec.CheckpointEvery = 2
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}

	// First process: run to completion so a checkpoint file certainly
	// exists mid-run, then craft the "crashed mid-run" state by writing the
	// sweep-4 checkpoint back (a TERM'd daemon leaves exactly this behind).
	s1, err := New(Options{Workers: 1, CacheDir: dir, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st1 := waitJob(t, j1)
	if st1.State != StateDone {
		t.Fatalf("first run: %+v", st1)
	}
	s1.Close()

	half := spec
	half.Steps = 4
	halfX, err := half.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	jobsDir := s1.jobsDir
	if err := writeJobCheckpoint(ckPath(jobsDir, "j009999"), &jobCheckpoint{Spec: spec, Sweep: 4, X: halfX}, nil); err != nil {
		t.Fatal(err)
	}

	// Second process: must resume the stored job automatically.
	s2, err := New(Options{Workers: 1, CacheDir: dir, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, ok := s2.Job("j000001")
	if !ok {
		t.Fatal("restart did not re-admit the checkpointed job")
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone {
		t.Fatalf("resumed run: %+v", st2)
	}
	if !st2.Resumed {
		t.Fatal("resumed job not marked Resumed")
	}
	if len(st2.Result) != len(want) {
		t.Fatalf("result len %d, want %d", len(st2.Result), len(want))
	}
	for i := range want {
		if st2.Result[i] != want[i] {
			t.Fatalf("resumed result[%d] = %v, want %v (diverged)", i, st2.Result[i], want[i])
		}
	}
	// The old checkpoint file is consumed and the finished job leaves none.
	if cks := scanJobCheckpoints(jobsDir); len(cks) != 0 {
		t.Fatalf("%d checkpoint files survive a completed resume", len(cks))
	}
}

// TestShutdownPreemptionKeepsCheckpoint is the graceful-TERM contract: a
// running checkpointed job preempted by Close leaves its checkpoint on
// disk (unlike user cancellation, which deletes it), and the next service
// over the same directory resumes it to the bitwise-exact result.
func TestShutdownPreemptionKeepsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	spec := robustSpec(9, 5000)
	spec.CheckpointEvery = 1
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}

	s1, err := New(Options{Workers: 1, CacheDir: dir, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Preempt mid-run, after at least a few checkpoints have landed.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := j1.Status(false)
		if st.CheckpointSweep >= 3 {
			break
		}
		switch st.State {
		case StateDone, StateFailed, StateCancelled:
			t.Fatalf("job reached %s before preemption", st.State)
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint observed before the deadline")
		}
		time.Sleep(200 * time.Microsecond)
	}
	s1.Close()
	if st := j1.Status(false); st.State != StateCancelled {
		t.Fatalf("preempted job state %s, want cancelled", st.State)
	}
	cks := scanJobCheckpoints(s1.jobsDir)
	if len(cks) != 1 {
		t.Fatalf("preemption left %d checkpoint files, want 1", len(cks))
	}

	s2, err := New(Options{Workers: 1, CacheDir: dir, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	j2, ok := s2.Job("j000001")
	if !ok {
		t.Fatal("restart did not re-admit the preempted job")
	}
	st2 := waitJob(t, j2)
	if st2.State != StateDone || !st2.Resumed {
		t.Fatalf("resumed run: %+v", st2)
	}
	for i := range want {
		if st2.Result[i] != want[i] {
			t.Fatalf("resumed result[%d] = %v, want %v (diverged)", i, st2.Result[i], want[i])
		}
	}
	if cks := scanJobCheckpoints(s1.jobsDir); len(cks) != 0 {
		t.Fatalf("%d checkpoint files survive a completed resume", len(cks))
	}
}

// TestChaosDiskFaultsLoseOnlyResumePoints: a native job whose checkpoint
// writes fail half the time still finishes with the bitwise-sequential
// result — an injected disk fault costs a resume point, never the job.
func TestChaosDiskFaultsLoseOnlyResumePoints(t *testing.T) {
	s, err := newService(Options{Workers: 1, CacheDir: t.TempDir()}, fault.New(fault.Spec{Seed: 3, DiskRate: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	spec := robustSpec(6, 12)
	spec.CheckpointEvery = 1
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
		t.Fatalf("job under disk faults: %+v", st)
	}
	for i := range want {
		if st.Result[i] != want[i] {
			t.Fatalf("result[%d] = %v, want %v", i, st.Result[i], want[i])
		}
	}
	var failed int
	spans, _ := s.Trace().Snapshot()
	for _, sp := range spans {
		if sp.Name == "checkpoint/fail" {
			failed++
		}
	}
	if failed == 0 || failed == 11 {
		t.Fatalf("%d of 11 checkpoint writes failed at rate 0.5", failed)
	}
}

// TestCheckpointWithRemovedChaosKeyIsDropped: a job spec has no "chaos"
// key any more, but a daemon before its removal wrote one into the IRCJ
// checkpoints of the jobs that carried it. Such a file fails the strict
// spec decode, so a starting service deletes it instead of resuming it.
func TestCheckpointWithRemovedChaosKeyIsDropped(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, ckJobsDir)
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	spec := robustSpec(10, 4)
	spec.CheckpointEvery = 1
	half := spec
	half.Steps = 2
	x, err := half.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	// The frame as that daemon sealed it: the key sat between timeout_ms
	// and checkpoint_every, in the struct's field order.
	specJSON := bytes.Replace(mustMarshal(t, spec), []byte(`"checkpoint_every":`),
		[]byte(`"chaos":{"seed":5,"disk":0.25},"checkpoint_every":`), 1)
	frame := append([]byte(ckFileMagic), ckFileVersion)
	frame = binary.AppendVarint(frame, int64(len(specJSON)))
	frame = append(frame, specJSON...)
	frame = binary.AppendVarint(frame, 2)
	frame = binary.AppendVarint(frame, int64(len(x)))
	for _, v := range x {
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(v))
	}
	sum := fnv.New64a()
	sum.Write(frame)
	path := ckPath(jobsDir, "j000007")
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint64(frame, sum.Sum64()), 0o644); err != nil {
		t.Fatal(err)
	}
	// Backdate it, so the scan does not take it for a concurrent write.
	old := time.Now().Add(-time.Minute)
	if err := os.Chtimes(path, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := readJobCheckpoint(path); err == nil || !strings.Contains(err.Error(), `unknown field "chaos"`) {
		t.Fatalf("read = %v, want an unknown-field error", err)
	}

	s, err := New(Options{Workers: 1, CacheDir: dir, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, ok := s.Job("j000001"); ok {
		t.Fatal("restart resumed a checkpoint whose spec carries chaos")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("the undecodable checkpoint was left on disk")
	}
}

// TestPanickingJobFailsWithStack: a panic that escapes a job's run reaches
// the service's supervisor through the pool, fails exactly that job with
// the recovered stack in its status, and leaves the worker serving later
// jobs.
func TestPanickingJobFailsWithStack(t *testing.T) {
	s, err := New(Options{Workers: 1, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// The same service behind a one-worker pool whose first run panics
	// inside the worker, where a poisoned kernel would.
	s.pool.close()
	var poisoned atomic.Bool
	poisoned.Store(true)
	s.pool = newPool(1, 4, func(j *Job) {
		if poisoned.Swap(false) {
			panic("poisoned kernel in " + j.ID)
		}
		s.runJob(j)
	}, s.jobPanicked)

	j, err := s.Submit(robustSpec(7, 2))
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateFailed {
		t.Fatalf("state %s, want failed (%+v)", st.State, st)
	}
	if !strings.Contains(st.Error, "panicked: poisoned kernel in "+j.ID) {
		t.Fatalf("error %q does not name the panic", st.Error)
	}
	if st.Stack == "" {
		t.Fatal("failed job carries no stack")
	}

	// The pool's one worker survives: a clean job still runs.
	spec := robustSpec(8, 1)
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	ok, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if st := waitJob(t, ok); st.State != StateDone || st.ResultSHA256 != HashResult(want) {
		t.Fatalf("post-panic job: %+v", st)
	}
}

// TestCheckpointedJobsUnderDiskFaults is the disk-fault soak as a seed
// table. Every job checkpoints after every sweep while the injector fails
// writes at rate 0.05, and each must finish with the sequential oracle's
// SHA: a failed write costs a resume point, never the job or its answer.
// A write's fate is a function of the seed, the job id and the sweep, so
// a failing row replays. The restart leg closes a service mid-job and
// resumes the job on a new service over the same directory, under the
// same rate of faults.
func TestCheckpointedJobsUnderDiskFaults(t *testing.T) {
	const diskRate = 0.05
	shapes := []struct {
		p, k int
		dist string
	}{{1, 1, "block"}, {2, 1, "cyclic"}, {3, 2, "cyclic"}, {4, 2, "block"}}
	var fails int64
	for _, seed := range []int64{1, 2, 3} {
		inj := fault.New(fault.Spec{Seed: seed, DiskRate: diskRate})
		s, err := newService(Options{Workers: 2, CacheDir: t.TempDir(), TraceSpans: -1}, inj)
		if err != nil {
			t.Fatal(err)
		}
		jobs, wants := make([]*Job, len(shapes)), make([]string, len(shapes))
		for i, sh := range shapes {
			spec := robustSpec(seed*100+int64(i), 40)
			spec.P, spec.K, spec.Dist, spec.CheckpointEvery = sh.p, sh.k, sh.dist, 1
			wants[i] = oracleSHA(t, spec)
			if jobs[i], err = s.Submit(spec); err != nil {
				t.Fatal(err)
			}
		}
		for i, j := range jobs {
			if st := waitJob(t, j); st.State != StateDone || st.ResultSHA256 != wants[i] {
				t.Errorf("seed %d, P=%d k=%d %s: state %s, error %q, sha %s, want %s",
					seed, shapes[i].p, shapes[i].k, shapes[i].dist, st.State, st.Error, st.ResultSHA256, wants[i])
			}
		}
		s.Close()
		fails += inj.Counters().DiskFails
	}
	if fails == 0 {
		t.Fatal("no checkpoint write failed: the table injects nothing")
	}
	t.Logf("%d checkpoint writes failed", fails)

	for _, seed := range []int64{4, 5} {
		dir := t.TempDir()
		spec := robustSpec(seed, 2000)
		spec.P, spec.K, spec.CheckpointEvery = 3, 2, 1
		want := oracleSHA(t, spec)
		s1, err := newService(Options{Workers: 1, CacheDir: dir, TraceSpans: -1}, fault.New(fault.Spec{Seed: seed, DiskRate: diskRate}))
		if err != nil {
			t.Fatal(err)
		}
		j1, err := s1.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for j1.Status(false).CheckpointSweep < 5 {
			if j1.State() != StateRunning && j1.State() != StateQueued {
				t.Fatalf("seed %d: job reached %s before the close", seed, j1.State())
			}
			if time.Now().After(deadline) {
				t.Fatalf("seed %d: no checkpoint before the deadline", seed)
			}
			time.Sleep(100 * time.Microsecond)
		}
		s1.Close()
		if st := j1.State(); st != StateCancelled {
			t.Fatalf("seed %d: closed mid-job, the job is %s", seed, st)
		}

		s2, err := newService(Options{Workers: 1, CacheDir: dir, TraceSpans: -1}, fault.New(fault.Spec{Seed: seed + 1000, DiskRate: diskRate}))
		if err != nil {
			t.Fatal(err)
		}
		j2, ok := s2.Job("j000001")
		if !ok {
			t.Fatalf("seed %d: the new service did not resume the job", seed)
		}
		if st := waitJob(t, j2); st.State != StateDone || !st.Resumed || st.ResultSHA256 != want {
			t.Errorf("seed %d resumed: state %s, resumed %v, error %q, sha %s, want %s",
				seed, st.State, st.Resumed, st.Error, st.ResultSHA256, want)
		}
		s2.Close()
	}
}

// oracleSHA is the SHA of a raw spec's sequential reduction.
func oracleSHA(t *testing.T, spec JobSpec) string {
	t.Helper()
	x, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	return HashResult(x)
}

// TestReadyzFlipsOnDrain: Ready is true for a live service, false after
// BeginDrain and after Close.
func TestReadyzFlipsOnDrain(t *testing.T) {
	s, err := New(Options{Workers: 1, TraceSpans: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Ready() {
		t.Fatal("fresh service not ready")
	}
	s.BeginDrain()
	if s.Ready() {
		t.Fatal("draining service still ready")
	}
	s.Close()
	if s.Ready() {
		t.Fatal("closed service still ready")
	}
}
