package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"irred/internal/fault"
	"irred/internal/inspector"
	"irred/internal/kernels"
)

// State is a job's lifecycle position.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// ContribSpec declares the per-iteration contribution of a raw reduction
// job. Contributions must be declarative — they travel over the wire — so
// the service supports the shapes the paper's kernels need:
//
//   - "ones":    every reference of iteration i adds 1 (connectivity counts,
//     histogram-style reductions);
//   - "weights": every reference adds Weights[i] (weighted accumulation);
//   - "pair":    reference 0 adds +Weights[i], reference 1 adds -Weights[i]
//     (equal-and-opposite flux/force form; requires exactly 2 references).
type ContribSpec struct {
	Kind    string    `json:"kind"`
	Weights []float64 `json:"weights,omitempty"`
}

// LoopSpec is one loop of a raw multi-loop program. A nil Ind inherits
// the spec's base indirection arrays — the declarative way to say "this
// loop traverses the same connectivity as the program's base loop", which
// is exactly the shape whose inspection the service amortizes: loops with
// identical indirection contents share one schedule set (content-addressed
// by inspector.ScheduleKey, the serving-side analogue of the compiler's
// schedule-reuse license) instead of each paying the LightInspector. A nil
// Contrib inherits the base contribution spec.
type LoopSpec struct {
	Ind     [][]int32    `json:"ind,omitempty"`
	Contrib *ContribSpec `json:"contrib,omitempty"`
}

// JobSpec describes one reduction job: either a named kernel over a
// generated dataset (mvm | euler | moldyn, regenerated deterministically
// from Dataset+Seed so results are bit-reproducible across processes), or a
// raw irregular reduction given by indirection arrays and a contribution
// spec. The strategy (P, K, Dist) plus the indirection contents key the
// schedule cache.
type JobSpec struct {
	// Named-kernel form.
	Kernel  string `json:"kernel,omitempty"`  // mvm | euler | moldyn
	Dataset string `json:"dataset,omitempty"` // 2k|10k (euler, moldyn); S|W|A|B (mvm)
	Seed    int64  `json:"seed,omitempty"`

	// Raw-reduction form.
	NumIters int          `json:"num_iters,omitempty"`
	NumElems int          `json:"num_elems,omitempty"`
	Ind      [][]int32    `json:"ind,omitempty"`
	Contrib  *ContribSpec `json:"contrib,omitempty"`

	// Loops, when non-empty, turns a raw job into a multi-loop program:
	// each sweep runs the loops in order against one shared reduction
	// array (loop l+1 sees loop l's contributions of the same sweep, the
	// way consecutive fissioned loops chain in a compiled program). All
	// loops share the spec's iteration/element extents and strategy; each
	// loop inherits Ind/Contrib unless it carries its own. Loops whose
	// effective indirection contents coincide execute against one shared
	// schedule set — inspected once per distinct content, not once per
	// loop. Multi-loop jobs run native-only, with no chaos and no
	// checkpointing.
	Loops []LoopSpec `json:"loops,omitempty"`

	// Strategy and run length.
	P     int    `json:"p"`
	K     int    `json:"k"`
	Dist  string `json:"dist,omitempty"` // block | cyclic (default cyclic)
	Steps int    `json:"steps,omitempty"`

	// TimeoutMS bounds the job's wall-clock run; 0 means no deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// Engine names the executor. Every job runs on the native rotation
	// engine, so only "" and "native" validate.
	Engine string `json:"engine,omitempty"`

	// Chaos, when non-nil, runs the job under the deterministic fault
	// injector: kernel panics in the contribution function and failed
	// checkpoint writes. The server rejects it unless started with chaos
	// enabled — fault injection is a test instrument, not a tenant-facing
	// feature.
	Chaos *fault.Spec `json:"chaos,omitempty"`

	// CheckpointEvery persists the reduction array and sweep counter every
	// this many sweeps (raw multi-sweep jobs only, and only when the
	// service has a disk directory). A restarted daemon resumes the job
	// from its last checkpoint instead of recomputing from sweep 0.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`

	// ClusterUID identifies one logical job across the fleet: the routing
	// node stamps it before forwarding, and every replay of the job — on
	// the same node after a retry, or on the ring successor after the
	// owner died — carries the same uid. The service dedupes on it (a
	// resubmitted uid attaches to the live job instead of running twice)
	// and seeds replayed jobs from the uid's replicated IRCJ checkpoint
	// when the cluster layer holds one. Empty outside cluster mode.
	ClusterUID string `json:"cluster_uid,omitempty"`

	// keptKey is the base arrays' content key as KeepRoutingKey hashed it;
	// the service reads it through baseKey, so that the node that runs a
	// job hashes its arrays once. It is never encoded: a key from another
	// node is not trusted. A kept key goes stale when the strategy, the
	// extents or the arrays change after it is hashed. Nothing changes the
	// first two after ingress, and the arrays are edited in place only by a
	// session, whose spec never keeps a key.
	keptKey string
}

// IsRaw reports whether the spec is a raw reduction (no named kernel).
func (sp *JobSpec) IsRaw() bool { return sp.Kernel == "" }

// RoutingKey returns the content key the cluster routes this job by. Raw
// jobs key on inspector.ScheduleKey over the base loop — the exact key of
// the schedule-cache entry the job will populate or hit — so consistent
// hashing shards the warm cache naturally: every job with the same
// traversal and strategy lands on the node already holding its schedules.
// Named kernels regenerate their dataset deterministically from
// (dataset, seed), so a cheap literal key stands in for the content hash
// with the same collision-free sharding property.
func (sp *JobSpec) RoutingKey() string {
	if !sp.IsRaw() {
		return fmt.Sprintf("kernel:%s/%s/%d/p%d/k%d/%s",
			sp.Kernel, sp.Dataset, sp.Seed, sp.P, sp.K, strings.ToLower(sp.Dist))
	}
	return inspector.ScheduleKey(sp.config(), sp.Ind...)
}

// KeepRoutingKey returns RoutingKey and, for a raw job, keeps it in the
// spec: it is also the schedule cache key of every loop on the base
// arrays, so the service does not hash them again. It writes the spec:
// call it before the spec is shared with another goroutine.
func (sp *JobSpec) KeepRoutingKey() string {
	if !sp.IsRaw() {
		return sp.RoutingKey()
	}
	return sp.baseKey()
}

// baseKey is a raw job's routing key, the content key of its base arrays:
// the kept key, else a fresh hash, which it keeps.
func (sp *JobSpec) baseKey() string {
	if sp.keptKey == "" {
		sp.keptKey = inspector.ScheduleKey(sp.config(), sp.Ind...)
	}
	return sp.keptKey
}

// config is the inspector configuration every loop of a raw job shares. A
// bad dist falls back to cyclic: only RoutingKey sees unvalidated specs.
func (sp *JobSpec) config() inspector.Config {
	dist, err := sp.dist()
	if err != nil {
		dist = inspector.Cyclic
	}
	return inspector.Config{
		P: sp.P, K: sp.K,
		NumIters: sp.NumIters,
		NumElems: sp.NumElems,
		Dist:     dist,
	}
}

// releaseArrays drops the indirection and weight arrays and keeps every
// scalar. The spec was handed over by value, so the caller still shares the
// ContribSpec pointers and the Loops backing array: they are replaced, not
// written through.
func (sp *JobSpec) releaseArrays() {
	kindOnly := func(c *ContribSpec) *ContribSpec {
		if c == nil {
			return nil
		}
		return &ContribSpec{Kind: c.Kind}
	}
	sp.Ind = nil
	sp.Contrib = kindOnly(sp.Contrib)
	if sp.Loops != nil {
		loops := make([]LoopSpec, len(sp.Loops))
		for l := range loops {
			loops[l].Contrib = kindOnly(sp.Loops[l].Contrib)
		}
		sp.Loops = loops
	}
}

// numLoops returns how many loops a raw job runs per sweep (at least 1:
// a spec without Loops is the single-loop program it always was).
func (sp *JobSpec) numLoops() int {
	if len(sp.Loops) == 0 {
		return 1
	}
	return len(sp.Loops)
}

// loopInd returns loop l's effective indirection arrays: its own when it
// carries some, the spec's base arrays otherwise.
func (sp *JobSpec) loopInd(l int) [][]int32 {
	if len(sp.Loops) > 0 && sp.Loops[l].Ind != nil {
		return sp.Loops[l].Ind
	}
	return sp.Ind
}

// loopContrib returns loop l's effective contribution spec (own or
// inherited).
func (sp *JobSpec) loopContrib(l int) *ContribSpec {
	if len(sp.Loops) > 0 && sp.Loops[l].Contrib != nil {
		return sp.Loops[l].Contrib
	}
	return sp.Contrib
}

// dist parses the distribution name (default cyclic).
func (sp *JobSpec) dist() (inspector.Dist, error) {
	switch strings.ToLower(sp.Dist) {
	case "", "cyclic":
		return inspector.Cyclic, nil
	case "block":
		return inspector.Block, nil
	default:
		return 0, fmt.Errorf("unknown distribution %q", sp.Dist)
	}
}

// steps returns the run length, defaulting to 1.
func (sp *JobSpec) steps() int {
	if sp.Steps <= 0 {
		return 1
	}
	return sp.Steps
}

// Validate rejects malformed specs before admission, so the queue only
// holds runnable work.
func (sp *JobSpec) Validate() error {
	if sp.P < 1 || sp.P > 4096 {
		return fmt.Errorf("p = %d, need 1..4096", sp.P)
	}
	if sp.K < 1 || sp.K > 64 {
		return fmt.Errorf("k = %d, need 1..64", sp.K)
	}
	if sp.Steps < 0 || sp.Steps > 1_000_000 {
		return fmt.Errorf("steps = %d, need 0..1000000", sp.Steps)
	}
	if _, err := sp.dist(); err != nil {
		return err
	}
	switch strings.ToLower(sp.Engine) {
	case "", "native":
	case "distributed":
		return fmt.Errorf("engine %q was removed; jobs run on the native engine", sp.Engine)
	default:
		return fmt.Errorf("unknown engine %q (native)", sp.Engine)
	}
	if sp.Chaos != nil {
		if err := sp.Chaos.Validate(); err != nil {
			return err
		}
		if !sp.IsRaw() {
			return fmt.Errorf("chaos injection supports raw reduction jobs only")
		}
	}
	if sp.CheckpointEvery < 0 {
		return fmt.Errorf("checkpoint_every = %d", sp.CheckpointEvery)
	}
	if len(sp.ClusterUID) > 128 {
		return fmt.Errorf("cluster_uid is %d bytes, max 128", len(sp.ClusterUID))
	}
	if !sp.IsRaw() {
		_, err := kernels.Dataset(sp.Kernel, sp.Dataset)
		return err
	}
	// Raw form.
	if sp.NumElems < 1 {
		return fmt.Errorf("num_elems = %d, need >= 1", sp.NumElems)
	}
	if sp.NumIters < 0 {
		return fmt.Errorf("num_iters = %d", sp.NumIters)
	}
	if len(sp.Loops) == 0 {
		return sp.validateLoop(sp.Ind, sp.Contrib)
	}
	// Multi-loop program: shared extents and strategy, per-loop traversal
	// and contribution. Chained loops run in one pass — no per-loop sweep
	// counter a checkpoint could name.
	if len(sp.Loops) > 8 {
		return fmt.Errorf("multi-loop job has %d loops, max 8", len(sp.Loops))
	}
	if sp.Chaos != nil {
		return fmt.Errorf("multi-loop jobs do not accept chaos specs")
	}
	if sp.CheckpointEvery > 0 {
		return fmt.Errorf("multi-loop jobs do not checkpoint")
	}
	for l := range sp.Loops {
		if err := sp.validateLoop(sp.loopInd(l), sp.loopContrib(l)); err != nil {
			return fmt.Errorf("loop %d: %w", l, err)
		}
	}
	return nil
}

// validateLoop checks one loop's effective indirection arrays and
// contribution spec against the spec's shared extents.
func (sp *JobSpec) validateLoop(ind [][]int32, contrib *ContribSpec) error {
	if len(ind) == 0 {
		return fmt.Errorf("raw job needs at least one indirection array")
	}
	if len(ind) > 16 {
		return fmt.Errorf("raw job has %d indirection arrays, max 16", len(ind))
	}
	for r, a := range ind {
		if len(a) != sp.NumIters {
			return fmt.Errorf("ind[%d] has %d entries, want num_iters = %d", r, len(a), sp.NumIters)
		}
		for i, v := range a {
			if int(v) < 0 || int(v) >= sp.NumElems {
				return fmt.Errorf("ind[%d][%d] = %d outside [0,%d)", r, i, v, sp.NumElems)
			}
		}
	}
	if contrib == nil {
		return fmt.Errorf("raw job needs a contribution spec")
	}
	switch contrib.Kind {
	case "ones":
		if len(contrib.Weights) != 0 {
			return fmt.Errorf(`contrib "ones" takes no weights`)
		}
	case "weights":
		if len(contrib.Weights) != sp.NumIters {
			return fmt.Errorf("contrib weights has %d entries, want %d", len(contrib.Weights), sp.NumIters)
		}
	case "pair":
		if len(ind) != 2 {
			return fmt.Errorf(`contrib "pair" needs exactly 2 indirection arrays, got %d`, len(ind))
		}
		if len(contrib.Weights) != sp.NumIters {
			return fmt.Errorf("contrib weights has %d entries, want %d", len(contrib.Weights), sp.NumIters)
		}
	default:
		return fmt.Errorf("unknown contrib kind %q (ones | weights | pair)", contrib.Kind)
	}
	return nil
}

// contribFor builds loop l's contribution one iteration at a time: the
// independent reference form SequentialRaw runs, sharing no code with the
// data form the executor drives.
func (sp *JobSpec) contribFor(l int) func(p, i int, out []float64) {
	numRef := len(sp.loopInd(l))
	c := sp.loopContrib(l)
	switch c.Kind {
	case "ones":
		return func(_, _ int, out []float64) {
			for r := 0; r < numRef; r++ {
				out[r] = 1
			}
		}
	case "weights":
		w := c.Weights
		return func(_, i int, out []float64) {
			for r := 0; r < numRef; r++ {
				out[r] = w[i]
			}
		}
	default: // "pair"
		w := c.Weights
		return func(_, i int, out []float64) {
			out[0] = w[i]
			out[1] = -w[i]
		}
	}
}

// linearFor is loop l's contribution in the data form the native engine
// folds: iteration it adds coef[r]·weights[it] at reference r, nil weights
// meaning 1 ("ones"), coefficients {1, -1} for "pair" and 1 otherwise.
func (sp *JobSpec) linearFor(l int) (weights, coef []float64) {
	c := sp.loopContrib(l)
	coef = make([]float64, len(sp.loopInd(l)))
	for r := range coef {
		coef[r] = 1
	}
	switch c.Kind {
	case "weights":
		weights = c.Weights
	case "pair":
		weights, coef[1] = c.Weights, -1
	}
	return weights, coef
}

// SequentialRaw computes the reference result of a raw reduction job in
// plain program order — the oracle the service's executor must reproduce.
// When the contributions are exactly representable (integral weights), the
// parallel result is bitwise equal regardless of summation order; otherwise
// it matches within floating-point reassociation error.
func (sp *JobSpec) SequentialRaw() ([]float64, error) {
	if !sp.IsRaw() {
		return nil, fmt.Errorf("service: SequentialRaw on a named-kernel job")
	}
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	x := make([]float64, sp.NumElems)
	for step := 0; step < sp.steps(); step++ {
		for l := 0; l < sp.numLoops(); l++ {
			ind, fn := sp.loopInd(l), sp.contribFor(l)
			scratch := make([]float64, len(ind))
			for i := 0; i < sp.NumIters; i++ {
				fn(0, i, scratch)
				for r := range ind {
					x[ind[r][i]] += scratch[r]
				}
			}
		}
	}
	return x, nil
}

// HashResult returns the hex SHA-256 over the raw little-endian bits of a
// result vector — the cheap cross-process equality check used by the
// client, the CI smoke test, and irredrun -json.
func HashResult(x []float64) string {
	h := sha256.New()
	buf := make([]byte, 0, 8*256)
	for len(x) > 0 {
		n := len(x)
		if n > 256 {
			n = 256
		}
		buf = buf[:0]
		for _, v := range x[:n] {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
		x = x[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// JobStatus is the wire representation of a job.
type JobStatus struct {
	ID           string  `json:"id"`
	State        State   `json:"state"`
	Error        string  `json:"error,omitempty"`
	CacheHit     bool    `json:"cache_hit"`
	ScheduleKey  string  `json:"schedule_key,omitempty"`
	QueuedMS     float64 `json:"queued_ms"`
	RunMS        float64 `json:"run_ms"`
	ResultLen    int     `json:"result_len,omitempty"`
	ResultSHA256 string  `json:"result_sha256,omitempty"`
	// Stack is the recovered goroutine stack of a job that panicked (state
	// failed); empty otherwise.
	Stack string `json:"stack,omitempty"`
	// CheckpointSweep is the last sweep persisted to disk for this job (0
	// when checkpointing is off or nothing was written yet).
	CheckpointSweep int `json:"checkpoint_sweep,omitempty"`
	// Resumed marks a job reconstructed from a checkpoint at daemon start.
	Resumed bool `json:"resumed,omitempty"`
	// Result is the final reduction/state vector: x for mvm, the node state
	// q for euler, positions for moldyn, the reduction array for raw jobs.
	Result []float64 `json:"result,omitempty"`
}

// Job is one submitted reduction with its lifecycle state. All mutable
// fields are guarded by mu; Done is closed exactly once on completion.
type Job struct {
	ID   string
	Spec JobSpec

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu        sync.Mutex
	state     State
	errMsg    string
	stack     []byte // recovered panic stack, failed jobs only
	cacheHit  bool
	key       string
	result    []float64
	resultSum string
	ckSweep   int  // last checkpointed sweep
	resumed   bool // reconstructed from a checkpoint at daemon start
	resumeAt  int  // sweeps already completed before this run
	preempted bool // cancelled by shutdown, not by the user: keep the checkpoint
	seed      []float64
	created   time.Time
	started   time.Time
	finished  time.Time
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel requests cancellation. A queued job is marked cancelled when a
// worker dequeues it; a running job stops at its next phase boundary.
func (j *Job) Cancel() { j.cancel() }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Status snapshots the job for the wire; includeResult controls whether the
// (possibly large) result vector is attached.
func (j *Job) Status(includeResult bool) JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:              j.ID,
		State:           j.state,
		Error:           j.errMsg,
		CacheHit:        j.cacheHit,
		ScheduleKey:     j.key,
		ResultLen:       len(j.result),
		ResultSHA256:    j.resultSum,
		Stack:           string(j.stack),
		CheckpointSweep: j.ckSweep,
		Resumed:         j.resumed,
	}
	if !j.started.IsZero() {
		st.QueuedMS = float64(j.started.Sub(j.created)) / float64(time.Millisecond)
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		st.RunMS = float64(end.Sub(j.started)) / float64(time.Millisecond)
	}
	if includeResult && j.state == StateDone {
		st.Result = j.result
	}
	return st
}
