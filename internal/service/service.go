// Package service is the reduction-as-a-service layer: a job-oriented
// server over the paper's execution strategy. It turns the paper's
// amortization economics — LightInspector runs once, its schedules serve
// ~100 executor iterations, and the communication schedule is independent
// of the values flowing through — into a long-running daemon that caches
// schedules across *requests*: any job arriving with indirection arrays
// and strategy already seen reuses the cached P-processor schedule set and
// goes straight to execution on the native engine.
//
// The package has four parts: the schedule Cache (LRU + optional disk
// persistence via inspector/serialize), the executor pool (bounded
// concurrency, bounded admission queue, per-job context cancellation
// plumbed into the rts native run loops), the HTTP API (http.go, exposed by
// cmd/irredd), and the client (subpackage client) used by tests and
// irredrun -server.
package service

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"irred/internal/fault"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/obs"
	"irred/internal/rts"
)

// ErrChaosDisabled is returned for jobs carrying a chaos spec when the
// service was not started with chaos enabled.
var ErrChaosDisabled = errors.New("service: chaos injection disabled (start the daemon with -chaos)")

// ShutdownGrace is how long graceful HTTP shutdown waits for in-flight
// requests before giving up (daemon and core.Serve both honour it).
const ShutdownGrace = 10 * time.Second

// Options configures a Service. Zero values pick serving-friendly defaults.
type Options struct {
	// Workers is the executor pool size: at most this many reductions run
	// concurrently. Default: GOMAXPROCS/2, at least 1.
	Workers int
	// QueueLen bounds the admission queue; submissions beyond it are shed
	// with ErrQueueFull. Default 64.
	QueueLen int
	// CacheEntries bounds the in-memory schedule cache. Default 128.
	CacheEntries int
	// CacheDir, when non-empty, persists cached schedules to disk and warms
	// the cache from it on startup.
	CacheDir string
	// MaxFinished bounds how many terminal jobs are retained for status
	// queries; older ones are forgotten. Default 1024.
	MaxFinished int
	// TraceSpans bounds the phase-level trace ring exposed at /debug/trace
	// (oldest spans are overwritten). 0 picks obs.DefaultCapacity; a
	// negative value disables tracing entirely.
	TraceSpans int
	// AllowChaos accepts job specs carrying a fault.Spec. Off by default:
	// fault injection is a test instrument, and a tenant must not be able
	// to panic a shared daemon's jobs unless it was started for that.
	AllowChaos bool
	// CheckpointEvery is the default checkpoint interval (sweeps) for raw
	// multi-sweep jobs that do not set their own; 0 disables checkpointing
	// for jobs that do not ask for it. Checkpoints need CacheDir.
	CheckpointEvery int
	// MaxSessions bounds the resident streaming sessions (each keeps a
	// cloned schedule set and its indirection arrays in memory). Beyond it
	// the least recently used session is evicted; its next request answers
	// 410 Gone. Default 64.
	MaxSessions int
	// SessionFallbackFrac is the delta fraction (changed iterations /
	// total) above which a session re-inspects from scratch instead of
	// updating incrementally. Default DefaultFallbackFrac.
	SessionFallbackFrac float64

	// Replicate, when set, receives every IRCJ checkpoint frame written
	// for a job carrying a ClusterUID, along with the job's routing key.
	// The cluster layer ships the frame to the key's ring successor so a
	// failover replay resumes mid-job instead of recomputing from sweep 0.
	// Called off the job's hot path; best effort.
	Replicate func(uid, routingKey string, frame []byte)

	// FetchReplica, when set, is consulted for a submitted ClusterUID with
	// no local checkpoint: a replicated IRCJ frame seeds the job the same
	// way a local checkpoint file would. Returns nil when the uid is
	// unknown.
	FetchReplica func(uid string) []byte
}

func (o Options) withDefaults() Options {
	if o.Workers < 1 {
		o.Workers = runtime.GOMAXPROCS(0) / 2
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueLen < 1 {
		o.QueueLen = 64
	}
	if o.CacheEntries < 1 {
		o.CacheEntries = 128
	}
	if o.MaxFinished < 1 {
		o.MaxFinished = 1024
	}
	return o
}

// Service accepts reduction jobs, serves schedules from the cache, and
// executes on the native engine under bounded concurrency.
type Service struct {
	opt      Options
	cache    *Cache
	pool     *pool
	met      *metrics
	trace    *obs.Tracer
	sessions *sessionStore
	start    time.Time
	jobsDir  string // job checkpoint directory, "" when persistence is off

	draining atomic.Bool // flips /readyz during graceful shutdown

	mu       sync.Mutex
	jobs     map[string]*Job
	byUID    map[string]*Job // live jobs by ClusterUID (dedupe of replayed forwards)
	finished []string        // terminal job ids, oldest first, for pruning
	nextID   int64
	closed   bool
}

// New builds a Service, starts its worker pool, and — when a disk
// directory is configured — re-admits every job checkpoint found on disk,
// so work interrupted by a crash or SIGTERM resumes from its last
// checkpointed sweep instead of being lost.
func New(opt Options) (*Service, error) {
	opt = opt.withDefaults()
	cache, err := NewCache(opt.CacheEntries, opt.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Service{
		opt:      opt,
		cache:    cache,
		met:      newMetrics(),
		sessions: newSessionStore(opt.MaxSessions, opt.SessionFallbackFrac),
		start:    time.Now(),
		jobs:     make(map[string]*Job),
		byUID:    make(map[string]*Job),
	}
	if opt.TraceSpans >= 0 {
		s.trace = obs.New(opt.TraceSpans)
	}
	if opt.CacheDir != "" {
		s.jobsDir = filepath.Join(opt.CacheDir, ckJobsDir)
		if err := os.MkdirAll(s.jobsDir, 0o755); err != nil {
			return nil, fmt.Errorf("service: jobs dir: %w", err)
		}
	}
	s.pool = newPool(opt.Workers, opt.QueueLen, s.runJob, s.jobPanicked)
	s.resumeCheckpointed()
	return s, nil
}

// resumeCheckpointed re-admits the checkpointed jobs left behind by the
// previous process. Each resumed job gets a fresh id (the old files are
// consumed), seeds its reduction array from the stored vector, and runs
// only the remaining sweeps.
func (s *Service) resumeCheckpointed() {
	if s.jobsDir == "" {
		return
	}
	cks := scanJobCheckpoints(s.jobsDir)
	for old := range cks {
		os.Remove(ckPath(s.jobsDir, old))
	}
	for _, ck := range cks {
		if _, err := s.submitJob(ck.Spec, ck); err != nil {
			continue // e.g. the queue is smaller than the backlog: drop
		}
		s.trace.Event("job/resume", -1, -1, ck.Sweep, -1)
	}
}

// Cache exposes the schedule cache (stats, warming).
func (s *Service) Cache() *Cache { return s.cache }

// Trace exposes the phase-level span tracer (nil when disabled). Every
// executed job records inspector, per-phase compute/copy/wait, update and
// whole-job spans into it.
func (s *Service) Trace() *obs.Tracer { return s.trace }

// Submit validates a spec and enqueues it. It returns ErrQueueFull when
// the admission queue is at capacity and ErrClosed after shutdown.
func (s *Service) Submit(spec JobSpec) (*Job, error) {
	return s.submitJob(spec, nil)
}

// submitJob admits a job, optionally seeded from a checkpoint (resume).
func (s *Service) submitJob(spec JobSpec, ck *jobCheckpoint) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, fmt.Errorf("service: invalid job: %w", err)
	}
	if spec.Chaos != nil && !s.opt.AllowChaos {
		return nil, ErrChaosDisabled
	}
	// A replayed cluster job may already hold a replicated mid-run
	// checkpoint here (pushed by the now-dead owner): seed from it so the
	// failover resumes at the last replicated sweep instead of sweep 0. A
	// local checkpoint (restart resume) takes precedence.
	if ck == nil && spec.ClusterUID != "" && s.opt.FetchReplica != nil && spec.IsRaw() {
		if raw := s.opt.FetchReplica(spec.ClusterUID); raw != nil {
			rck, err := decodeJobCheckpoint(raw, "replica:"+spec.ClusterUID)
			if err == nil && rck.Spec.ClusterUID == spec.ClusterUID &&
				rck.Spec.RoutingKey() == spec.RoutingKey() {
				ck = rck
				s.trace.Event("job/replica-seed", -1, -1, rck.Sweep, -1)
			}
		}
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	// Cluster dedupe: a retried or failed-over forward of a job already
	// live (or already finished) here attaches to the existing job rather
	// than running it twice. A failed or cancelled prior run does not
	// satisfy the replay — it is replaced.
	if spec.ClusterUID != "" {
		if prev := s.byUID[spec.ClusterUID]; prev != nil {
			switch prev.State() {
			case StateQueued, StateRunning, StateDone:
				s.mu.Unlock()
				return prev, nil
			}
		}
	}
	s.nextID++
	id := fmt.Sprintf("j%06d", s.nextID)
	var ctx context.Context
	var cancel context.CancelFunc
	if spec.TimeoutMS > 0 {
		ctx, cancel = context.WithTimeout(context.Background(), time.Duration(spec.TimeoutMS)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &Job{
		ID:      id,
		Spec:    spec,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		state:   StateQueued,
		created: time.Now(),
	}
	if ck != nil {
		j.resumed = true
		j.resumeAt = ck.Sweep
		j.ckSweep = ck.Sweep
		j.seed = ck.X
	}
	s.jobs[id] = j
	if spec.ClusterUID != "" {
		s.byUID[spec.ClusterUID] = j
	}
	s.mu.Unlock()

	if ck != nil && s.jobsDir != "" {
		// Re-persist the checkpoint under the job's new id before it can
		// run: a daemon TERM'd again — even before this job leaves the
		// queue — must still find a resumable file on the next start.
		writeJobCheckpoint(ckPath(s.jobsDir, id), ck, nil)
	}

	if err := s.pool.submit(j); err != nil {
		s.mu.Lock()
		delete(s.jobs, id)
		if spec.ClusterUID != "" && s.byUID[spec.ClusterUID] == j {
			delete(s.byUID, spec.ClusterUID)
		}
		s.mu.Unlock()
		cancel()
		s.met.shedJob()
		return nil, err
	}
	s.met.submittedJob()
	return j, nil
}

// Job looks up a job by id.
func (s *Service) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel requests cancellation of a job; it reports whether the id exists.
func (s *Service) Cancel(id string) bool {
	j, ok := s.Job(id)
	if ok {
		j.Cancel()
	}
	return ok
}

// BeginDrain flips /readyz to draining: load balancers stop routing new
// work here while in-flight jobs finish. It does not stop admissions —
// that is Close's job — so requests already in flight still land.
func (s *Service) BeginDrain() {
	s.draining.Store(true)
}

// Ready reports whether the service should receive new traffic.
func (s *Service) Ready() bool {
	if s.draining.Load() {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed
}

// jobPanicked is the pool's panic supervisor: a panic that escaped a job
// run is recovered here, the job is marked failed with the stack attached,
// and the worker goroutine survives to take the next job.
func (s *Service) jobPanicked(j *Job, v any, stack []byte) {
	s.trace.Event("job/panic", -1, -1, -1, -1)
	j.mu.Lock()
	j.stack = stack
	from := j.state
	j.mu.Unlock()
	s.finishJob(j, from, nil, "", false, fmt.Errorf("service: job panicked: %v", v))
}

// Close stops admissions, cancels outstanding jobs, and waits for workers.
func (s *Service) Close() {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	jobs := make([]*Job, 0, len(s.jobs))
	for _, j := range s.jobs {
		jobs = append(jobs, j)
	}
	s.mu.Unlock()
	for _, j := range jobs {
		// Shutdown preemption is not user cancellation: a preempted job's
		// checkpoint must survive so the next daemon resumes it.
		j.mu.Lock()
		j.preempted = true
		j.mu.Unlock()
		j.Cancel()
	}
	// Sessions are memory-only and die with the process; marking them
	// closed makes any racing delta fail with 410 instead of mutating a
	// schedule nobody will ever serve again.
	for _, sess := range s.sessions.all() {
		sess.markClosed()
	}
	s.pool.close()
}

// Metrics snapshots the service counters.
func (s *Service) Metrics() Snapshot {
	jobs, busy, lat := s.met.snapshot()
	cs := s.cache.Stats()
	depth, peak, enqueued := s.pool.queueStats()
	return Snapshot{
		UptimeSec:        time.Since(s.start).Seconds(),
		Jobs:             jobs,
		Cache:            cs,
		CacheHitsTotal:   cs.Hits,
		CacheMissesTotal: cs.Misses,
		CacheHitRatio:    cs.HitRatio(),
		QueueDepth:       depth,
		QueuePeak:        peak,
		QueueEnqueued:    enqueued,
		Workers:          s.opt.Workers,
		WorkersBusy:      busy,
		Latency:          lat,
		Sessions:         s.sessions.metrics(),
	}
}

// runJob is the worker entry: it drives one job through its lifecycle.
func (s *Service) runJob(j *Job) {
	// A job cancelled (or expired) while queued completes immediately,
	// without charging a worker.
	if err := j.ctx.Err(); err != nil {
		s.finishJob(j, StateQueued, nil, "", false, err)
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	s.met.startJob()

	kind := j.Spec.Kernel
	if kind == "" {
		kind = "raw"
	}
	js := s.trace.Begin()
	result, hit, key, err := s.execute(j)
	s.trace.End("job/"+kind, -1, -1, -1, -1, js)
	j.mu.Lock()
	j.key = key
	j.cacheHit = hit
	j.mu.Unlock()
	s.finishJob(j, StateRunning, result, key, hit, err)
}

// finishJob drives a job to its terminal state and releases its context.
func (s *Service) finishJob(j *Job, from State, result []float64, key string, hit bool, err error) {
	to := StateDone
	var msg string
	switch {
	case err == nil:
	case j.ctx.Err() != nil:
		// Cancellation or deadline beat (or caused) the failure.
		to = StateCancelled
		msg = j.ctx.Err().Error()
	default:
		to = StateFailed
		msg = err.Error()
	}
	j.mu.Lock()
	switch j.state {
	case StateDone, StateFailed, StateCancelled:
		// Already terminal: a panic after completion (or a double finish)
		// must not close the done channel twice.
		j.mu.Unlock()
		return
	}
	j.state = to
	j.errMsg = msg
	if to == StateDone {
		j.result = result
		j.resultSum = HashResult(result)
	}
	// A terminal job is kept for status queries and uid dedupe, which read
	// the spec's scalars; its arrays are most of a raw job's memory.
	j.Spec.releaseArrays()
	j.finished = time.Now()
	total := j.finished.Sub(j.created)
	ckSweep := j.ckSweep
	preempted := j.preempted
	j.mu.Unlock()
	j.cancel() // release the context's timer resources
	// Counted before it is signalled: whoever sees the job done sees it in
	// the metrics too.
	s.met.finishJob(from, to, total)
	if s.jobsDir != "" && ckSweep > 0 && !(preempted && to == StateCancelled) {
		// A terminal job's checkpoint is dead weight: done jobs are done,
		// and failed/cancelled jobs would only repeat their fate on resume.
		// The one exception is shutdown preemption — that checkpoint is the
		// whole point, it is how the next daemon picks the job back up.
		// Removed before the job is signalled, so a waiter never finds it.
		os.Remove(ckPath(s.jobsDir, j.ID))
	}
	close(j.done)
	s.pruneFinished(j.ID)
}

// pruneFinished retains at most MaxFinished terminal jobs.
func (s *Service) pruneFinished(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, id)
	for len(s.finished) > s.opt.MaxFinished {
		old := s.finished[0]
		s.finished = s.finished[1:]
		if j := s.jobs[old]; j != nil && j.Spec.ClusterUID != "" && s.byUID[j.Spec.ClusterUID] == j {
			delete(s.byUID, j.Spec.ClusterUID)
		}
		delete(s.jobs, old)
	}
}

// schedules serves the loop's schedule set from the cache under key, the
// loop's inspector.ScheduleKey as its caller hashed it, running the
// LightInspector only on a miss. Concurrent misses on the same key may both
// inspect; the duplicate Put is harmless (entries are content-determined).
func (s *Service) schedules(l *rts.Loop, key string) ([]*inspector.Schedule, bool, error) {
	l.Trace = s.trace
	if scheds, ok := s.cache.Get(key); ok {
		s.trace.Event("cache/hit", -1, -1, -1, -1)
		return scheds, true, nil
	}
	s.trace.Event("cache/miss", -1, -1, -1, -1)
	scheds, err := l.Schedules()
	if err != nil {
		return nil, false, err
	}
	// A persistence failure degrades to in-memory-only; the job itself
	// proceeds. (Put inserts in memory before touching disk.)
	_ = s.cache.Put(key, scheds)
	return scheds, false, nil
}

// execute obtains the job's schedules through the cache and runs it on the
// native engine under the job's context.
func (s *Service) execute(j *Job) (result []float64, hit bool, key string, err error) {
	if j.Spec.IsRaw() {
		return s.executeRaw(j)
	}
	return s.executeNamed(j)
}

// executeRaw serves every loop of a raw job its schedule set and runs the
// program through runRaw. Schedule sets are content-addressed: loops whose
// effective indirection contents coincide share one set, inspected once and
// found again in the job-local slot map or the service cache. That is the
// serving side of the paper's amortization argument: inspection is paid per
// distinct traversal, not per loop. A hit on any loop makes the job a hit,
// and the job's key is its first loop's.
func (s *Service) executeRaw(j *Job) (result []float64, hit bool, key string, err error) {
	spec := j.Spec // the worker's own copy, free to keep the base key
	cfg := spec.config()
	sets := make([][]*inspector.Schedule, spec.numLoops())
	slots := make(map[string][]*inspector.Schedule, len(sets))
	for li := range sets {
		var k string
		if len(spec.Loops) > 0 && spec.Loops[li].Ind != nil {
			k = inspector.ScheduleKey(cfg, spec.Loops[li].Ind...)
		} else {
			// Kept by the ingress, or hashed here once for every loop
			// on the base arrays and the checkpoint replicas.
			k = spec.baseKey()
		}
		if key == "" {
			key = k
		}
		scheds, ok := slots[k]
		if ok {
			s.trace.Event("job/reuse", -1, -1, li, -1)
		} else {
			var h bool
			scheds, h, err = s.schedules(&rts.Loop{Cfg: cfg, Mode: rts.Reduce, Ind: spec.loopInd(li)}, k)
			if err != nil {
				return nil, hit, key, err
			}
			hit = hit || h
			slots[k] = scheds
		}
		sets[li] = scheds
	}
	result, err = s.runRaw(j.ctx, &spec, sets, j)
	return result, hit, key, err
}

// runRaw is the one place a raw program becomes running engines: one
// Native per loop over that loop's schedule set, all sharing one reduction
// array and the service tracer. Each sweep runs the loops in order, so loop
// l+1 sees loop l's contributions of the same sweep, the way consecutive
// fissioned loops chain in a compiled program; a single loop runs each
// checkpoint chunk as one RunContext call.
//
// j is the job being run, nil for a session. A job brings its resume point,
// its checkpoints and its chaos injector; validation keeps all three to
// single-loop jobs.
func (s *Service) runRaw(ctx context.Context, spec *JobSpec, sets [][]*inspector.Schedule, j *Job) ([]float64, error) {
	cfg := spec.config()
	x := make([]float64, cfg.NumElems)
	natives := make([]*rts.Native, len(sets))
	for li, scheds := range sets {
		n, err := rts.NewNativeFrom(&rts.Loop{Cfg: cfg, Mode: rts.Reduce, Ind: spec.loopInd(li), Trace: s.trace}, scheds)
		if err != nil {
			return nil, err
		}
		n.Weights, n.Coef = spec.linearFor(li)
		n.X = x
		natives[li] = n
	}

	steps := spec.steps()
	done, every := 0, 0 // sweeps already run; checkpoint interval, 0 for none
	var inj *fault.Injector
	var routeKey string
	if j != nil {
		if spec.Chaos != nil {
			inj = fault.New(*spec.Chaos)
		}
		if every = spec.CheckpointEvery; every <= 0 {
			every = s.opt.CheckpointEvery
		}
		if s.jobsDir == "" || steps <= 1 || len(natives) > 1 {
			every = 0
		}
		if every > 0 && spec.ClusterUID != "" && s.opt.Replicate != nil {
			routeKey = spec.baseKey()
		}
		// Resume state installed by submitJob for checkpointed jobs.
		j.mu.Lock()
		resumeAt, seed := j.resumeAt, j.seed
		j.mu.Unlock()
		if resumeAt < steps && (seed == nil || len(seed) == len(x)) {
			done = resumeAt
			copy(x, seed)
		}
	}

	// Chaos jobs run the data form as a contribution block, so that kernel
	// panics are caught in the block itself (a panic on an engine goroutine
	// would crash the process) and become a cancelled run plus a job
	// failure with the stack. The injector rolls per (processor,
	// iteration), so the block asks once per iteration.
	runCtx := ctx
	var pmu sync.Mutex
	var panicVal any
	var panicStack []byte
	if inj != nil {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithCancel(ctx)
		defer cancel()
		for _, n := range natives {
			base := rts.LinearBlock(n.Weights, n.Coef)
			n.ContribBlock = func(p int, iters []int32, out []float64) {
				defer func() {
					if r := recover(); r != nil {
						pmu.Lock()
						if panicVal == nil {
							panicVal, panicStack = r, debug.Stack()
							cancel()
						}
						pmu.Unlock()
						clear(out)
					}
				}()
				for _, it := range iters {
					inj.KernelPanic(p, int(it))
				}
				base(p, iters, out)
			}
		}
	}

	for done < steps {
		chunk := steps - done
		if every > 0 && chunk > every {
			chunk = every
		}
		var err error
		if len(natives) == 1 {
			err = natives[0].RunContext(runCtx, chunk)
		} else {
			for step := 0; step < chunk && err == nil; step++ {
				for _, n := range natives {
					if err = n.RunContext(runCtx, 1); err != nil {
						break
					}
				}
			}
		}
		pmu.Lock()
		pv, ps := panicVal, panicStack
		pmu.Unlock()
		if pv != nil {
			j.mu.Lock()
			j.stack = ps
			j.mu.Unlock()
			return nil, fmt.Errorf("service: kernel panicked: %v", pv)
		}
		if err != nil {
			return nil, err
		}
		done += chunk
		if every > 0 && done < steps {
			s.checkpoint(j, routeKey, done, x, inj)
		}
	}
	return x, nil
}

// checkpoint persists a job's reduction array after sweep. A cluster job
// (routeKey set) also ships the frame through the Replicate hook to the
// key's ring successor, so a failover resumes mid-job although this node's
// disk dies with it. A failed write loses a resume point, never the job.
func (s *Service) checkpoint(j *Job, routeKey string, sweep int, x []float64, inj *fault.Injector) {
	cs := s.trace.Begin()
	frame, err := saveJobCheckpoint(ckPath(s.jobsDir, j.ID), &jobCheckpoint{Spec: j.Spec, Sweep: sweep, X: x}, inj)
	s.trace.End(obs.SpanCheckpoint, -1, -1, sweep, -1, cs)
	if err != nil {
		s.trace.Event("checkpoint/fail", -1, -1, sweep, -1)
		return
	}
	j.mu.Lock()
	j.ckSweep = sweep
	j.mu.Unlock()
	if routeKey != "" {
		s.opt.Replicate(j.Spec.ClusterUID, routeKey, frame)
	}
}

// executeNamed runs a named-kernel job on the native engine.
func (s *Service) executeNamed(j *Job) (result []float64, hit bool, key string, err error) {
	spec := &j.Spec
	dist, err := spec.dist()
	if err != nil {
		return nil, false, "", err
	}
	w, err := kernels.Open(spec.Kernel, spec.Dataset, spec.Seed)
	if err != nil {
		return nil, false, "", err
	}
	l := w.Loop(spec.P, spec.K, dist)
	key = inspector.ScheduleKey(l.Cfg, l.Ind...)
	scheds, hit, err := s.schedules(l, key)
	if err != nil {
		return nil, hit, key, err
	}
	n, result, err := w.NewNativeFrom(scheds, spec.P, spec.K, dist)
	if err != nil {
		return nil, hit, key, err
	}
	n.Trace = s.trace
	if err := n.RunContext(j.ctx, spec.steps()); err != nil {
		return nil, hit, key, err
	}
	return result, hit, key, nil
}
