package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"irred/internal/inspector"
	"irred/internal/obs"
	"irred/internal/rts"
)

// This file is the session store: the streaming half of the service. A
// one-shot job pays the LightInspector (or a cache hit) every submission;
// a session pays it once, keeps a private clone of the schedule set
// resident, and then absorbs sparse indirection-array deltas through
// Schedule.Update — O(changed iterations) instead of O(problem). When a
// delta rewrites too much of the problem for the incremental path to win,
// the session falls back to a full re-inspection; the threshold is the
// measured crossover from the adaptive sweep cells (EXPERIMENTS.md), not
// a guess.
//
// Sessions are deliberately ephemeral: they live in memory, are evicted
// LRU beyond MaxSessions, and do not survive a daemon restart. Serving a
// schedule that might be stale would silently corrupt every later delta,
// so an unknown, evicted, closed, or restart-lost session answers 410
// Gone — the client reopens and replays from its current base state.

var (
	// ErrSessionGone is returned for session ids this daemon does not hold:
	// never opened here, evicted, explicitly closed, or lost to a restart.
	ErrSessionGone = errors.New("service: session gone (evicted, closed, or daemon restarted)")
	// ErrSessionBusy is returned when a delta arrives while another delta
	// for the same session is still being applied. Deltas mutate the
	// resident schedule in place, so they serialize; a concurrent client
	// gets 409 and retries rather than corrupting the session.
	ErrSessionBusy = errors.New("service: session busy applying another delta")
)

// DefaultFallbackFrac is the delta fraction beyond which a session
// re-inspects from scratch instead of updating incrementally. The
// adaptive sweep (bench/BENCH_2026-08-08_adaptive.json) measures the
// incremental-vs-full crossover at roughly 40% of iterations changed per
// step (incremental is 31-39x faster at 1%, ~2.3x at 20%, ~1.3x at 35%,
// and loses at 50%); 0.25 keeps at least a ~2x win on every measured cell
// while leaving margin for Update's per-iteration constant.
const DefaultFallbackFrac = 0.25

// Session is one resident streaming reduction: the base job spec (whose
// Ind arrays track every applied delta), a session-owned clone of the
// schedule set, and the incremental/full accounting.
type Session struct {
	ID string

	// gate serializes delta application (capacity-1 semaphore; TryLock
	// semantics so a concurrent submitter is refused, not queued).
	gate chan struct{}

	mu       sync.Mutex
	spec     JobSpec
	scheds   []*inspector.Schedule
	el       *list.Element // position in the store's LRU list
	closed   bool
	cacheHit bool
	key      string

	deltas, incr, full int64
	lastFrac           float64
	lastIncr           bool
	inspectMS, runMS   float64
	resultSHA          string
	result             []float64
}

// SessionStatus is the wire representation of a session after open, after
// a delta, or on GET.
type SessionStatus struct {
	ID string `json:"id"`
	// Deltas counts applied deltas; Incremental and Full split them by
	// which re-inspection path each took (the open itself counts in
	// neither).
	Deltas      int64 `json:"deltas"`
	Incremental int64 `json:"incremental"`
	Full        int64 `json:"full"`
	// FallbackFrac is the threshold, DefaultFallbackFrac; LastFrac the
	// fraction of iterations the most recent delta changed; LastIncremental
	// whether it stayed on the incremental path.
	FallbackFrac    float64 `json:"fallback_frac"`
	LastFrac        float64 `json:"last_frac,omitempty"`
	LastIncremental bool    `json:"last_incremental,omitempty"`
	// CacheHit and ScheduleKey describe the base schedule build at open.
	CacheHit    bool   `json:"cache_hit"`
	ScheduleKey string `json:"schedule_key,omitempty"`
	// InspectMS is the schedule maintenance cost of the last operation
	// (clone+index at open, Update or re-inspection per delta); RunMS the
	// reduction run that followed it.
	InspectMS    float64   `json:"inspect_ms"`
	RunMS        float64   `json:"run_ms"`
	ResultLen    int       `json:"result_len,omitempty"`
	ResultSHA256 string    `json:"result_sha256,omitempty"`
	Result       []float64 `json:"result,omitempty"`
}

// status snapshots the session; includeResult attaches the (possibly
// large) result vector.
func (sess *Session) status(includeResult bool) *SessionStatus {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	st := &SessionStatus{
		ID:              sess.ID,
		Deltas:          sess.deltas,
		Incremental:     sess.incr,
		Full:            sess.full,
		FallbackFrac:    DefaultFallbackFrac,
		LastFrac:        sess.lastFrac,
		LastIncremental: sess.lastIncr,
		CacheHit:        sess.cacheHit,
		ScheduleKey:     sess.key,
		InspectMS:       sess.inspectMS,
		RunMS:           sess.runMS,
		ResultLen:       len(sess.result),
		ResultSHA256:    sess.resultSHA,
	}
	if includeResult {
		st.Result = append([]float64(nil), sess.result...)
	}
	return st
}

// sessionStore holds the resident sessions with LRU eviction and the
// cumulative counters surfaced at /metrics.
type sessionStore struct {
	mu     sync.Mutex
	max    int
	byID   map[string]*Session
	lru    *list.List // front = most recently used
	nextID int64

	opened, closed, evicted int64
	deltas, incrN, fullN    int64
}

func newSessionStore(max int) *sessionStore {
	if max < 1 {
		max = 64
	}
	return &sessionStore{
		max:  max,
		byID: make(map[string]*Session),
		lru:  list.New(),
	}
}

// SessionMetrics is the /metrics sessions block.
type SessionMetrics struct {
	Live    int   `json:"live"`
	Opened  int64 `json:"opened"`
	Closed  int64 `json:"closed"`
	Evicted int64 `json:"evicted"`
	// DeltasApplied counts successfully applied deltas; Incremental vs
	// FullReinspects split them by path, and IncrementalRatio is the
	// fraction the resident schedule absorbed without re-inspection — the
	// amortization the session store exists to deliver.
	DeltasApplied    int64   `json:"deltas_applied"`
	Incremental      int64   `json:"incremental_updates"`
	FullReinspects   int64   `json:"full_reinspects"`
	IncrementalRatio float64 `json:"incremental_ratio"`
}

func (st *sessionStore) metrics() SessionMetrics {
	st.mu.Lock()
	defer st.mu.Unlock()
	m := SessionMetrics{
		Live: len(st.byID), Opened: st.opened, Closed: st.closed, Evicted: st.evicted,
		DeltasApplied: st.deltas, Incremental: st.incrN, FullReinspects: st.fullN,
	}
	if st.deltas > 0 {
		m.IncrementalRatio = float64(st.incrN) / float64(st.deltas)
	}
	return m
}

// get looks a session up and marks it most recently used.
func (st *sessionStore) get(id string) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.byID[id]
	if ok {
		st.lru.MoveToFront(sess.el)
	}
	return sess, ok
}

// insert admits a session, evicting from the LRU tail to stay within max.
func (st *sessionStore) insert(sess *Session) (evicted []*Session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.nextID++
	sess.ID = fmt.Sprintf("s%06d", st.nextID)
	sess.el = st.lru.PushFront(sess)
	st.byID[sess.ID] = sess
	st.opened++
	for len(st.byID) > st.max {
		back := st.lru.Back()
		old := back.Value.(*Session)
		st.lru.Remove(back)
		delete(st.byID, old.ID)
		st.evicted++
		evicted = append(evicted, old)
	}
	return evicted
}

// remove drops a session (explicit close). Reports whether it existed.
func (st *sessionStore) remove(id string) (*Session, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sess, ok := st.byID[id]
	if !ok {
		return nil, false
	}
	st.lru.Remove(sess.el)
	delete(st.byID, id)
	st.closed++
	return sess, true
}

// drop removes a session that failed mid-delta (fail closed: later
// requests see 410, never a half-updated schedule).
func (st *sessionStore) drop(sess *Session) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, ok := st.byID[sess.ID]; ok {
		st.lru.Remove(sess.el)
		delete(st.byID, sess.ID)
		st.closed++
	}
}

// all snapshots the resident sessions (shutdown).
func (st *sessionStore) all() []*Session {
	st.mu.Lock()
	defer st.mu.Unlock()
	out := make([]*Session, 0, len(st.byID))
	for _, sess := range st.byID {
		out = append(out, sess)
	}
	return out
}

func (st *sessionStore) countDelta(incremental bool) {
	st.mu.Lock()
	st.deltas++
	if incremental {
		st.incrN++
	} else {
		st.fullN++
	}
	st.mu.Unlock()
}

// markClosed flags a session so racing holders of the pointer fail
// instead of serving a stale schedule.
func (sess *Session) markClosed() {
	sess.mu.Lock()
	sess.closed = true
	sess.mu.Unlock()
}

// validateSessionSpec restricts sessions to the shapes the incremental
// path supports: raw reductions on the native engine.
func validateSessionSpec(spec *JobSpec) error {
	if !spec.IsRaw() {
		return fmt.Errorf("service: sessions accept raw reduction jobs only (named kernels regenerate their data per job)")
	}
	return spec.Validate()
}

// OpenSession admits a streaming session: the base schedules are served
// through the shared cache, deep-cloned into session ownership (cache
// entries are immutable shared pointers — Update on one would corrupt
// every concurrent reader), indexed for incremental updates, and the base
// reduction is run once so the client gets a verifiable baseline.
func (s *Service) OpenSession(ctx context.Context, spec JobSpec) (*SessionStatus, error) {
	if err := validateSessionSpec(&spec); err != nil {
		return nil, err
	}
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed || s.draining.Load() {
		return nil, ErrClosed
	}

	// The session mutates its indirection arrays on every delta; the
	// submitted spec (decoded per request over HTTP, but shared when the
	// store is driven in-process) must stay untouched.
	ind := make([][]int32, len(spec.Ind))
	for r := range spec.Ind {
		ind[r] = append([]int32(nil), spec.Ind[r]...)
	}
	spec.Ind = ind

	l := &rts.Loop{Cfg: spec.config(), Mode: rts.Reduce, Ind: spec.Ind}
	t0 := time.Now()
	key := inspector.ScheduleKey(l.Cfg, l.Ind...)
	base, hit, err := s.schedules(l, key)
	if err != nil {
		return nil, err
	}
	scheds := inspector.CloneSchedules(base)
	for _, sc := range scheds {
		sc.BeginIncremental()
	}
	inspectMS := float64(time.Since(t0)) / 1e6

	sess := &Session{
		gate:      make(chan struct{}, 1),
		spec:      spec,
		scheds:    scheds,
		cacheHit:  hit,
		key:       key,
		inspectMS: inspectMS,
	}
	if err := s.reduceSession(ctx, sess); err != nil {
		return nil, err
	}
	for _, old := range s.sessions.insert(sess) {
		old.markClosed()
		s.trace.Event("session/evict", -1, -1, -1, -1)
	}
	s.trace.Event("session/open", -1, -1, -1, -1)
	return sess.status(true), nil
}

// GetSession returns a session's status; ErrSessionGone for unknown ids.
func (s *Service) GetSession(id string, includeResult bool) (*SessionStatus, error) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return nil, ErrSessionGone
	}
	return sess.status(includeResult), nil
}

// CloseSession removes a session explicitly.
func (s *Service) CloseSession(id string) error {
	sess, ok := s.sessions.remove(id)
	if !ok {
		return ErrSessionGone
	}
	sess.markClosed()
	s.trace.Event("session/close", -1, -1, -1, -1)
	return nil
}

// ApplyDelta applies one sparse indirection revision to a session:
// validate, mutate the resident arrays, revise the schedules — Update
// (incremental, O(changed)) below the fallback threshold, full
// re-inspection above it — and re-run the reduction so the response
// carries a result the client can verify against its own oracle.
func (s *Service) ApplyDelta(ctx context.Context, id string, d *Delta, includeResult bool) (*SessionStatus, error) {
	sess, ok := s.sessions.get(id)
	if !ok {
		return nil, ErrSessionGone
	}
	select {
	case sess.gate <- struct{}{}:
	default:
		return nil, fmt.Errorf("%w (session %s)", ErrSessionBusy, id)
	}
	defer func() { <-sess.gate }()

	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return nil, ErrSessionGone
	}
	spec := &sess.spec
	if err := d.validate(); err != nil {
		sess.mu.Unlock()
		return nil, err
	}
	if len(d.Values) != len(spec.Ind) {
		sess.mu.Unlock()
		return nil, fmt.Errorf("service: delta has %d value rows, session has %d indirection arrays", len(d.Values), len(spec.Ind))
	}
	for _, it := range d.Changed {
		if int(it) >= spec.NumIters {
			sess.mu.Unlock()
			return nil, fmt.Errorf("service: delta iteration %d outside [0,%d)", it, spec.NumIters)
		}
	}
	for r, row := range d.Values {
		for _, v := range row {
			if int(v) >= spec.NumElems {
				sess.mu.Unlock()
				return nil, fmt.Errorf("service: delta value %d in ref %d outside [0,%d)", v, r, spec.NumElems)
			}
		}
	}

	// Commit the revision to the resident arrays, then revise schedules.
	for r, row := range d.Values {
		for j, it := range d.Changed {
			spec.Ind[r][it] = row[j]
		}
	}
	frac := 0.0
	if spec.NumIters > 0 {
		frac = float64(len(d.Changed)) / float64(spec.NumIters)
	}
	incremental := frac <= DefaultFallbackFrac
	t0 := time.Now()
	if incremental {
		for _, sc := range sess.scheds {
			ds := s.trace.Begin()
			err := sc.Update(d.Changed, spec.Ind...)
			s.trace.End(obs.SpanDelta, sc.Proc, -1, -1, -1, ds)
			if err != nil {
				// The schedule may be half-revised: fail closed. The session
				// is gone (410 from now on), never served stale.
				sess.mu.Unlock()
				s.sessions.drop(sess)
				sess.markClosed()
				return nil, fmt.Errorf("service: incremental update failed, session closed: %w", err)
			}
		}
	} else {
		fresh, err := inspector.LightAll(spec.config(), s.trace, spec.Ind...)
		if err != nil {
			sess.mu.Unlock()
			s.sessions.drop(sess)
			sess.markClosed()
			return nil, fmt.Errorf("service: re-inspection failed, session closed: %w", err)
		}
		for _, sc := range fresh {
			sc.BeginIncremental()
		}
		sess.scheds = fresh
		s.trace.Event("session/fallback", -1, -1, -1, -1)
	}
	sess.inspectMS = float64(time.Since(t0)) / 1e6
	sess.deltas++
	if incremental {
		sess.incr++
	} else {
		sess.full++
	}
	sess.lastFrac, sess.lastIncr = frac, incremental
	sess.mu.Unlock()

	s.sessions.countDelta(incremental)
	if err := s.reduceSession(ctx, sess); err != nil {
		s.sessions.drop(sess)
		sess.markClosed()
		return nil, err
	}
	return sess.status(includeResult), nil
}

// reduceSession runs the session's loop through runRaw on the resident
// schedule clone and records the result. The caller must hold the session
// gate (or own the session exclusively, as OpenSession does), which keeps
// the resident arrays and schedules still during the run.
func (s *Service) reduceSession(ctx context.Context, sess *Session) error {
	sess.mu.Lock()
	spec, scheds := sess.spec, sess.scheds
	sess.mu.Unlock()

	t0 := time.Now()
	x, err := s.runRaw(ctx, &spec, scheds, nil)
	if err != nil {
		return err
	}
	runMS := float64(time.Since(t0)) / 1e6

	sess.mu.Lock()
	sess.runMS = runMS
	sess.result = x
	sess.resultSHA = HashResult(x)
	sess.mu.Unlock()
	return nil
}
