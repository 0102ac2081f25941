// Package obs is a zero-dependency, allocation-light in-process tracer
// for the runtime's phase-level observability.
//
// The paper's execution strategy interleaves three kinds of work inside
// every phase — the copy (drain) loop, the main compute loop, and the wait
// for the rotating portion to arrive — and its claims (communication
// overlapped with computation, LightInspector cost amortized across
// timesteps) are claims about where time goes *within* a phase. A Tracer
// records one Span per unit of phase work into a fixed-capacity ring, so a
// long-running daemon can expose "where does a sweep stall" without
// unbounded memory and without allocating on the hot path: recording a
// span copies a small value struct into a preallocated slot.
//
// All methods are safe on a nil *Tracer and become no-ops, so the runtime
// threads an optional tracer through its hot loops at the cost of a nil
// check. Begin reads the monotonic clock only when tracing is live.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span names recorded by the runtime. Phase-level spans carry the
// processor, phase, step and portion they describe; -1 marks a tag that
// does not apply.
const (
	// SpanCompute is the main loop of one phase: contributions computed
	// and folded into the owned portion or the remote buffer.
	SpanCompute = "compute"
	// SpanCopy is the second (copy) loop of one phase: buffered
	// contributions drained into the just-arrived portion.
	SpanCopy = "copy"
	// SpanWait is the time a processor blocks receiving a rotated portion
	// — the rotation wait the schedule is supposed to hide under compute.
	SpanWait = "wait"
	// SpanUpdate is the regular between-sweep loop under the barrier.
	SpanUpdate = "update"
	// SpanInspect is one LightInspector pass for one processor.
	SpanInspect = "inspect"
	// SpanCheckpoint is one checkpoint write (sweep state persisted so a
	// restart can resume instead of recompute).
	SpanCheckpoint = "checkpoint"
	// SpanForward is one inter-node job forward: the routing node's view
	// of the hop to the owner (retries and failovers included).
	SpanForward = "forward"
	// SpanFailover is one failover: a forward abandoned a dead target and
	// replayed the job on the ring successor.
	SpanFailover = "failover"
	// SpanGossip is one health-gossip exchange with one peer.
	SpanGossip = "gossip"
	// SpanReplicate is one checkpoint frame shipped to the ring successor.
	SpanReplicate = "replicate"
	// SpanDelta is one incremental schedule revision for one processor
	// (Schedule.Update on a session's resident schedule) — the streaming
	// counterpart of SpanInspect, which full re-inspection records.
	SpanDelta = "delta"
)

// Span is one traced interval. Times are nanoseconds since the tracer's
// epoch (monotonic), so spans from concurrent goroutines order correctly.
type Span struct {
	Name    string `json:"name"`
	Proc    int32  `json:"proc"`    // executing processor, -1 if n/a
	Phase   int32  `json:"phase"`   // phase within the sweep, -1 if n/a
	Step    int32  `json:"step"`    // timestep, -1 if n/a
	Portion int32  `json:"portion"` // rotated portion involved, -1 if n/a
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// Tracer records spans into a fixed ring. When the ring is full the oldest
// spans are overwritten; Snapshot reports how many were recorded in total
// so callers can tell how much history was dropped.
type Tracer struct {
	epoch time.Time

	mu    sync.Mutex
	ring  []Span
	total uint64 // spans ever recorded; ring slot = total % len(ring)
}

// DefaultCapacity is the ring size used when New is given a non-positive
// capacity: roughly a few hundred sweeps of a small machine shape.
const DefaultCapacity = 8192

// New builds a tracer with the given ring capacity (DefaultCapacity when
// capacity <= 0).
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]Span, capacity)}
}

// Begin reads the tracer clock. On a nil tracer it returns 0 without
// touching the clock, so instrumented hot loops pay only a nil check.
func (t *Tracer) Begin() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// End records a span that started at the Begin value start.
func (t *Tracer) End(name string, proc, phase, step, portion int, start int64) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.epoch))
	t.record(Span{
		Name:    name,
		Proc:    int32(proc),
		Phase:   int32(phase),
		Step:    int32(step),
		Portion: int32(portion),
		StartNS: start,
		DurNS:   now - start,
	})
}

// Event records an instantaneous marker (a zero-duration span).
func (t *Tracer) Event(name string, proc, phase, step, portion int) {
	if t == nil {
		return
	}
	t.record(Span{
		Name:    name,
		Proc:    int32(proc),
		Phase:   int32(phase),
		Step:    int32(step),
		Portion: int32(portion),
		StartNS: int64(time.Since(t.epoch)),
	})
}

func (t *Tracer) record(s Span) {
	t.mu.Lock()
	t.ring[t.total%uint64(len(t.ring))] = s
	t.total++
	t.mu.Unlock()
}

// Snapshot copies the retained spans, oldest first, and reports the total
// ever recorded (total - len(spans) were dropped by ring wrap).
func (t *Tracer) Snapshot() (spans []Span, total uint64) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := t.total
	if n > uint64(len(t.ring)) {
		n = uint64(len(t.ring))
	}
	spans = make([]Span, 0, n)
	start := t.total - n
	for i := uint64(0); i < n; i++ {
		spans = append(spans, t.ring[(start+i)%uint64(len(t.ring))])
	}
	return spans, t.total
}

// Reset discards all retained spans and the total count; the epoch is
// kept, so span timestamps stay comparable across a reset.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = 0
	t.mu.Unlock()
}

// Agg is one row of an aggregate table: the distribution of durations over
// all spans sharing a name (and, for the per-phase form, a phase).
type Agg struct {
	Name    string  `json:"name"`
	Phase   int32   `json:"phase"` // -1 in the by-name form
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MinNS   int64   `json:"min_ns"`
	MaxNS   int64   `json:"max_ns"`
	AvgNS   float64 `json:"avg_ns"`
}

// Aggregate folds spans into per-name rows; with byPhase it keys on
// (name, phase) instead, giving the per-phase table that shows where a
// sweep's time goes. Rows come back sorted by name, then phase.
func Aggregate(spans []Span, byPhase bool) []Agg {
	type key struct {
		name  string
		phase int32
	}
	m := make(map[key]*Agg)
	for i := range spans {
		s := &spans[i]
		k := key{name: s.Name, phase: -1}
		if byPhase {
			k.phase = s.Phase
		}
		a, ok := m[k]
		if !ok {
			a = &Agg{Name: k.name, Phase: k.phase, MinNS: s.DurNS, MaxNS: s.DurNS}
			m[k] = a
		}
		a.Count++
		a.TotalNS += s.DurNS
		if s.DurNS < a.MinNS {
			a.MinNS = s.DurNS
		}
		if s.DurNS > a.MaxNS {
			a.MaxNS = s.DurNS
		}
	}
	out := make([]Agg, 0, len(m))
	for _, a := range m {
		a.AvgNS = float64(a.TotalNS) / float64(a.Count)
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Name != out[j].Name {
			return out[i].Name < out[j].Name
		}
		return out[i].Phase < out[j].Phase
	})
	return out
}

// Table renders aggregate rows as an aligned text table (milliseconds),
// the human-readable form of /debug/trace.
func Table(rows []Agg) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %5s %8s %12s %10s %10s %10s\n",
		"span", "phase", "count", "total_ms", "avg_ms", "min_ms", "max_ms")
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	for _, r := range rows {
		phase := "-"
		if r.Phase >= 0 {
			phase = fmt.Sprintf("%d", r.Phase)
		}
		fmt.Fprintf(&b, "%-12s %5s %8d %12.3f %10.4f %10.4f %10.4f\n",
			r.Name, phase, r.Count, ms(r.TotalNS), r.AvgNS/1e6, ms(r.MinNS), ms(r.MaxNS))
	}
	return b.String()
}
