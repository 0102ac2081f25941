package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"irred/internal/inspector"
	"irred/internal/obs"
	"irred/internal/rts"
)

// strategyK and strategyDist are the execution strategy every workload
// uses: k = 2, cyclic — the paper's default shape.
const (
	strategyK    = 2
	strategyDist = inspector.Cyclic
)

// engine is an in-process workload instance: one caller driving a phase
// engine of P processors in batches of `batch` sweeps from a fixed initial
// state, so that every batch can be checked against one precomputed
// sequential oracle.
type engine struct {
	batch  int
	reset  func()       // restore the initial state
	run    func() error // `batch` sweeps
	state  func() []float64
	oracle []float64
	tol    float64
	// rebuild, when set, replaces the instance with a freshly built one.
	// The untraced pass then gives every slice its own build, so a metric
	// that depends on where the allocator happened to put the instance is
	// the median over builds and not one draw.
	rebuild func() error

	lastRun time.Duration // wall time of the latest run call
}

// op is one closed-loop operation: a batch, verified.
func (g *engine) op(_, _ int) (int, error) {
	g.reset()
	t := time.Now()
	err := g.run()
	g.lastRun = time.Since(t)
	if err != nil {
		return 0, err
	}
	if err := closeTo(g.state(), g.oracle, g.tol); err != nil {
		return 0, fmt.Errorf("oracle mismatch: %w", err)
	}
	return g.batch, nil
}

// measure is the untraced pass of an in-process workload.
func (e *env) measure(r *result, g *engine) error {
	runtime.GC()                // the set-up repetitions' garbage is not the window's
	drive(1, e.window/10, g.op) // warm caches and the scheduler
	var w *window
	if g.rebuild == nil {
		w = drive(1, e.window, g.op)
	} else {
		var err error
		if w, err = e.rebuilt(g); err != nil {
			return err
		}
	}
	r.count(w)
	r.add(w.throughput("ops_per_s"), w.latency("latency_p50_ms", 0.5))
	r.detail(w.latency("client.latency_p95_ms", 0.95))
	return nil
}

// rebuilt measures a window whose every slice runs on a fresh build of the
// instance. Building happens between the slices, outside all of them; a
// slice ends with its last operation.
func (e *env) rebuilt(g *engine) (*window, error) {
	w := &window{cuts: []time.Duration{0}}
	for i := 0; i < numSlices; i++ {
		if err := g.rebuild(); err != nil {
			return nil, err
		}
		if _, err := g.op(0, 0); err != nil { // page the new instance in
			return nil, err
		}
		sub := drive(1, e.window/numSlices, g.op)
		from, end := w.cuts[i], time.Duration(0)
		for _, s := range sub.samples {
			if s.end > end {
				end = s.end
			}
			s.start, s.end = s.start+from, s.end+from
			w.samples = append(w.samples, s)
		}
		w.cuts = append(w.cuts, from+end)
	}
	return w, nil
}

// engineTrace sums the engine's obs spans over traced runs.
type engineTrace struct {
	byName  map[string]time.Duration
	wall    time.Duration
	sweeps  int
	dropped uint64
}

// add drains the tracer after one traced run of `sweeps` sweeps.
func (t *engineTrace) add(tr *obs.Tracer, wall time.Duration, sweeps int) {
	spans, total := tr.Snapshot()
	tr.Reset()
	if t.byName == nil {
		t.byName = map[string]time.Duration{}
	}
	for _, s := range spans {
		t.byName[s.Name] += time.Duration(s.DurNS)
	}
	t.dropped += total - uint64(len(spans))
	t.wall += wall
	t.sweeps += sweeps
}

// report emits the rts.* layer metrics: per-sweep sums of the span kinds
// over processors, and how much of P x wall they account for.
func (t *engineTrace) report(r *result, cfg inspector.Config) {
	per := func(d time.Duration) float64 { return ms(d) / float64(t.sweeps) }
	phase := t.byName[obs.SpanCompute] + t.byName[obs.SpanCopy] + t.byName[obs.SpanWait] + t.byName[obs.SpanUpdate]
	closure := float64(phase) / (float64(cfg.P) * float64(t.wall))
	r.add(
		value("rts.sweep_ms", per(t.wall), "ms"),
		value("rts.compute_ms", per(t.byName[obs.SpanCompute]), "ms"),
		value("rts.copy_ms", per(t.byName[obs.SpanCopy]), "ms"),
		value("rts.wait_ms", per(t.byName[obs.SpanWait]), "ms"),
		metric{Name: "rts.handoffs_per_sweep", Value: float64(cfg.P * (cfg.NumPhases() - cfg.K)), Unit: "count", Computed: true},
		value("rts.trace_closure", closure, "ratio"),
	)
	r.detail(value("rts.update_ms", per(t.byName[obs.SpanUpdate]), "ms"))
	if t.dropped > 0 {
		r.problem("trace ring dropped %d spans: the per-sweep sums are short", t.dropped)
	}
	r.checkClosure("rts.trace_closure", closure)
}

// traceCapacity holds the spans of one traced batch of any workload with
// room to spare (native.fine: 64 sweeps x ~13 spans x P).
const traceCapacity = 1 << 16

// measureTraced is the traced pass of an in-process workload: an untraced
// reference window, then the same operations with an obs.Tracer attached
// through attach. The throughput ratio is the tracing overhead.
func (e *env) measureTraced(r *result, g *engine, cfg inspector.Config, attach func(*obs.Tracer)) {
	drive(1, e.window/20, g.op)
	ref := drive(1, e.share(0.3), g.op)
	r.count(ref)

	tr := obs.New(traceCapacity)
	attach(tr)
	var acc engineTrace
	traced := drive(1, e.share(0.4), func(c, seq int) (int, error) {
		tr.Reset()
		n, err := g.op(c, seq)
		acc.add(tr, g.lastRun, n)
		return n, err
	})
	attach(nil)
	r.count(traced)
	acc.report(r, cfg)
	r.add(overhead(ref, traced))
}

// overhead is obs.trace_overhead_frac = 1 - traced/untraced throughput.
func overhead(ref, traced *window) metric {
	return value("obs.trace_overhead_frac",
		1-traced.throughput("").Value/ref.throughput("").Value, "ratio")
}

// inspectorLayers times the inspector's primitives on loop l: the full
// LightInspector for all P processors, the content key, the incremental
// Update at 1% of iterations, and the schedule codec.
func inspectorLayers(r *result, l *rts.Loop, seed int64, budget time.Duration) error {
	each := budget / 5
	var scheds []*inspector.Schedule
	light, err := timeLayer("inspector.light_ms", each, func() (err error) {
		scheds, err = l.Schedules()
		return err
	})
	if err != nil {
		return err
	}
	key, err := timeLayer("inspector.key_ms", each, func() error {
		inspector.ScheduleKey(l.Cfg, l.Ind...)
		return nil
	})
	if err != nil {
		return err
	}

	// One buffer per schedule: ReadSchedule reads ahead, so schedules do
	// not share a stream (the cache file frames them the same way).
	bufs := make([]bytes.Buffer, len(scheds))
	write, err := timeLayer("inspector.write_ms", each, func() error {
		for i, s := range scheds {
			bufs[i].Reset()
			if _, err := s.WriteTo(&bufs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	size := 0
	for i := range bufs {
		size += bufs[i].Len()
	}
	read, err := timeLayer("inspector.read_ms", each, func() error {
		for i := range bufs {
			if _, err := inspector.ReadSchedule(bytes.NewReader(bufs[i].Bytes())); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Update revises a session-owned clone in place, against private
	// copies of the indirection arrays; each repetition rewires a fresh 1%.
	own := inspector.CloneSchedules(scheds)
	for _, s := range own {
		s.BeginIncremental()
	}
	ind := make([][]int32, len(l.Ind))
	for i := range ind {
		ind[i] = append([]int32(nil), l.Ind[i]...)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	update, err := repeatTimed("inspector.update_ms", "ms", ms, each, 3, 1000, func() (time.Duration, error) {
		changed := rewire(rng, ind, l.Cfg.NumElems, 0.01)
		t := time.Now()
		for _, s := range own {
			if err := s.Update(changed, ind...); err != nil {
				return 0, err
			}
		}
		return time.Since(t), nil
	})
	if err != nil {
		return err
	}
	r.add(light, key, update, write, read,
		value("inspector.light_ns_per_iter", light.Value*1e6/float64(l.Cfg.NumIters), "ns"),
		value("inspector.schedule_bytes", float64(size), "B"))
	return nil
}

// rewire points frac of the iterations (distinct, sorted) at fresh random
// elements in every indirection array, in place, and returns them.
func rewire(rng *rand.Rand, ind [][]int32, numElems int, frac float64) []int32 {
	numIters := len(ind[0])
	n := int(frac * float64(numIters))
	if n < 1 {
		n = 1
	}
	picked := make([]int32, n)
	for i := range picked {
		picked[i] = int32(rng.Intn(numIters))
	}
	sort.Slice(picked, func(a, b int) bool { return picked[a] < picked[b] })
	changed := picked[:0]
	for i, it := range picked {
		if i == 0 || it != picked[i-1] {
			changed = append(changed, it)
		}
	}
	for _, it := range changed {
		for r := range ind {
			ind[r][it] = int32(rng.Intn(numElems))
		}
	}
	return changed
}
