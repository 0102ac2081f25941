package sweep

import (
	"fmt"
	"time"

	"irred/internal/benchfmt"
	"irred/internal/buildinfo"
	"irred/internal/inspector"
	"irred/internal/mesh"
	"irred/internal/obs"
	"irred/internal/rts"
	"irred/internal/service"
)

// Options controls the per-cell measurement protocol.
type Options struct {
	// Steps is the number of timesteps per measured run; Warmup runs are
	// executed and discarded before Repeats measured runs.
	Steps   int
	Warmup  int
	Repeats int

	// TrimFrac is the outlier-trim fraction handed to benchfmt.NewStats:
	// floor(Repeats*TrimFrac) fastest and slowest runs are dropped from
	// the trimmed mean the comparator scores by.
	TrimFrac float64

	// Seed makes dataset generation deterministic.
	Seed int64

	// Cache serves LightInspector schedules to the native engine, exactly
	// as the irredd serving path does; the per-cell hit/miss delta lands
	// in the BENCH cell. Nil runs a private cache.
	Cache *service.Cache

	// Stamp is the identity block of the emitted summary (see NewStamp).
	Stamp benchfmt.Stamp

	// Progress, when non-nil, receives one line per cell.
	Progress func(format string, args ...any)
}

func (o *Options) fill() {
	if o.Steps <= 0 {
		o.Steps = 3
	}
	if o.Repeats <= 0 {
		o.Repeats = 5
	}
	if o.Warmup < 0 {
		o.Warmup = 0
	}
	if o.TrimFrac <= 0 {
		o.TrimFrac = 0.2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
}

func (o *Options) progress(format string, args ...any) {
	if o.Progress != nil {
		o.Progress(format, args...)
	}
}

// NewStamp builds the summary identity block from the embedded build
// info and the harness clock.
func NewStamp(now time.Time) benchfmt.Stamp {
	bi := buildinfo.Get()
	now = now.UTC()
	return benchfmt.Stamp{
		Schema:     benchfmt.Schema,
		Date:       now.Format("2006-01-02"),
		Time:       now.Format(time.RFC3339),
		Commit:     bi.Revision,
		CommitTime: bi.CommitTime,
		Dirty:      bi.Modified,
		Module:     bi.Module,
		Version:    bi.Version,
		GoVersion:  bi.GoVersion,
		OS:         bi.OS,
		Arch:       bi.Arch,
		NumCPU:     bi.NumCPU,
	}
}

// Run expands the grid and measures every legal cell, returning the full
// BENCH summary (including the skip records). Cells that fail to execute
// are recorded with their error; only a malformed grid aborts the sweep.
func Run(g Grid, opt Options) (*benchfmt.Summary, error) {
	cells, skipped, err := g.Expand()
	if err != nil {
		return nil, err
	}
	opt.fill()
	if opt.Cache == nil {
		if opt.Cache, err = service.NewCache(1024, ""); err != nil {
			return nil, err
		}
	}
	s := &benchfmt.Summary{Stamp: opt.Stamp, Skipped: skipped}
	if s.Schema == "" {
		s.Schema = benchfmt.Schema
	}
	for i, c := range cells {
		bc := RunCell(c, opt)
		status := fmt.Sprintf("%.3fms", bc.Wall.Score())
		if bc.Error != "" {
			status = "ERROR " + bc.Error
		}
		opt.progress("cell %d/%d %s: %s", i+1, len(cells), c.ID(), status)
		s.Cells = append(s.Cells, bc)
	}
	return s, nil
}

// RunCell measures one cell: Warmup discarded runs, then Repeats measured
// runs of Steps timesteps each, every run through a freshly constructed
// engine over cached datasets and cache-served schedules. The cell
// carries outlier-trimmed wall statistics, reservoir percentiles, the
// per-phase span budget from internal/obs, and the schedule-cache
// traffic delta it caused.
func RunCell(c Cell, opt Options) benchfmt.Cell {
	opt.fill()
	bc := benchfmt.Cell{
		ID: c.ID(), Kernel: c.Kernel, Class: c.Class, Engine: c.Engine,
		P: c.P, K: c.K, Dist: c.Dist,
		DeltaFrac: c.DeltaFrac, Adapt: c.Adapt,
		Steps: opt.Steps, Warmup: opt.Warmup, Repeats: opt.Repeats,
	}
	tracer := obs.New(1 << 15)
	var before service.CacheStats
	if opt.Cache != nil {
		before = opt.Cache.Stats()
	}
	run, err := newRunner(c, &opt, tracer)
	if err != nil {
		bc.Error = err.Error()
		return bc
	}
	samples := make([]float64, 0, opt.Repeats)
	hist := obs.NewReservoir(0)
	for r := 0; r < opt.Warmup+opt.Repeats; r++ {
		ms, simSec, err := safeRun(run)
		if err != nil {
			bc.Error = err.Error()
			return bc
		}
		if r < opt.Warmup {
			continue
		}
		samples = append(samples, ms)
		hist.Add(ms)
		if simSec > 0 {
			bc.SimSeconds = simSec
		}
	}
	bc.Wall = benchfmt.NewStats(samples, opt.TrimFrac)
	q := hist.Quantiles(0.5, 0.95, 0.99)
	bc.P50MS, bc.P95MS, bc.P99MS = q[0], q[1], q[2]
	if spans, _ := tracer.Snapshot(); len(spans) > 0 {
		bc.PhaseMS = map[string]float64{}
		for _, a := range obs.Aggregate(spans, false) {
			bc.PhaseMS[a.Name] = float64(a.TotalNS) / 1e6
		}
	}
	if opt.Cache != nil {
		after := opt.Cache.Stats()
		bc.CacheHits = after.Hits - before.Hits
		bc.CacheMisses = after.Misses - before.Misses
		if total := bc.CacheHits + bc.CacheMisses; total > 0 {
			bc.CacheHitRatio = float64(bc.CacheHits) / float64(total)
		}
	}
	return bc
}

// runFunc executes one full run of Steps timesteps — engine construction
// untimed, execution timed — returning wall milliseconds and, for sim
// cells, the modeled seconds.
type runFunc func() (ms, simSeconds float64, err error)

// safeRun converts an engine panic (a corrupted schedule, an overflow in
// hand-built phase programs) into a recorded cell error so one broken
// cell cannot abort a multi-hour sweep.
func safeRun(f runFunc) (ms, simSeconds float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep: engine panic: %v", r)
		}
	}()
	return f()
}

// newRunner builds the engine-specific measurement closure for a cell.
func newRunner(c Cell, opt *Options, tracer *obs.Tracer) (runFunc, error) {
	dist, err := c.dist()
	if err != nil {
		return nil, err
	}
	if c.Kernel == "adaptive" {
		return adaptiveRunner(c, opt, dist)
	}
	switch c.Engine {
	case EngineNative:
		return nativeRunner(c, opt, dist, tracer)
	case EngineInterp:
		return interpRunner(c, opt)
	case EngineSim:
		return simRunner(c, opt, dist)
	default:
		return nil, fmt.Errorf("sweep: unknown engine %q", c.Engine)
	}
}

// schedules serves the loop's LightInspector schedules through the cache,
// computing and inserting them on a miss — the exact serving-path
// amortization the paper argues for, measured per cell.
func schedules(l *rts.Loop, cache *service.Cache) ([]*inspector.Schedule, error) {
	if cache == nil {
		return l.Schedules()
	}
	key := inspector.ScheduleKey(l.Cfg, l.Ind...)
	if scheds, ok := cache.Get(key); ok {
		return scheds, nil
	}
	scheds, err := l.Schedules()
	if err != nil {
		return nil, err
	}
	if err := cache.Put(key, scheds); err != nil {
		return nil, err
	}
	return scheds, nil
}

// loopFor builds the rts.Loop of a named kernel or raw workload.
func loopFor(c Cell, opt *Options, dist inspector.Dist) (*rts.Loop, error) {
	if c.Kernel == "raw" {
		r, err := rawData(c.Class, opt.Seed)
		if err != nil {
			return nil, err
		}
		return r.loop(c.P, c.K, dist), nil
	}
	w, err := open(c.Kernel, c.Class, opt.Seed)
	if err != nil {
		return nil, err
	}
	return w.Loop(c.P, c.K, dist), nil
}

func nativeRunner(c Cell, opt *Options, dist inspector.Dist, tracer *obs.Tracer) (runFunc, error) {
	build, err := nativeBuilder(c, opt, dist)
	if err != nil {
		return nil, err
	}
	steps := opt.Steps
	cache := opt.Cache
	return func() (float64, float64, error) {
		// Schedules come through the cache every run: the first run of the
		// cell pays the LightInspector, later runs measure the amortized
		// serving path.
		l, err := loopFor(c, opt, dist)
		if err != nil {
			return 0, 0, err
		}
		l.Trace = tracer
		scheds, err := schedules(l, cache)
		if err != nil {
			return 0, 0, err
		}
		n, err := build(scheds)
		if err != nil {
			return 0, 0, err
		}
		n.Trace = tracer
		start := time.Now()
		err = n.Run(steps)
		return float64(time.Since(start)) / 1e6, 0, err
	}, nil
}

// nativeBuilder returns the per-run engine constructor of a native cell.
func nativeBuilder(c Cell, opt *Options, dist inspector.Dist) (func([]*inspector.Schedule) (*rts.Native, error), error) {
	if c.Kernel == "raw" {
		r, err := rawData(c.Class, opt.Seed)
		if err != nil {
			return nil, err
		}
		return func(scheds []*inspector.Schedule) (*rts.Native, error) {
			n, err := rts.NewNativeFrom(r.loop(c.P, c.K, dist), scheds)
			if err != nil {
				return nil, err
			}
			n.Weights, n.Coef = r.w, []float64{1, -1}
			return n, nil
		}, nil
	}
	w, err := open(c.Kernel, c.Class, opt.Seed)
	if err != nil {
		return nil, err
	}
	return func(scheds []*inspector.Schedule) (*rts.Native, error) {
		n, _, err := w.NewNativeFrom(scheds, c.P, c.K, dist)
		return n, err
	}, nil
}

// adaptiveRunner measures the streaming amortization claim: an
// euler-shaped mesh absorbs one deterministic refinement step per timestep
// (a drifting hotspot rewiring DeltaFrac of the edges), and the cell times
// only the schedule maintenance that follows — per-processor
// Schedule.Update for AdaptIncr cells, a LightInspector rebuild for
// AdaptFull cells. Both arms of a delta-fraction pair replay the identical
// mesh trajectory, so their wall difference is purely the maintenance
// path; the reduction run that would follow is the same in either arm and
// is deliberately excluded.
func adaptiveRunner(c Cell, opt *Options, dist inspector.Dist) (runFunc, error) {
	nodes, edges := mesh.Paper2K()
	if c.Class == "10k" {
		nodes, edges = mesh.Paper10K()
	}
	m := mesh.Generate(nodes, edges, opt.Seed)
	cfg := inspector.Config{P: c.P, K: c.K, NumIters: m.NumEdges(), NumElems: m.NumNodes, Dist: dist}
	ind := [][]int32{m.I1, m.I2}
	incr := c.Adapt == AdaptIncr
	if !incr && c.Adapt != AdaptFull {
		return nil, fmt.Errorf("sweep: adaptive cell has unknown maintenance mode %q", c.Adapt)
	}
	scheds, err := inspector.LightAll(cfg, nil, ind...)
	if err != nil {
		return nil, err
	}
	if incr {
		for _, s := range scheds {
			s.BeginIncremental()
		}
	}
	step := 0
	steps := opt.Steps
	return func() (float64, float64, error) {
		var total time.Duration
		for n := 0; n < steps; n++ {
			changed := m.Adapt(step, c.DeltaFrac, opt.Seed+1)
			step++
			start := time.Now()
			if incr {
				for _, s := range scheds {
					if err := s.Update(changed, ind...); err != nil {
						return 0, 0, err
					}
				}
			} else {
				var err error
				if scheds, err = inspector.LightAll(cfg, nil, ind...); err != nil {
					return 0, 0, err
				}
			}
			total += time.Since(start)
		}
		return float64(total) / 1e6, 0, nil
	}, nil
}

func interpRunner(c Cell, opt *Options) (runFunc, error) {
	u, err := unit(c.Kernel)
	if err != nil {
		return nil, err
	}
	steps := opt.Steps
	return func() (float64, float64, error) {
		env, err := newEnv(c.Kernel, c.Class, opt.Seed, u)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		for step := 0; step < steps; step++ {
			if err := env.Run(); err != nil {
				return 0, 0, err
			}
		}
		return float64(time.Since(start)) / 1e6, 0, nil
	}, nil
}

func simRunner(c Cell, opt *Options, dist inspector.Dist) (runFunc, error) {
	steps := opt.Steps
	return func() (float64, float64, error) {
		l, err := loopFor(c, opt, dist)
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		res, err := rts.RunSim(l, rts.SimOptions{Steps: steps})
		if err != nil {
			return 0, 0, err
		}
		return float64(time.Since(start)) / 1e6, res.Seconds, nil
	}, nil
}
