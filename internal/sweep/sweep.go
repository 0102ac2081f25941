// Package sweep is the auto-tuning benchmark harness: it expands a grid
// of (kernel, class, engine, P, k, distribution) points,
// runs every legal cell through the matching execution engine, and
// aggregates wall time, per-phase span budgets, schedule-cache traffic
// and latency percentiles into a benchfmt.Summary — the persisted BENCH
// trajectory that the CI regression gate (benchfmt.Compare) and the
// runtime tuner (rts.Tuner) both consume.
//
// The harness measures the same code paths production uses: named
// kernels run through internal/kernels onto the rts engines, schedules
// are served through the internal/service schedule cache, interpreter
// cells go through the codegen/interp pipeline, and sim cells run the
// EARTH machine model. Grid points an engine cannot legally execute (a
// parallel interpreter, an engine a kernel lacks) are recorded as skips
// with the rule that refused them, never silently dropped.
package sweep

import (
	"fmt"
	"strconv"

	"irred/internal/inspector"
)

// Engine names, matching the benchfmt cell vocabulary.
const (
	EngineNative = "native" // rts.Native: goroutines + rotation schedule
	EngineInterp = "interp" // sequential tree-walking interpreter
	EngineSim    = "sim"    // EARTH machine model (modeled MANNA seconds)
)

// Engines lists every engine the harness knows, in canonical order.
var Engines = []string{EngineNative, EngineInterp, EngineSim}

// Adaptation modes of the "adaptive" kernel: which schedule-maintenance
// path an adaptive cell measures after each mesh refinement step.
const (
	AdaptIncr = "incr" // Schedule.Update on the resident schedules
	AdaptFull = "full" // LightInspector rebuild from scratch
)

// Cell is one grid point: a workload (kernel + class) bound to an
// execution strategy (engine, P, k, distribution).
type Cell struct {
	Kernel string
	Class  string
	Engine string
	P      int
	K      int
	Dist   string // "block" | "cyclic"

	// DeltaFrac and Adapt apply to the "adaptive" kernel only: the
	// fraction of edges each adaptation step rewires, and which
	// schedule-maintenance path the cell times (AdaptIncr | AdaptFull).
	DeltaFrac float64
	Adapt     string
}

// ID renders the canonical cell key used across BENCH files:
// kernel/class/engine/pN/kN/dist/checked[/delta=frac/incr|full].
func (c Cell) ID() string {
	// The last segment is the literal "checked", a bounds-check mode that
	// no longer varies: the CI gate's baseline and the tuner's blend key
	// on IDs, so it stays.
	id := fmt.Sprintf("%s/%s/%s/p%d/k%d/%s/checked", c.Kernel, c.Class, c.Engine, c.P, c.K, c.Dist)
	if c.Adapt != "" {
		id += "/delta=" + strconv.FormatFloat(c.DeltaFrac, 'g', -1, 64) + "/" + c.Adapt
	}
	return id
}

// dist parses the cell's distribution name.
func (c Cell) dist() (inspector.Dist, error) {
	switch c.Dist {
	case "block":
		return inspector.Block, nil
	case "cyclic":
		return inspector.Cyclic, nil
	default:
		return 0, fmt.Errorf("sweep: unknown distribution %q (block | cyclic)", c.Dist)
	}
}
