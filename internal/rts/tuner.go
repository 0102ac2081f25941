package rts

import (
	"fmt"
	"runtime"
	"sort"

	"irred/internal/benchfmt"
)

// Pick is the tuner's strategy choice for one workload: which engine to
// run, at what machine shape, under which schedule strategy.
type Pick struct {
	Engine string `json:"engine"`
	P      int    `json:"p"`
	K      int    `json:"k"`
	Dist   string `json:"dist"`

	// Source is the BENCH cell ID the pick was measured from, or
	// "heuristic" when the trajectory had no usable cell and the paper's
	// defaults were applied instead.
	Source string `json:"source"`
	// ScoreMS is the trimmed-mean wall time of the source cell (zero for
	// heuristic picks).
	ScoreMS float64 `json:"score_ms"`
}

func (p Pick) String() string {
	return fmt.Sprintf("%s P=%d k=%d %s (%s)", p.Engine, p.P, p.K, p.Dist, p.Source)
}

// TunerOptions narrows which measured cells a consumer may act on.
type TunerOptions struct {
	// MaxP caps the picked processor count (a trajectory measured on a
	// bigger machine must not oversubscribe this one). Zero caps at the
	// host's NumCPU.
	MaxP int
	// Engines, when non-empty, restricts picks to engines the consumer
	// can execute (irredrun -auto passes every engine the sweep harness
	// knows). A cell naming an engine outside the list — one since
	// removed, say — never backs a pick.
	Engines []string
}

// Tuner picks execution strategies from a persisted BENCH trajectory —
// the measured complement to the paper's analytic engine selection. It
// never consults modeled (sim) cells: picks come from clean wall-clock
// measurements or from the fallback heuristic, nothing in between.
type Tuner struct {
	summary *benchfmt.Summary
	opt     TunerOptions
}

// NewTuner builds a tuner over a loaded trajectory. A nil summary is
// legal: every pick falls back to the heuristic.
func NewTuner(s *benchfmt.Summary, opt TunerOptions) *Tuner {
	if opt.MaxP <= 0 {
		opt.MaxP = runtime.NumCPU()
	}
	return &Tuner{summary: s, opt: opt}
}

// NewTunerFromDir loads every BENCH_*.json in dir and blends them into
// one trajectory, newest-wins per cell: a cell re-measured in a later
// file replaces the older measurement, while cells only an older sweep
// covered survive. The returned path is the newest file — the blend's
// identity stamp — so callers report the freshest provenance.
func NewTunerFromDir(dir string, opt TunerOptions) (*Tuner, string, error) {
	paths, err := benchfmt.All(dir)
	if err != nil {
		return nil, "", err
	}
	var blended *benchfmt.Summary
	index := map[string]int{} // cell ID -> position in blended.Cells
	for _, path := range paths {
		s, err := benchfmt.Read(path)
		if err != nil {
			return nil, "", err
		}
		if blended == nil {
			blended = &benchfmt.Summary{}
		}
		// Later files overwrite the stamp and skips wholesale — the blend
		// is identified by its newest sweep — but cells merge in place:
		// first-seen order is kept, newer data replaces older per ID.
		blended.Stamp = s.Stamp
		blended.Skipped = s.Skipped
		for i := range s.Cells {
			c := s.Cells[i]
			if at, ok := index[c.ID]; ok {
				blended.Cells[at] = c
				continue
			}
			index[c.ID] = len(blended.Cells)
			blended.Cells = append(blended.Cells, c)
		}
	}
	return NewTuner(blended, opt), paths[len(paths)-1], nil
}

// Summary exposes the loaded trajectory (nil for a heuristic-only tuner).
func (t *Tuner) Summary() *benchfmt.Summary { return t.summary }

// usable reports whether a measured cell may back a pick for this consumer.
func (t *Tuner) usable(c *benchfmt.Cell) bool {
	if c.Error != "" {
		return false
	}
	// Sim cells time the simulator, not the workload; their wall stats
	// must never compete with real executions.
	if c.Engine == "sim" {
		return false
	}
	if c.Wall.Score() <= 0 {
		return false
	}
	if c.P > t.opt.MaxP {
		return false
	}
	if len(t.opt.Engines) > 0 {
		ok := false
		for _, e := range t.opt.Engines {
			if e == c.Engine {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Pick returns the measured-fastest usable strategy for (kernel, class),
// falling back to the paper's heuristic defaults when the trajectory
// holds no usable cell. Ties in score break toward the cell ID's lexical
// order, so picks are deterministic across runs.
func (t *Tuner) Pick(kernel, class string) Pick {
	var best *benchfmt.Cell
	if t.summary != nil {
		for i := range t.summary.Cells {
			c := &t.summary.Cells[i]
			if c.Kernel != kernel || c.Class != class || !t.usable(c) {
				continue
			}
			if best == nil || c.Wall.Score() < best.Wall.Score() ||
				(c.Wall.Score() == best.Wall.Score() && c.ID < best.ID) {
				best = c
			}
		}
	}
	if best == nil {
		return t.heuristic()
	}
	return Pick{
		Engine: best.Engine, P: best.P, K: best.K, Dist: best.Dist,
		Source: best.ID, ScoreMS: best.Wall.Score(),
	}
}

// heuristic is the untuned default: the native rotation engine at the
// host's parallelism (capped at the paper's 4-processor sweet spot), one
// extra portion of slack (k=2) so rotation overlaps compute when P > 1,
// block distribution.
func (t *Tuner) heuristic() Pick {
	p := t.opt.MaxP
	if p > 4 {
		p = 4
	}
	if p < 1 {
		p = 1
	}
	k := 1
	if p > 1 {
		k = 2
	}
	return Pick{
		Engine: "native", P: p, K: k, Dist: "block", Source: "heuristic",
	}
}

// Workloads lists the (kernel, class) pairs the trajectory holds clean
// measured cells for, sorted, so consumers can report what the tuner can
// actually tune.
func (t *Tuner) Workloads() [][2]string {
	if t.summary == nil {
		return nil
	}
	seen := map[[2]string]bool{}
	for i := range t.summary.Cells {
		c := &t.summary.Cells[i]
		if c.Error == "" && c.Engine != "sim" && c.Wall.Score() > 0 {
			seen[[2]string{c.Kernel, c.Class}] = true
		}
	}
	out := make([][2]string, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
