package sweep

import (
	"fmt"

	"irred/internal/benchfmt"
	"irred/internal/kernels"
)

// kernelDef describes one workload family to the expansion: its legal
// classes, the engines that can execute it, and (for named kernels) the
// IRL source behind the interp path.
type kernelDef struct {
	classes []string
	engines map[string]bool
	irl     string
}

// kernelRegistry is the harness's workload catalogue.
var kernelRegistry = map[string]*kernelDef{
	"mvm": {
		classes: kernels.Datasets("mvm"),
		engines: set(EngineNative, EngineInterp, EngineSim),
		irl:     kernels.MVMIRL,
	},
	"euler": {
		classes: kernels.Datasets("euler"),
		engines: set(EngineNative, EngineInterp, EngineSim),
		irl:     kernels.EulerIRL,
	},
	"moldyn": {
		classes: kernels.Datasets("moldyn"),
		engines: set(EngineNative, EngineInterp, EngineSim),
		irl:     kernels.MoldynIRL,
	},
	"raw": {
		classes: []string{"tiny", "small", "large"},
		engines: set(EngineNative),
	},
	// adaptive is the streaming workload family: an euler-shaped mesh
	// absorbing deterministic refinement steps. Its cells time schedule
	// maintenance per adaptation step — Schedule.Update vs LightInspector
	// rebuild — at each delta fraction, so the incremental-vs-full
	// crossover (the session fallback threshold) is a measured number.
	"adaptive": {
		classes: []string{"2k", "10k"},
		engines: set(EngineNative),
	},
}

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Kernels lists the named kernels and raw, in canonical order.
func Kernels() []string { return append(kernels.Names(), "raw") }

// Grid is the sweep's input: the cartesian product of its dimensions is
// expanded into cells, with illegal combinations recorded as skips.
type Grid struct {
	// Kernels to sweep. Classes optionally narrows the classes per kernel;
	// a kernel with no entry sweeps every registered class.
	Kernels []string
	Classes map[string][]string

	Ps    []int
	Ks    []int
	Dists []string

	Engines []string

	// DeltaFracs is the delta-fraction axis of the "adaptive" kernel:
	// each fraction expands into an incr/full cell pair timing the two
	// schedule-maintenance paths. Other kernels ignore it. Empty defaults
	// to 0.05 when the adaptive kernel is swept.
	DeltaFracs []float64
}

// DefaultGrid is the documented full sweep: every engine over the paper's
// small-to-medium workloads, P up to 4, k up to 2, both distributions.
func DefaultGrid() Grid {
	return Grid{
		Kernels: Kernels(),
		Classes: map[string][]string{
			"mvm":    {"S"},
			"euler":  {"2k"},
			"moldyn": {"2k"},
			"raw":    {"small", "large"},
		},
		Ps:      []int{1, 2, 4},
		Ks:      []int{1, 2},
		Dists:   []string{"block", "cyclic"},
		Engines: Engines,
	}
}

// SmallGrid is the CI short sweep: two workload families and P up to 2 —
// small enough for 1–2 repeats inside a CI job while still crossing every
// engine.
func SmallGrid() Grid {
	return Grid{
		Kernels: []string{"mvm", "raw"},
		Classes: map[string][]string{
			"mvm": {"S"},
			"raw": {"tiny"},
		},
		Ps:      []int{1, 2},
		Ks:      []int{1, 2},
		Dists:   []string{"block", "cyclic"},
		Engines: Engines,
	}
}

// AdaptiveGrid is the streaming amortization sweep: the adaptive kernel
// across delta fractions straddling the incremental-vs-full crossover.
// Its measurements justify service.DefaultFallbackFrac.
func AdaptiveGrid() Grid {
	return Grid{
		Kernels:    []string{"adaptive"},
		Classes:    map[string][]string{"adaptive": {"2k"}},
		Ps:         []int{2, 4},
		Ks:         []int{2},
		Dists:      []string{"cyclic"},
		Engines:    []string{EngineNative},
		DeltaFracs: []float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.35, 0.5},
	}
}

// Expand produces the runnable cells of the grid's cartesian product, in
// deterministic order, plus a skip record for every grid point an engine
// cannot legally execute. Malformed dimensions (unknown kernel, engine,
// class, distribution, out-of-range P or k) are
// configuration errors, not skips.
func (g Grid) Expand() ([]Cell, []benchfmt.Skip, error) {
	if len(g.Kernels) == 0 || len(g.Ps) == 0 || len(g.Ks) == 0 ||
		len(g.Dists) == 0 || len(g.Engines) == 0 {
		return nil, nil, fmt.Errorf("sweep: grid has an empty dimension")
	}
	for _, e := range g.Engines {
		if !knownEngine(e) {
			return nil, nil, fmt.Errorf("sweep: unknown engine %q", e)
		}
	}
	for _, p := range g.Ps {
		if p < 1 || p > 64 {
			return nil, nil, fmt.Errorf("sweep: P = %d outside [1,64]", p)
		}
	}
	for _, k := range g.Ks {
		if k < 1 || k > 64 {
			return nil, nil, fmt.Errorf("sweep: k = %d outside [1,64]", k)
		}
	}
	for _, d := range g.Dists {
		if d != "block" && d != "cyclic" {
			return nil, nil, fmt.Errorf("sweep: unknown distribution %q (block | cyclic)", d)
		}
	}
	for _, f := range g.DeltaFracs {
		if f <= 0 || f > 1 {
			return nil, nil, fmt.Errorf("sweep: delta fraction %g outside (0,1]", f)
		}
	}

	var cells []Cell
	var skipped []benchfmt.Skip
	for _, kernel := range g.Kernels {
		def, ok := kernelRegistry[kernel]
		if !ok {
			return nil, nil, fmt.Errorf("sweep: unknown kernel %q", kernel)
		}
		classes := g.Classes[kernel]
		if len(classes) == 0 {
			classes = def.classes
		}
		// The delta-fraction axis applies to the adaptive kernel only:
		// each fraction becomes an incr/full cell pair. Other kernels get
		// one variant with the axis zeroed.
		fracs, modes := []float64{0}, []string{""}
		if kernel == "adaptive" {
			fracs = g.DeltaFracs
			if len(fracs) == 0 {
				fracs = []float64{0.05}
			}
			modes = []string{AdaptIncr, AdaptFull}
		}
		for _, class := range classes {
			if !contains(def.classes, class) {
				return nil, nil, fmt.Errorf("sweep: kernel %s has no class %q (have %v)", kernel, class, def.classes)
			}
			for _, engine := range g.Engines {
				for _, p := range g.Ps {
					for _, k := range g.Ks {
						for _, dist := range g.Dists {
							for _, frac := range fracs {
								for _, mode := range modes {
									c := Cell{
										Kernel: kernel, Class: class, Engine: engine,
										P: p, K: k, Dist: dist,
										DeltaFrac: frac, Adapt: mode,
									}
									if reason := skipReason(c, def); reason != "" {
										skipped = append(skipped, benchfmt.Skip{ID: c.ID(), Reason: reason})
										continue
									}
									cells = append(cells, c)
								}
							}
						}
					}
				}
			}
		}
	}
	return cells, skipped, nil
}

func knownEngine(e string) bool {
	for _, n := range Engines {
		if n == e {
			return true
		}
	}
	return false
}

func contains(list []string, s string) bool {
	for _, v := range list {
		if v == s {
			return true
		}
	}
	return false
}

// skipReason implements the legality rules: a non-empty return is the
// reason the grid point is recorded as skipped. First match wins, so a
// cell that is illegal several ways reports its most fundamental problem.
func skipReason(c Cell, def *kernelDef) string {
	if !def.engines[c.Engine] {
		return fmt.Sprintf("kernel %s does not support engine %s", c.Kernel, c.Engine)
	}
	if c.Engine == EngineInterp && (c.P != 1 || c.K != 1 || c.Dist != "block") {
		return "interp is sequential; its canonical cell is P=1 k=1 block"
	}
	return ""
}
