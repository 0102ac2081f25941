package sweep

import (
	"strings"
	"testing"
)

// The adaptive grid expands each delta fraction into an incr/full cell
// pair, so every fraction's amortization comparison has both arms.
func TestAdaptiveGridExpands(t *testing.T) {
	g := AdaptiveGrid()
	cells, skipped, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// 2 Ps * 1 K * 1 dist * 1 checked * 7 fracs * 2 modes.
	want := 2 * len(g.DeltaFracs) * 2
	if len(cells) != want {
		t.Fatalf("cells = %d, want %d", len(cells), want)
	}
	if len(skipped) != 0 {
		t.Fatalf("unexpected skips: %v", skipped)
	}
	pair := map[string][2]bool{} // frac/P key -> {incr seen, full seen}
	for _, c := range cells {
		if c.Kernel != "adaptive" || c.DeltaFrac <= 0 {
			t.Fatalf("malformed adaptive cell: %+v", c)
		}
		if !strings.Contains(c.ID(), "/delta=") {
			t.Fatalf("cell ID %q carries no delta axis", c.ID())
		}
		key := c.ID()[:strings.LastIndex(c.ID(), "/")]
		v := pair[key]
		switch c.Adapt {
		case AdaptIncr:
			v[0] = true
		case AdaptFull:
			v[1] = true
		default:
			t.Fatalf("cell %s has adapt mode %q", c.ID(), c.Adapt)
		}
		pair[key] = v
	}
	for key, v := range pair {
		if !v[0] || !v[1] {
			t.Fatalf("fraction %s missing an arm: incr=%v full=%v", key, v[0], v[1])
		}
	}
}

// A delta fraction outside (0,1] is a configuration error.
func TestAdaptiveGridLegality(t *testing.T) {
	g := AdaptiveGrid()
	g.DeltaFracs = []float64{0, 0.5}
	if _, _, err := g.Expand(); err == nil {
		t.Fatal("delta fraction 0 must be a configuration error")
	}
	g.DeltaFracs = []float64{1.5}
	if _, _, err := g.Expand(); err == nil {
		t.Fatal("delta fraction > 1 must be a configuration error")
	}
}

// An adaptive cell runs end to end through the harness: both maintenance
// modes record positive wall time, and the non-native engines refuse it.
func TestRunCellAdaptive(t *testing.T) {
	opt := testOpts(t)
	opt.Steps, opt.Warmup, opt.Repeats = 2, 0, 2
	for _, mode := range []string{AdaptIncr, AdaptFull} {
		c := Cell{
			Kernel: "adaptive", Class: "2k", Engine: EngineNative,
			P: 2, K: 2, Dist: "cyclic",
			DeltaFrac: 0.05, Adapt: mode,
		}
		bc := RunCell(c, opt)
		if bc.Error != "" {
			t.Fatalf("%s cell error: %s", mode, bc.Error)
		}
		if bc.Wall.Count != 2 || bc.Wall.Score() <= 0 {
			t.Fatalf("%s cell recorded no timing: %+v", mode, bc.Wall)
		}
		if bc.DeltaFrac != 0.05 || bc.Adapt != mode {
			t.Fatalf("delta axis lost on BENCH cell: %+v", bc)
		}
	}

	bad := Cell{
		Kernel: "adaptive", Class: "2k", Engine: EngineNative,
		P: 2, K: 2, Dist: "cyclic",
		DeltaFrac: 0.05, Adapt: "sideways",
	}
	if bc := RunCell(bad, opt); bc.Error == "" {
		t.Fatal("unknown maintenance mode must surface as a cell error")
	}
}
