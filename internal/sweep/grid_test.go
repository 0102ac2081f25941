package sweep

import (
	"strings"
	"testing"
)

// A native-only grid over one kernel is a pure cartesian product: every
// point is legal, so |cells| = |P| * |k| * |dist|.
func TestExpandCartesianProduct(t *testing.T) {
	g := Grid{
		Kernels: []string{"mvm"},
		Classes: map[string][]string{"mvm": {"S"}},
		Ps:      []int{1, 2},
		Ks:      []int{1, 2},
		Dists:   []string{"block", "cyclic"},
		Engines: []string{EngineNative},
	}
	cells, skipped, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8 || len(skipped) != 0 {
		t.Fatalf("cells = %d, skipped = %d, want 8/0", len(cells), len(skipped))
	}
	seen := map[string]bool{}
	for _, c := range cells {
		if seen[c.ID()] {
			t.Fatalf("duplicate cell %s", c.ID())
		}
		seen[c.ID()] = true
	}
	if !seen["mvm/S/native/p2/k1/cyclic/checked"] {
		t.Fatalf("expected canonical cell missing; have %v", seen)
	}
}

func TestDefaultGridExpands(t *testing.T) {
	cells, skipped, err := DefaultGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("default grid expanded to no cells")
	}
	for _, s := range skipped {
		if s.Reason == "" {
			t.Fatalf("skip %s has no reason", s.ID)
		}
	}
	for _, c := range cells {
		if c.Engine == EngineInterp && (c.P != 1 || c.K != 1) {
			t.Fatalf("parallel interp cell: %s", c.ID())
		}
	}
}

func TestSmallGridExpands(t *testing.T) {
	cells, _, err := SmallGrid().Expand()
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]bool{}
	for _, c := range cells {
		engines[c.Engine] = true
	}
	// The CI short sweep must still cross every engine.
	for _, e := range Engines {
		if !engines[e] {
			t.Fatalf("small grid never reaches engine %s (cells: %d)", e, len(cells))
		}
	}
}

// skipOf returns the reason the grid point was skipped, "" if it ran.
func skipOf(t *testing.T, g Grid, wantCells int) string {
	t.Helper()
	cells, skipped, err := g.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != wantCells {
		t.Fatalf("cells = %d, want %d (skips: %v)", len(cells), wantCells, skipped)
	}
	if len(skipped) == 0 {
		return ""
	}
	return skipped[0].Reason
}

func TestExpandSkipRules(t *testing.T) {
	one := func(kernel, class, engine string, p, k int, dist string) Grid {
		return Grid{
			Kernels: []string{kernel},
			Classes: map[string][]string{kernel: {class}},
			Ps:      []int{p}, Ks: []int{k}, Dists: []string{dist},
			Engines: []string{engine},
		}
	}
	cases := []struct {
		name string
		g    Grid
		want string // substring of the skip reason; "" = cell must run
	}{
		{"raw_has_no_interp", one("raw", "tiny", EngineInterp, 1, 1, "block"), "does not support engine interp"},
		{"interp_canonical_runs", one("mvm", "S", EngineInterp, 1, 1, "block"), ""},
		{"interp_is_sequential", one("mvm", "S", EngineInterp, 2, 1, "block"), "interp is sequential"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantCells := 0
			if tc.want == "" {
				wantCells = 1
			}
			reason := skipOf(t, tc.g, wantCells)
			if tc.want == "" && reason != "" {
				t.Fatalf("unexpected skip: %s", reason)
			}
			if tc.want != "" && !strings.Contains(reason, tc.want) {
				t.Fatalf("skip reason %q does not mention %q", reason, tc.want)
			}
		})
	}
}

func TestExpandConfigErrors(t *testing.T) {
	base := func() Grid {
		return Grid{
			Kernels: []string{"mvm"},
			Classes: map[string][]string{"mvm": {"S"}},
			Ps:      []int{1}, Ks: []int{1}, Dists: []string{"block"},
			Engines: []string{EngineNative},
		}
	}
	cases := map[string]func(*Grid){
		"unknown_kernel":   func(g *Grid) { g.Kernels = []string{"fft"} },
		"unknown_class":    func(g *Grid) { g.Classes = map[string][]string{"mvm": {"XXL"}} },
		"unknown_engine":   func(g *Grid) { g.Engines = []string{"quantum"} },
		"removed_engine":   func(g *Grid) { g.Engines = []string{"distributed"} },
		"removed_treefold": func(g *Grid) { g.Engines = []string{"treefold"} },
		"unknown_dist":     func(g *Grid) { g.Dists = []string{"diagonal"} },
		"p_out_of_range":   func(g *Grid) { g.Ps = []int{0} },
		"k_out_of_range":   func(g *Grid) { g.Ks = []int{65} },
		"empty_dim":        func(g *Grid) { g.Engines = nil },
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			g := base()
			mutate(&g)
			if _, _, err := g.Expand(); err == nil {
				t.Fatal("malformed grid must be a configuration error, not a skip")
			}
		})
	}
}

func TestCellID(t *testing.T) {
	c := Cell{Kernel: "raw", Class: "tiny", Engine: "native", P: 3, K: 2, Dist: "block"}
	want := "raw/tiny/native/p3/k2/block/checked"
	if c.ID() != want {
		t.Fatalf("ID = %q, want %q", c.ID(), want)
	}
	a := Cell{Kernel: "adaptive", Class: "2k", Engine: "native", P: 2, K: 2, Dist: "cyclic", DeltaFrac: 0.05, Adapt: AdaptIncr}
	if a.ID() != "adaptive/2k/native/p2/k2/cyclic/checked/delta=0.05/incr" {
		t.Fatalf("ID = %q", a.ID())
	}
}
