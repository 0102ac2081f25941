package sweep

import (
	"testing"

	"irred/internal/service"
)

func testOpts(t *testing.T) Options {
	t.Helper()
	cache, err := service.NewCache(64, "")
	if err != nil {
		t.Fatal(err)
	}
	return Options{Steps: 2, Warmup: 1, Repeats: 3, TrimFrac: 0.2, Seed: 1, Cache: cache}
}

// The cell harness must attribute schedule-cache traffic: a fresh cache
// misses on the warmup run and hits on every later run of the same cell.
func TestRunCellNativeRawCacheTraffic(t *testing.T) {
	opt := testOpts(t)
	c := Cell{Kernel: "raw", Class: "tiny", Engine: EngineNative, P: 2, K: 2, Dist: "cyclic"}
	bc := RunCell(c, opt)
	if bc.Error != "" {
		t.Fatalf("cell error: %s", bc.Error)
	}
	if bc.Wall.Count != 3 {
		t.Fatalf("Wall.Count = %d, want 3", bc.Wall.Count)
	}
	if bc.Wall.Score() <= 0 || bc.P50MS <= 0 {
		t.Fatalf("no timing recorded: %+v", bc.Wall)
	}
	// 4 runs (1 warmup + 3 repeats): 1 inspector miss, 3 cache hits.
	if bc.CacheHits != 3 || bc.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 3/1", bc.CacheHits, bc.CacheMisses)
	}
	if bc.CacheHitRatio != 0.75 {
		t.Fatalf("cache hit ratio = %v, want 0.75", bc.CacheHitRatio)
	}
	if bc.PhaseMS["compute"] <= 0 {
		t.Fatalf("no compute span recorded: %v", bc.PhaseMS)
	}
	if bc.PhaseMS["inspect"] <= 0 {
		t.Fatalf("no inspector span recorded: %v", bc.PhaseMS)
	}
}

// Every engine must execute its canonical cell end to end.
func TestRunCellEngines(t *testing.T) {
	cells := []Cell{
		{Kernel: "mvm", Class: "S", Engine: EngineNative, P: 2, K: 1, Dist: "cyclic"},
		{Kernel: "euler", Class: "2k", Engine: EngineNative, P: 2, K: 2, Dist: "block"},
		{Kernel: "moldyn", Class: "2k", Engine: EngineNative, P: 2, K: 1, Dist: "cyclic"},
		{Kernel: "mvm", Class: "S", Engine: EngineInterp, P: 1, K: 1, Dist: "block"},
		{Kernel: "mvm", Class: "S", Engine: EngineSim, P: 2, K: 1, Dist: "cyclic"},
		{Kernel: "raw", Class: "tiny", Engine: EngineNative, P: 2, K: 2, Dist: "cyclic"},
	}
	opt := testOpts(t)
	opt.Steps, opt.Warmup, opt.Repeats = 1, 0, 1
	for _, c := range cells {
		t.Run(c.ID(), func(t *testing.T) {
			bc := RunCell(c, opt)
			if bc.Error != "" {
				t.Fatalf("cell error: %s", bc.Error)
			}
			if bc.Wall.Count != 1 || bc.Wall.Score() <= 0 {
				t.Fatalf("no timing: %+v", bc.Wall)
			}
			if c.Engine == EngineSim && bc.SimSeconds <= 0 {
				t.Fatalf("sim cell recorded no modeled seconds: %+v", bc)
			}
		})
	}
}

// A cell that cannot execute is recorded as errored, never panics the
// sweep.
func TestRunCellErrorRecorded(t *testing.T) {
	bc := RunCell(Cell{Kernel: "raw", Class: "huge", Engine: EngineNative, P: 2, K: 1, Dist: "block"}, testOpts(t))
	if bc.Error == "" {
		t.Fatal("unknown class must surface as a cell error")
	}
	if bc.Wall.Count != 0 {
		t.Fatalf("errored cell carries stats: %+v", bc.Wall)
	}
}

func TestRunSummary(t *testing.T) {
	g := Grid{
		Kernels: []string{"raw"},
		Classes: map[string][]string{"raw": {"tiny"}},
		Ps:      []int{1, 2},
		Ks:      []int{1},
		Dists:   []string{"cyclic"},
		Engines: []string{EngineNative, EngineInterp},
	}
	opt := testOpts(t)
	var lines int
	opt.Progress = func(string, ...any) { lines++ }
	s, err := Run(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	// native p1 and p2 run; raw has no interp path, so both are skipped.
	if len(s.Cells) != 2 {
		t.Fatalf("cells = %d, want 2: %+v", len(s.Cells), s.Cells)
	}
	if len(s.Skipped) != 2 {
		t.Fatalf("skips = %d, want 2: %v", len(s.Skipped), s.Skipped)
	}
	for _, c := range s.Cells {
		if c.Error != "" {
			t.Fatalf("cell %s: %s", c.ID, c.Error)
		}
	}
	if s.Schema == "" {
		t.Fatal("summary carries no schema")
	}
	if lines != 2 {
		t.Fatalf("progress lines = %d, want 2", lines)
	}
}
