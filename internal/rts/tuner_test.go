package rts

import (
	"fmt"
	"path/filepath"
	"testing"

	"irred/internal/benchfmt"
)

// cell builds a clean measured cell with the given trimmed-mean score.
func tunerCell(kernel, class, engine string, p, k int, dist string, ms float64) benchfmt.Cell {
	return benchfmt.Cell{
		ID:     fmt.Sprintf("%s/%s/%s/p%d/k%d/%s/checked", kernel, class, engine, p, k, dist),
		Kernel: kernel, Class: class, Engine: engine,
		P: p, K: k, Dist: dist,
		Wall: benchfmt.Stats{Count: 5, MeanMS: ms, TrimmedMS: ms},
	}
}

// tunerTrajectory is a synthetic BENCH summary in which different
// workload classes are measured fastest on different strategies.
func tunerTrajectory() *benchfmt.Summary {
	s := &benchfmt.Summary{Stamp: benchfmt.Stamp{Schema: benchfmt.Schema, Date: "2026-08-08"}}
	s.Cells = []benchfmt.Cell{
		// mvm/S: native P=4 k=2 cyclic wins.
		tunerCell("mvm", "S", "native", 4, 2, "cyclic", 2.0),
		tunerCell("mvm", "S", "native", 2, 1, "block", 5.0),
		tunerCell("mvm", "S", "native", 4, 1, "block", 3.0),
		tunerCell("mvm", "S", "interp", 1, 1, "block", 40.0),
		// euler/2k: native P=2 k=1 wins over the P=4 cell.
		tunerCell("euler", "2k", "native", 2, 1, "block", 1.5),
		tunerCell("euler", "2k", "native", 4, 2, "cyclic", 4.0),
		tunerCell("euler", "2k", "native", 1, 1, "block", 9.0),
		// raw/small: native P=2 k=1 wins.
		tunerCell("raw", "small", "native", 2, 1, "cyclic", 0.8),
		tunerCell("raw", "small", "native", 2, 2, "cyclic", 1.1),
	}
	// Decoys that must never win: a modeled sim cell faster than
	// everything and a faster-still errored cell.
	sim := tunerCell("mvm", "S", "sim", 4, 2, "cyclic", 0.001)
	sim.SimSeconds = 0.5
	s.Cells = append(s.Cells, sim)
	bad := tunerCell("euler", "2k", "native", 4, 1, "block", 0.001)
	bad.Error = "boom"
	s.Cells = append(s.Cells, bad)
	return s
}

// The headline property: the tuner picks demonstrably different (P, k)
// for different workload classes, from measurement.
func TestTunerPicksDifferPerClass(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{MaxP: 8})

	mvm := tn.Pick("mvm", "S")
	if mvm.Engine != "native" || mvm.P != 4 || mvm.K != 2 || mvm.Dist != "cyclic" {
		t.Fatalf("mvm/S pick = %+v", mvm)
	}
	euler := tn.Pick("euler", "2k")
	if euler.Engine != "native" || euler.P != 2 || euler.K != 1 {
		t.Fatalf("euler/2k pick = %+v", euler)
	}
	raw := tn.Pick("raw", "small")
	if raw.Engine != "native" || raw.P != 2 || raw.K != 1 {
		t.Fatalf("raw/small pick = %+v", raw)
	}
	if mvm.P == euler.P && mvm.K == euler.K {
		t.Fatal("picks do not differ across classes")
	}
	for _, p := range []Pick{mvm, euler, raw} {
		if p.Source == "heuristic" || p.ScoreMS <= 0 {
			t.Fatalf("pick not backed by a measured cell: %+v", p)
		}
	}
}

// Sim and errored cells must never back a pick even when fastest.
func TestTunerExcludesDecoys(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{MaxP: 8})
	if p := tn.Pick("mvm", "S"); p.Engine == "sim" {
		t.Fatalf("sim cell won: %+v", p)
	}
	if p := tn.Pick("euler", "2k"); p.ScoreMS < 1 {
		t.Fatalf("errored cell won: %+v", p)
	}
}

// MaxP excludes cells measured at higher parallelism than the host has.
func TestTunerRespectsMaxP(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{MaxP: 2})
	p := tn.Pick("mvm", "S")
	if p.P > 2 {
		t.Fatalf("pick oversubscribes MaxP=2: %+v", p)
	}
	if p.Engine != "native" || p.P != 2 {
		t.Fatalf("expected the P=2 native cell, got %+v", p)
	}
}

// The engine allowlist models consumers that can only execute a subset
// (the irredd serving path: native only): faster cells of other engines
// never back the pick.
func TestTunerEngineAllowlist(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{
		MaxP: 8, Engines: []string{"interp"},
	})
	p := tn.Pick("mvm", "S")
	if p.Engine != "interp" || p.ScoreMS != 40.0 {
		t.Fatalf("allowlist ignored: %+v", p)
	}
}

// Unknown workloads and nil trajectories fall back to the heuristic.
func TestTunerFallbackHeuristic(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{MaxP: 8})
	p := tn.Pick("moldyn", "10k")
	if p.Source != "heuristic" || p.Engine != "native" || p.P < 1 || p.K < 1 {
		t.Fatalf("fallback pick = %+v", p)
	}
	empty := NewTuner(nil, TunerOptions{MaxP: 2})
	p = empty.Pick("mvm", "S")
	if p.Source != "heuristic" || p.P != 2 || p.K != 2 {
		t.Fatalf("nil-trajectory pick = %+v", p)
	}
}

func TestTunerWorkloads(t *testing.T) {
	tn := NewTuner(tunerTrajectory(), TunerOptions{})
	got := tn.Workloads()
	want := [][2]string{{"euler", "2k"}, {"mvm", "S"}, {"raw", "small"}}
	if len(got) != len(want) {
		t.Fatalf("workloads = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("workloads = %v, want %v", got, want)
		}
	}
}

func TestNewTunerFromDir(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := NewTunerFromDir(dir, TunerOptions{}); err == nil {
		t.Fatal("empty dir must error")
	}
	s := tunerTrajectory()
	if err := benchfmt.Write(filepath.Join(dir, "BENCH_2026-08-01.json"), s); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.Write(filepath.Join(dir, "BENCH_2026-08-08.json"), s); err != nil {
		t.Fatal(err)
	}
	tn, path, err := NewTunerFromDir(dir, TunerOptions{MaxP: 8})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-08-08.json" {
		t.Fatalf("loaded %s, want the newest trajectory", path)
	}
	if p := tn.Pick("mvm", "S"); p.Source == "heuristic" {
		t.Fatalf("trajectory not loaded: %+v", p)
	}
}

// TestNewTunerFromDirBlendsNewestWins: the tuner sees the union of every
// BENCH file in the directory — a cell only the older sweep measured
// still backs picks, while a cell both sweeps measured uses the newer
// measurement even when the older one scored better.
func TestNewTunerFromDirBlendsNewestWins(t *testing.T) {
	dir := t.TempDir()

	old := &benchfmt.Summary{Stamp: benchfmt.Stamp{Schema: benchfmt.Schema, Date: "2026-08-01"}}
	old.Cells = []benchfmt.Cell{
		// Only the old sweep covered moldyn: the blend must keep it.
		tunerCell("moldyn", "10k", "native", 4, 1, "block", 3.0),
		// Both sweeps cover this mvm cell; old says 1ms — stale.
		tunerCell("mvm", "S", "native", 4, 2, "cyclic", 1.0),
	}
	newer := &benchfmt.Summary{Stamp: benchfmt.Stamp{Schema: benchfmt.Schema, Date: "2026-08-08"}}
	newer.Cells = []benchfmt.Cell{
		// Re-measured: slower now, but newest wins over the stale 1ms.
		tunerCell("mvm", "S", "native", 4, 2, "cyclic", 6.0),
		// A competing strategy only the new sweep measured; at 2ms it must
		// beat the re-measured 6ms cell, which it would lose to if the
		// stale 1ms measurement survived the blend.
		tunerCell("mvm", "S", "native", 2, 1, "block", 2.0),
	}
	if err := benchfmt.Write(filepath.Join(dir, "BENCH_2026-08-01.json"), old); err != nil {
		t.Fatal(err)
	}
	if err := benchfmt.Write(filepath.Join(dir, "BENCH_2026-08-08.json"), newer); err != nil {
		t.Fatal(err)
	}

	tn, path, err := NewTunerFromDir(dir, TunerOptions{MaxP: 8})
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "BENCH_2026-08-08.json" {
		t.Fatalf("blend reported %s, want the newest file as provenance", path)
	}
	if p := tn.Pick("moldyn", "10k"); p.Source == "heuristic" || p.ScoreMS != 3.0 {
		t.Fatalf("cell unique to the older sweep lost in the blend: %+v", p)
	}
	if p := tn.Pick("mvm", "S"); p.P != 2 || p.ScoreMS != 2.0 {
		t.Fatalf("stale measurement survived the blend: %+v", p)
	}
	mvmID := "mvm/S/native/p4/k2/cyclic/checked"
	c, ok := tn.Summary().Cell(mvmID)
	if !ok || c.Wall.TrimmedMS != 6.0 {
		t.Fatalf("blended cell %s = %+v, want the 6ms re-measurement", mvmID, c)
	}
	if tn.Summary().Date != "2026-08-08" {
		t.Fatalf("blend stamped %q, want the newest sweep's date", tn.Summary().Date)
	}
}
