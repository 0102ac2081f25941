package rts_test

import (
	"testing"

	"irred/internal/benchfmt"
	"irred/internal/rts"
	"irred/internal/sweep"
)

// Trajectories recorded before an engine was removed still hold its
// cells ("treefold" in the seed trajectory). The allowlists the tuner's
// consumers pass — sweep.Engines for irredrun -auto, native only for
// irredd — must skip them, even when one is the fastest cell of its
// workload.
func TestTunerSkipsRemovedEngineCells(t *testing.T) {
	cell := func(engine string, p, k int, dist string, ms float64) benchfmt.Cell {
		return benchfmt.Cell{
			ID:     "mvm/S/" + engine + "/" + dist,
			Kernel: "mvm", Class: "S", Engine: engine,
			P: p, K: k, Dist: dist,
			Wall: benchfmt.Stats{Count: 5, MeanMS: ms, TrimmedMS: ms},
		}
	}
	s := &benchfmt.Summary{Cells: []benchfmt.Cell{
		cell("treefold", 2, 1, "block", 1.0),
		cell("native", 2, 2, "cyclic", 2.0),
	}}
	for _, engines := range [][]string{sweep.Engines, {sweep.EngineNative}} {
		tn := rts.NewTuner(s, rts.TunerOptions{MaxP: 8, Engines: engines})
		p := tn.Pick("mvm", "S")
		if p.Engine != sweep.EngineNative || p.K != 2 || p.Dist != "cyclic" {
			t.Fatalf("engines %v: pick = %+v, want the native cell", engines, p)
		}
	}
}
