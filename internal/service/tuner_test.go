package service

import (
	"strings"
	"testing"

	"irred/internal/benchfmt"
	"irred/internal/rts"
)

// trajectoryCell builds a clean measured BENCH cell.
func trajectoryCell(kernel, class, engine string, p, k int, dist string, ms float64) benchfmt.Cell {
	return benchfmt.Cell{
		ID:     kernel + "/" + class + "/" + engine + "/p" + string(rune('0'+p)) + "/k" + string(rune('0'+k)) + "/" + dist + "/checked",
		Kernel: kernel, Class: class, Engine: engine,
		P: p, K: k, Dist: dist,
		Wall: benchfmt.Stats{Count: 5, MeanMS: ms, TrimmedMS: ms},
	}
}

// serviceTrajectory measures mvm/S fastest at native P=2 k=2 cyclic and
// raw/tiny fastest on an engine the service does not run — old
// trajectories carry such cells — ahead of its native P=4 k=2 block cell.
func serviceTrajectory() *benchfmt.Summary {
	return &benchfmt.Summary{
		Stamp: benchfmt.Stamp{Schema: benchfmt.Schema, Date: "2026-08-08"},
		Cells: []benchfmt.Cell{
			trajectoryCell("raw", "tiny", "distributed", 2, 1, "cyclic", 0.4),
			trajectoryCell("raw", "tiny", "native", 4, 2, "block", 0.9),
			trajectoryCell("mvm", "S", "native", 2, 2, "cyclic", 1.2),
			trajectoryCell("mvm", "S", "native", 1, 1, "block", 3.0),
		},
	}
}

func serviceTuner() *rts.Tuner {
	return rts.NewTuner(serviceTrajectory(), rts.TunerOptions{
		MaxP: 8, Engines: []string{"native"},
	})
}

// An Auto job's strategy comes from the trajectory's native cells: the raw
// job passes over the faster cell of a removed engine for its native
// winner, the named kernel lands on its own — and both still produce
// correct results.
func TestAutoJobPicksFromTrajectory(t *testing.T) {
	s := newTestService(t, Options{Workers: 2, Tuner: serviceTuner()})

	raw := rawSpec(3, 0, 0, 800, 97, 2) // 800 iters buckets onto raw/tiny
	raw.Auto = true
	want, err := (&JobSpec{
		NumIters: raw.NumIters, NumElems: raw.NumElems, Ind: raw.Ind,
		Contrib: raw.Contrib, P: 1, K: 1, Steps: raw.Steps,
	}).SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	j, err := s.Submit(raw)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("raw auto job: %s: %s", st.State, st.Error)
	}
	if j.Spec.P != 4 || j.Spec.K != 2 || j.Spec.Engine != "" || j.Spec.Dist != "block" {
		t.Fatalf("raw auto strategy = engine %q P=%d k=%d %s", j.Spec.Engine, j.Spec.P, j.Spec.K, j.Spec.Dist)
	}
	if st.TunedFrom != "raw/tiny/native/p4/k2/block/checked" {
		t.Fatalf("tuned_from = %q", st.TunedFrom)
	}
	if st.ResultSHA256 != HashResult(want) {
		t.Fatal("auto-tuned raw result does not match the sequential reference")
	}

	named := JobSpec{Kernel: "mvm", Dataset: "s", Seed: 1, Steps: 2, Auto: true}
	nj, err := s.Submit(named)
	if err != nil {
		t.Fatal(err)
	}
	nst := waitJob(t, nj)
	if nst.State != StateDone {
		t.Fatalf("named auto job: %s: %s", nst.State, nst.Error)
	}
	if nj.Spec.P != 2 || nj.Spec.K != 2 || nj.Spec.Dist != "cyclic" || nj.Spec.Engine != "" {
		t.Fatalf("named auto strategy = engine %q P=%d k=%d %s", nj.Spec.Engine, nj.Spec.P, nj.Spec.K, nj.Spec.Dist)
	}
	if !strings.HasPrefix(nst.TunedFrom, "mvm/S/native") {
		t.Fatalf("tuned_from = %q", nst.TunedFrom)
	}

	// The two workloads were tuned to demonstrably different strategies.
	if j.Spec.P == nj.Spec.P && j.Spec.Dist == nj.Spec.Dist {
		t.Fatal("auto picks do not differ across workload classes")
	}
}

// Without a tuner, Auto jobs get the paper's heuristic defaults and a
// "heuristic" provenance marker — never a rejection.
func TestAutoJobHeuristicWithoutTuner(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(4, 0, 0, 500, 64, 1)
	spec.Auto = true
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	if st.TunedFrom != "heuristic" {
		t.Fatalf("tuned_from = %q, want heuristic", st.TunedFrom)
	}
	if j.Spec.P < 1 || j.Spec.K < 1 {
		t.Fatalf("heuristic left an invalid strategy: P=%d k=%d", j.Spec.P, j.Spec.K)
	}
}

// A tuner built without an engine allowlist may pick a cell of an engine
// the service does not run; the job takes that pick's shape and still runs
// native instead of being admitted on an engine that is gone.
func TestAutoNamedNeverDistributed(t *testing.T) {
	s := &benchfmt.Summary{
		Stamp: benchfmt.Stamp{Schema: benchfmt.Schema, Date: "2026-08-08"},
		Cells: []benchfmt.Cell{
			trajectoryCell("mvm", "S", "distributed", 2, 1, "cyclic", 0.1),
		},
	}
	tn := rts.NewTuner(s, rts.TunerOptions{MaxP: 8})
	svc := newTestService(t, Options{Workers: 1, Tuner: tn})
	j, err := svc.Submit(JobSpec{Kernel: "mvm", Dataset: "S", Seed: 1, Steps: 1, Auto: true})
	if err != nil {
		t.Fatal(err)
	}
	st := waitJob(t, j)
	if st.State != StateDone {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	if j.Spec.Engine != "" || j.Spec.P != 2 || j.Spec.K != 1 || j.Spec.Dist != "cyclic" {
		t.Fatalf("auto strategy = engine %q P=%d k=%d %s", j.Spec.Engine, j.Spec.P, j.Spec.K, j.Spec.Dist)
	}
}

// The metrics snapshot exports the cumulative queue and schedule-cache
// counters alongside the nested cache block.
func TestMetricsQueueAndCacheCounters(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(5, 2, 1, 600, 64, 1)
	for i := 0; i < 2; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
	}
	m := s.Metrics()
	if m.QueueEnqueued != 2 {
		t.Fatalf("queue_enqueued = %d, want 2", m.QueueEnqueued)
	}
	if m.QueuePeak < 0 || m.QueuePeak > 2 {
		t.Fatalf("queue_peak = %d outside [0,2]", m.QueuePeak)
	}
	if m.CacheHitsTotal != m.Cache.Hits || m.CacheMissesTotal != m.Cache.Misses {
		t.Fatalf("top-level cache counters (%d/%d) diverge from nested (%d/%d)",
			m.CacheHitsTotal, m.CacheMissesTotal, m.Cache.Hits, m.Cache.Misses)
	}
	// Two identical jobs: the first misses the schedule cache, the second hits.
	if m.CacheMissesTotal < 1 || m.CacheHitsTotal < 1 {
		t.Fatalf("cache traffic hits=%d misses=%d, want at least one of each", m.CacheHitsTotal, m.CacheMissesTotal)
	}
}
