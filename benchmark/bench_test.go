package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// declared is BENCHMARK.json as the driver reads it.
type declared struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []workload   `json:"workloads"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

func readDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeclarationMatches keeps BENCHMARK.json and the program's own tables
// equal: names, units, directions, bounds, workloads and their reasons.
func TestDeclarationMatches(t *testing.T) {
	d := readDeclared(t)
	if !reflect.DeepEqual(d.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json %+v, program %+v", d.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(d.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json %+v, program %+v", d.PerLayer, perLayer)
	}
	if len(d.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, program %d", len(d.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d.Workloads[i].Name != w.Name || d.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, d.Workloads[i].Name, w.Name)
		}
	}
}

// TestSmoke runs all seven workloads through both passes with ~200 ms
// windows: every oracle passes, every premise holds, and the contract line
// carries exactly the declared metrics, each finite. Closure ratios are
// reported but not asserted: windows this short do not steady them.
func TestSmoke(t *testing.T) {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	for _, trace := range []bool{false, true} {
		e, err := newEnv(1, 200*time.Millisecond, 20*time.Millisecond, trace)
		if err != nil {
			t.Fatal(err)
		}
		results, err := runSet(e, names)
		e.close()
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range results {
			if _, err := contractLine(r); err != nil {
				t.Error(err)
			}
			if r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d operations failed", r.Workload, trace, r.Failed, r.Attempted)
			}
			for _, p := range r.Problems {
				if strings.Contains(p, "closure") {
					t.Logf("%s trace=%v: %s", r.Workload, trace, p)
					continue
				}
				t.Errorf("%s trace=%v: %s", r.Workload, trace, p)
			}
			for _, m := range r.Detail {
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit == "" {
					t.Errorf("%s trace=%v: detail %s = %v %q", r.Workload, trace, m.Name, m.Value, m.Unit)
				}
			}
		}
	}
}

func TestOutRefusesBenchDir(t *testing.T) {
	for path, want := range map[string]bool{
		"bench/x.json": true, "../bench/BENCH_x.json": true, "a/bench/b/x.json": true,
		"x.json": false, "benchmark/x.json": false,
	} {
		if got := underBench(path); got != want {
			t.Errorf("underBench(%q) = %v, want %v", path, got, want)
		}
	}
}
