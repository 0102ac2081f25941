package benchfmt

import (
	"strings"
	"testing"
)

// mkSummary builds a summary with one cell per (id, trimmed-mean ms).
func mkSummary(cells map[string]float64) *Summary {
	s := &Summary{Stamp: Stamp{Schema: Schema, Date: "2026-08-08"}}
	for id, ms := range cells {
		s.Cells = append(s.Cells, Cell{ID: id, Wall: Stats{Count: 5, MeanMS: ms, TrimmedMS: ms}})
	}
	return s
}

func TestCompareCleanRun(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 10, "b": 20})
	cand := mkSummary(map[string]float64{"a": 10.5, "b": 19})
	c := Compare(base, cand, 0.25)
	if c.Failed() || c.Regressions != 0 || c.Matched != 2 {
		t.Fatalf("clean run flagged: %+v", c)
	}
	for _, d := range c.Deltas {
		if d.Verdict != VerdictOK {
			t.Fatalf("delta %+v", d)
		}
	}
}

func TestCompareDetectsInjectedRegression(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 10, "b": 20, "c": 5})
	// b inflated 10x — an injected regression well past any threshold.
	cand := mkSummary(map[string]float64{"a": 10, "b": 200, "c": 5})
	c := Compare(base, cand, 0.25)
	if !c.Failed() || c.Regressions != 1 {
		t.Fatalf("injected regression missed: %+v", c)
	}
	var reg *Delta
	for i := range c.Deltas {
		if c.Deltas[i].Verdict == VerdictRegression {
			reg = &c.Deltas[i]
		}
	}
	if reg == nil || reg.ID != "b" || reg.Ratio != 10 {
		t.Fatalf("regression delta: %+v", reg)
	}
	if !strings.Contains(c.Table(), "regression") {
		t.Fatalf("table must name the verdict:\n%s", c.Table())
	}
}

func TestCompareThresholdBand(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 100})
	// +24% is inside a 25% band; +26% is outside.
	if Compare(base, mkSummary(map[string]float64{"a": 124}), 0.25).Failed() {
		t.Fatal("+24% must pass a 25% gate")
	}
	if !Compare(base, mkSummary(map[string]float64{"a": 126}), 0.25).Failed() {
		t.Fatal("+26% must fail a 25% gate")
	}
}

func TestCompareImprovement(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 100})
	c := Compare(base, mkSummary(map[string]float64{"a": 40}), 0.25)
	if c.Failed() || c.Improvements != 1 {
		t.Fatalf("improvement misclassified: %+v", c)
	}
}

func TestCompareUnmatchedAndErrored(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 10, "gone": 5})
	cand := mkSummary(map[string]float64{"a": 10, "new": 7})
	cand.Cells = append(cand.Cells, Cell{ID: "broken", Error: "boom"})
	base.Cells = append(base.Cells, Cell{ID: "basebroken", Error: "boom"})
	c := Compare(base, cand, 0.25)
	if c.Failed() || c.Matched != 1 {
		t.Fatalf("unexpected verdicts: %+v", c)
	}
	if len(c.OnlyBaseline) != 1 || c.OnlyBaseline[0] != "gone" {
		t.Fatalf("OnlyBaseline = %v", c.OnlyBaseline)
	}
	// An errored candidate cell never counts as coverage; errored
	// baseline cells are dropped from the baseline set entirely.
	if len(c.OnlyCandidate) != 1 || c.OnlyCandidate[0] != "new" {
		t.Fatalf("OnlyCandidate = %v", c.OnlyCandidate)
	}
}

func TestCompareDefaultThreshold(t *testing.T) {
	base := mkSummary(map[string]float64{"a": 10})
	c := Compare(base, mkSummary(map[string]float64{"a": 10}), 0)
	if c.Threshold != 0.25 {
		t.Fatalf("default threshold = %v", c.Threshold)
	}
}

// A comparison that matched no cell fails the gate: a drift in cell IDs
// (or an empty sweep) would otherwise pass it by comparing nothing.
func TestCompareNothingMatchedFails(t *testing.T) {
	base := mkSummary(map[string]float64{"a/checked": 10, "b/checked": 20})
	c := Compare(base, mkSummary(map[string]float64{"a/unchecked": 10, "b/unchecked": 20}), 0.25)
	if c.Matched != 0 || c.Regressions != 0 || !c.Failed() {
		t.Fatalf("ID drift passed the gate: %+v", c)
	}
	if len(c.OnlyBaseline) != 2 || len(c.OnlyCandidate) != 2 {
		t.Fatalf("unmatched cells not reported: %+v", c)
	}
	if c := Compare(base, &Summary{}, 0.25); !c.Failed() {
		t.Fatalf("empty candidate passed the gate: %+v", c)
	}
	if c := Compare(base, mkSummary(map[string]float64{"a/checked": 10}), 0.25); c.Failed() {
		t.Fatalf("one matched clean cell failed the gate: %+v", c)
	}
}
