package benchfmt

import (
	"fmt"
	"sort"
	"strings"
)

// Verdict classifies one matched cell in a baseline comparison.
type Verdict string

const (
	// VerdictOK: the candidate score is within the threshold band.
	VerdictOK Verdict = "ok"
	// VerdictRegression: candidate slower than baseline by more than the
	// threshold fraction — the gate fails on any of these.
	VerdictRegression Verdict = "regression"
	// VerdictImproved: candidate faster than baseline by more than the
	// threshold fraction (informational; never fails the gate).
	VerdictImproved Verdict = "improved"
)

// Delta is one matched cell's comparison outcome.
type Delta struct {
	ID      string  `json:"id"`
	OldMS   float64 `json:"old_ms"`
	NewMS   float64 `json:"new_ms"`
	Ratio   float64 `json:"ratio"` // new/old; > 1 is slower
	Verdict Verdict `json:"verdict"`
}

// Comparison is the outcome of gating a candidate BENCH summary against
// a baseline.
type Comparison struct {
	Threshold    float64 `json:"threshold"` // allowed fractional slowdown (0.25 = +25%)
	Matched      int     `json:"matched"`
	Regressions  int     `json:"regressions"`
	Improvements int     `json:"improvements"`
	Deltas       []Delta `json:"deltas"`
	// OnlyBaseline / OnlyCandidate list cell IDs present on one side only
	// (grid drift, new engines, errored cells). They are always reported —
	// silent coverage loss is how perf claims rot — and fail the gate only
	// when no cell matched at all.
	OnlyBaseline  []string `json:"only_baseline,omitempty"`
	OnlyCandidate []string `json:"only_candidate,omitempty"`
}

// Failed reports whether the gate should exit non-zero: a matched cell
// regressed, or no cell matched, so the gate compared nothing — a drift
// in cell IDs must not pass as a clean run.
func (c *Comparison) Failed() bool { return c.Regressions > 0 || c.Matched == 0 }

// Compare gates candidate against baseline: every cell present and
// error-free in both is scored by its trimmed-mean wall time, and a
// candidate score above baseline*(1+threshold) is a regression. A
// non-positive threshold defaults to 0.25 (+25%).
func Compare(baseline, candidate *Summary, threshold float64) *Comparison {
	if threshold <= 0 {
		threshold = 0.25
	}
	c := &Comparison{Threshold: threshold}

	base := make(map[string]*Cell, len(baseline.Cells))
	for i := range baseline.Cells {
		if baseline.Cells[i].Error == "" {
			base[baseline.Cells[i].ID] = &baseline.Cells[i]
		}
	}
	seen := make(map[string]bool, len(candidate.Cells))
	for i := range candidate.Cells {
		cell := &candidate.Cells[i]
		seen[cell.ID] = true
		b, ok := base[cell.ID]
		if !ok || cell.Error != "" {
			if cell.Error == "" {
				c.OnlyCandidate = append(c.OnlyCandidate, cell.ID)
			}
			continue
		}
		oldMS, newMS := b.Wall.Score(), cell.Wall.Score()
		d := Delta{ID: cell.ID, OldMS: oldMS, NewMS: newMS, Verdict: VerdictOK}
		if oldMS > 0 {
			d.Ratio = newMS / oldMS
		}
		switch {
		case oldMS > 0 && newMS > oldMS*(1+threshold):
			d.Verdict = VerdictRegression
			c.Regressions++
		case oldMS > 0 && newMS < oldMS*(1-threshold):
			d.Verdict = VerdictImproved
			c.Improvements++
		}
		c.Matched++
		c.Deltas = append(c.Deltas, d)
	}
	for id := range base {
		if !seen[id] {
			c.OnlyBaseline = append(c.OnlyBaseline, id)
		}
	}
	sort.Strings(c.OnlyBaseline)
	sort.Strings(c.OnlyCandidate)
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].ID < c.Deltas[j].ID })
	return c
}

// Table renders the comparison as an aligned text report, regressions
// first, suitable for a CI log.
func (c *Comparison) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "baseline comparison: %d matched, %d regressions, %d improvements (threshold +%.0f%%)\n",
		c.Matched, c.Regressions, c.Improvements, c.Threshold*100)
	rows := append([]Delta(nil), c.Deltas...)
	sort.Slice(rows, func(i, j int) bool {
		if (rows[i].Verdict == VerdictRegression) != (rows[j].Verdict == VerdictRegression) {
			return rows[i].Verdict == VerdictRegression
		}
		return rows[i].Ratio > rows[j].Ratio
	})
	fmt.Fprintf(&b, "%-58s %10s %10s %7s %s\n", "cell", "old_ms", "new_ms", "ratio", "verdict")
	for _, d := range rows {
		fmt.Fprintf(&b, "%-58s %10.3f %10.3f %6.2fx %s\n", d.ID, d.OldMS, d.NewMS, d.Ratio, d.Verdict)
	}
	for _, id := range c.OnlyBaseline {
		fmt.Fprintf(&b, "only in baseline:  %s\n", id)
	}
	for _, id := range c.OnlyCandidate {
		fmt.Fprintf(&b, "only in candidate: %s\n", id)
	}
	return b.String()
}
