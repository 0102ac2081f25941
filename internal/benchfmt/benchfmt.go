// Package benchfmt defines the persisted BENCH trajectory format: the
// schema of the `BENCH_<date>.json` summaries written by cmd/irredsweep,
// the per-cell statistics they carry, and the baseline comparator behind
// the CI regression gate.
//
// The package is deliberately a leaf — standard library only — so both
// the sweep harness (internal/sweep) and the runtime tuner
// (internal/rts) can consume trajectories without an import cycle:
// sweep imports rts to execute cells, rts imports benchfmt to pick
// (engine, P, k) from measured data.
package benchfmt

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Schema identifies the BENCH JSON layout. Readers reject files whose
// schema does not match — a trajectory from a future incompatible layout
// must fail loudly, not mis-parse into zeros that look like a 100x win.
const Schema = "irred-bench/v1"

// Stamp is the identity block of a BENCH summary: when it ran, on what
// commit, with which toolchain, on what machine class. Every field comes
// from internal/buildinfo plus the harness clock; "unknown" marks
// metadata the build did not embed.
type Stamp struct {
	Schema     string `json:"schema"`
	Date       string `json:"date"` // YYYY-MM-DD, also used in the filename
	Time       string `json:"time"` // RFC3339 start of the sweep
	Commit     string `json:"commit"`
	CommitTime string `json:"commit_time"`
	Dirty      bool   `json:"dirty"`
	Module     string `json:"module"`
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	NumCPU     int    `json:"num_cpu"`
}

// Stats summarizes the repeat wall times of one cell. The trimmed mean —
// the comparator's score — drops the TrimmedCount fastest and slowest
// repeats before averaging, so a single GC pause or cold page fault does
// not flip the regression gate.
type Stats struct {
	Count        int     `json:"count"`
	TrimmedCount int     `json:"trimmed_count"` // repeats dropped from EACH end
	MeanMS       float64 `json:"mean_ms"`
	TrimmedMS    float64 `json:"trimmed_mean_ms"`
	MinMS        float64 `json:"min_ms"`
	MaxMS        float64 `json:"max_ms"`
	StdDevMS     float64 `json:"stddev_ms"`
}

// NewStats aggregates samples (milliseconds), trimming floor(n*trimFrac)
// samples from each end of the sorted order for the trimmed mean. With
// fewer than 3 samples, or a trim that would consume everything, the
// trimmed mean falls back to the plain mean.
func NewStats(samples []float64, trimFrac float64) Stats {
	s := Stats{Count: len(samples)}
	if len(samples) == 0 {
		return s
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	s.MinMS, s.MaxMS = sorted[0], sorted[len(sorted)-1]
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	s.MeanMS = sum / float64(len(sorted))
	var varsum float64
	for _, v := range sorted {
		d := v - s.MeanMS
		varsum += d * d
	}
	s.StdDevMS = math.Sqrt(varsum / float64(len(sorted)))

	trim := 0
	if trimFrac > 0 {
		trim = int(float64(len(sorted)) * trimFrac)
	}
	if len(sorted) < 3 || 2*trim >= len(sorted) {
		trim = 0
	}
	s.TrimmedCount = trim
	kept := sorted[trim : len(sorted)-trim]
	var tsum float64
	for _, v := range kept {
		tsum += v
	}
	s.TrimmedMS = tsum / float64(len(kept))
	return s
}

// Score is the single number the comparator and the tuner rank cells by.
func (s Stats) Score() float64 {
	if s.TrimmedMS > 0 {
		return s.TrimmedMS
	}
	return s.MeanMS
}

// Cell is one measured grid point of the sweep.
type Cell struct {
	// ID is the canonical cell key: kernel/class/engine/P/K/dist/checked.
	// Matched cells in two BENCH files describe the same workload and
	// strategy. The last segment is the literal "checked", kept so that IDs
	// match older files; trajectories from before it was fixed also hold
	// ".../unchecked" cells.
	ID     string `json:"id"`
	Kernel string `json:"kernel"`
	Class  string `json:"class"`
	Engine string `json:"engine"`
	P      int    `json:"p"`
	K      int    `json:"k"`
	Dist   string `json:"dist"`

	// DeltaFrac and Adapt describe adaptive streaming cells: the fraction
	// of iterations each adaptation step rewires, and the schedule
	// maintenance path measured — "incr" (Schedule.Update on the resident
	// schedules) or "full" (LightInspector rebuild). Zero/empty on
	// ordinary cells.
	DeltaFrac float64 `json:"delta_frac,omitempty"`
	Adapt     string  `json:"adapt,omitempty"`

	Steps   int `json:"steps"`
	Warmup  int `json:"warmup"`
	Repeats int `json:"repeats"`

	Wall Stats `json:"wall_ms"`

	// Latency percentiles over the recorded repeats (irredload-style,
	// from the shared reservoir estimator).
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`

	// PhaseMS is the per-phase span budget from internal/obs, total
	// milliseconds per span name (compute, copy, wait, update, inspect)
	// across the recorded repeats. Engines that record no spans leave it
	// empty.
	PhaseMS map[string]float64 `json:"phase_ms,omitempty"`

	// Schedule-cache traffic attributed to this cell (internal/service
	// cache counters, delta across the cell's runs).
	CacheHits     int64   `json:"cache_hits"`
	CacheMisses   int64   `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`

	// SimSeconds is the modeled MANNA seconds for engine=sim cells (the
	// wall stats then time the simulation itself).
	SimSeconds float64 `json:"sim_seconds,omitempty"`

	// Error marks a cell that failed to execute; errored cells carry no
	// stats and are excluded from comparison and tuning.
	Error string `json:"error,omitempty"`
}

// Skip records a grid point the expansion refused, with the legality
// rule that refused it — the sweep never silently drops coverage.
type Skip struct {
	ID     string `json:"id"`
	Reason string `json:"reason"`
}

// Summary is one whole BENCH_<date>.json: identity stamp, measured
// cells, and the grid points skipped as illegal.
type Summary struct {
	Stamp
	Cells   []Cell `json:"cells"`
	Skipped []Skip `json:"skipped,omitempty"`
}

// Cell looks up a cell by ID.
func (s *Summary) Cell(id string) (*Cell, bool) {
	for i := range s.Cells {
		if s.Cells[i].ID == id {
			return &s.Cells[i], true
		}
	}
	return nil, false
}

// Write marshals the summary (indented, trailing newline) to path,
// creating parent directories as needed.
func Write(path string, s *Summary) error {
	if s.Schema == "" {
		s.Schema = Schema
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return fmt.Errorf("benchfmt: marshal: %w", err)
	}
	data = append(data, '\n')
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("benchfmt: %w", err)
		}
	}
	return os.WriteFile(path, data, 0o644)
}

// Read loads and validates a BENCH summary.
func Read(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("benchfmt: %s: %w", path, err)
	}
	if s.Schema != Schema {
		return nil, fmt.Errorf("benchfmt: %s: schema %q, want %q", path, s.Schema, Schema)
	}
	return &s, nil
}

// All returns every BENCH_*.json in dir in ascending chronological order
// — the naming convention (BENCH_YYYY-MM-DD[_hhmmss].json) makes lexical
// order chronological — or an error when none exist.
func All(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "BENCH_*.json"))
	if err != nil {
		return nil, fmt.Errorf("benchfmt: %w", err)
	}
	if len(matches) == 0 {
		return nil, fmt.Errorf("benchfmt: no BENCH_*.json in %s", dir)
	}
	sort.Strings(matches)
	return matches, nil
}

// Latest returns the lexically newest BENCH_*.json in dir, or an error
// when none exist.
func Latest(dir string) (string, error) {
	matches, err := All(dir)
	if err != nil {
		return "", err
	}
	return matches[len(matches)-1], nil
}

// FileName renders the canonical summary filename for a date stamp,
// with an optional suffix to disambiguate multiple runs per day.
func FileName(date, suffix string) string {
	if suffix != "" {
		return fmt.Sprintf("BENCH_%s_%s.json", date, strings.ReplaceAll(suffix, " ", "-"))
	}
	return fmt.Sprintf("BENCH_%s.json", date)
}
