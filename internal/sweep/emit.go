package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"irred/internal/benchfmt"
	"irred/internal/obs"
)

// csvHeader is the stable column order of the CSV emitter. Phase columns
// cover the span names the engines record; engines that record no spans
// leave them zero.
var csvHeader = []string{
	"id", "kernel", "class", "engine", "p", "k", "dist",
	"delta_frac", "adapt",
	"steps", "warmup", "repeats",
	"mean_ms", "trimmed_mean_ms", "min_ms", "max_ms", "stddev_ms",
	"p50_ms", "p95_ms", "p99_ms",
	"cache_hits", "cache_misses", "cache_hit_ratio",
	"sim_seconds",
	"compute_ms", "copy_ms", "wait_ms", "update_ms", "inspect_ms",
	"error",
}

// WriteCSV renders the summary's cells as one CSV row per cell.
func WriteCSV(path string, s *benchfmt.Summary) error {
	if err := ensureDir(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	w := csv.NewWriter(f)
	if err := w.Write(csvHeader); err != nil {
		f.Close()
		return fmt.Errorf("sweep: %w", err)
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for i := range s.Cells {
		c := &s.Cells[i]
		row := []string{
			c.ID, c.Kernel, c.Class, c.Engine,
			strconv.Itoa(c.P), strconv.Itoa(c.K), c.Dist,
			ff(c.DeltaFrac), c.Adapt,
			strconv.Itoa(c.Steps), strconv.Itoa(c.Warmup), strconv.Itoa(c.Repeats),
			ff(c.Wall.MeanMS), ff(c.Wall.TrimmedMS), ff(c.Wall.MinMS), ff(c.Wall.MaxMS), ff(c.Wall.StdDevMS),
			ff(c.P50MS), ff(c.P95MS), ff(c.P99MS),
			strconv.FormatInt(c.CacheHits, 10), strconv.FormatInt(c.CacheMisses, 10), ff(c.CacheHitRatio),
			ff(c.SimSeconds),
			ff(c.PhaseMS[obs.SpanCompute]), ff(c.PhaseMS[obs.SpanCopy]), ff(c.PhaseMS[obs.SpanWait]),
			ff(c.PhaseMS[obs.SpanUpdate]), ff(c.PhaseMS[obs.SpanInspect]),
			c.Error,
		}
		if err := w.Write(row); err != nil {
			f.Close()
			return fmt.Errorf("sweep: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return fmt.Errorf("sweep: %w", err)
	}
	return f.Close()
}

// jsonlRecord is one JSONL line: the cell plus the identity stamp, so a
// single grep-able line carries everything needed to attribute a number
// to a commit and machine.
type jsonlRecord struct {
	benchfmt.Stamp
	Cell benchfmt.Cell `json:"cell"`
}

// WriteJSONL renders the summary as one stamped JSON object per cell.
func WriteJSONL(path string, s *benchfmt.Summary) error {
	if err := ensureDir(path); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	enc := json.NewEncoder(f)
	for i := range s.Cells {
		if err := enc.Encode(jsonlRecord{Stamp: s.Stamp, Cell: s.Cells[i]}); err != nil {
			f.Close()
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return f.Close()
}

func ensureDir(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	return nil
}
