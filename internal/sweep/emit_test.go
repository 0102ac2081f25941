package sweep

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"irred/internal/benchfmt"
)

func emitSummary() *benchfmt.Summary {
	return &benchfmt.Summary{
		Stamp: benchfmt.Stamp{
			Schema: benchfmt.Schema, Date: "2026-08-08",
			Commit: "deadbeefcafe", GoVersion: "go1.22", NumCPU: 4,
		},
		Cells: []benchfmt.Cell{
			{
				ID: "raw/tiny/native/p2/k1/cyclic/unchecked", Kernel: "raw", Class: "tiny",
				Engine: "native", P: 2, K: 1, Dist: "cyclic",
				Steps: 2, Warmup: 1, Repeats: 3,
				Wall:  benchfmt.NewStats([]float64{1.5, 1.6, 1.7}, 0.2),
				P50MS: 1.6, P95MS: 1.7, P99MS: 1.7,
				PhaseMS:   map[string]float64{"compute": 2.0, "wait": 0.5},
				CacheHits: 3, CacheMisses: 1, CacheHitRatio: 0.75,
			},
			{
				ID: "mvm/S/sim/p4/k2/block/checked", Kernel: "mvm", Class: "S",
				Engine: "sim", P: 4, K: 2, Dist: "block",
				SimSeconds: 0.0123,
				Wall:       benchfmt.NewStats([]float64{9}, 0),
			},
			{ID: "raw/tiny/native/p4/k1/cyclic/checked", Error: "boom"},
		},
	}
}

func TestWriteCSV(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sub", "sweep.csv")
	if err := WriteCSV(path, emitSummary()); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want header + 3", len(rows))
	}
	if rows[0][0] != "id" || rows[0][len(rows[0])-1] != "error" {
		t.Fatalf("header = %v", rows[0])
	}
	if rows[1][0] != "raw/tiny/native/p2/k1/cyclic/unchecked" {
		t.Fatalf("first row = %v", rows[1])
	}
	// Every row is rectangular under the declared header.
	for i, r := range rows {
		if len(r) != len(csvHeader) {
			t.Fatalf("row %d has %d columns, want %d", i, len(r), len(csvHeader))
		}
	}
	if rows[3][len(csvHeader)-1] != "boom" {
		t.Fatalf("errored cell row = %v", rows[3])
	}
}

func TestWriteJSONL(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	s := emitSummary()
	if err := WriteJSONL(path, s); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var n int
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec struct {
			Commit string        `json:"commit"`
			Date   string        `json:"date"`
			Cell   benchfmt.Cell `json:"cell"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("line %d: %v", n, err)
		}
		// Every JSONL record is stamped with the build identity.
		if rec.Commit != "deadbeefcafe" || rec.Date != "2026-08-08" {
			t.Fatalf("line %d missing stamp: %+v", n, rec)
		}
		if rec.Cell.ID != s.Cells[n].ID {
			t.Fatalf("line %d cell = %q, want %q", n, rec.Cell.ID, s.Cells[n].ID)
		}
		n++
	}
	if n != 3 {
		t.Fatalf("lines = %d, want 3", n)
	}
}
