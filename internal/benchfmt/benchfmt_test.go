package benchfmt

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestNewStatsTrimMath(t *testing.T) {
	// 10 samples with one wild outlier at each end. trimFrac 0.1 drops
	// exactly one from each end.
	samples := []float64{1000, 10, 11, 12, 10, 11, 12, 10, 11, 0.001}
	s := NewStats(samples, 0.1)
	if s.Count != 10 || s.TrimmedCount != 1 {
		t.Fatalf("count/trim = %d/%d", s.Count, s.TrimmedCount)
	}
	if s.MinMS != 0.001 || s.MaxMS != 1000 {
		t.Fatalf("min/max = %v/%v", s.MinMS, s.MaxMS)
	}
	// Trimmed mean over {10,10,10,11,11,11,12,12} = 10.875.
	if math.Abs(s.TrimmedMS-10.875) > 1e-12 {
		t.Fatalf("trimmed mean = %v, want 10.875", s.TrimmedMS)
	}
	// The untrimmed mean is dragged by the outlier.
	if s.MeanMS < 100 {
		t.Fatalf("mean = %v, expected outlier-dominated", s.MeanMS)
	}
	if s.Score() != s.TrimmedMS {
		t.Fatalf("Score should prefer the trimmed mean")
	}
}

func TestNewStatsSmallSamples(t *testing.T) {
	s := NewStats(nil, 0.1)
	if s.Count != 0 || s.Score() != 0 {
		t.Fatalf("empty stats: %+v", s)
	}
	// With 2 samples no trimming may occur regardless of the fraction.
	s = NewStats([]float64{4, 8}, 0.5)
	if s.TrimmedCount != 0 || s.TrimmedMS != 6 || s.MeanMS != 6 {
		t.Fatalf("2-sample stats: %+v", s)
	}
	// A trim that would consume all samples collapses to no trim.
	s = NewStats([]float64{1, 2, 3, 4}, 0.5)
	if s.TrimmedCount != 0 || s.TrimmedMS != 2.5 {
		t.Fatalf("over-trim stats: %+v", s)
	}
}

func TestNewStatsStdDev(t *testing.T) {
	s := NewStats([]float64{2, 4, 4, 4, 5, 5, 7, 9}, 0)
	if math.Abs(s.StdDevMS-2) > 1e-12 {
		t.Fatalf("stddev = %v, want 2", s.StdDevMS)
	}
}

// goldenSummary is the deterministic summary behind the golden-file
// schema test; every field populated so schema drift is caught.
func goldenSummary() *Summary {
	return &Summary{
		Stamp: Stamp{
			Schema:     Schema,
			Date:       "2026-08-08",
			Time:       "2026-08-08T12:00:00Z",
			Commit:     "0123456789abcdef0123456789abcdef01234567",
			CommitTime: "2026-08-08T11:00:00Z",
			Dirty:      false,
			Module:     "irred",
			Version:    "(devel)",
			GoVersion:  "go1.22.0",
			OS:         "linux",
			Arch:       "amd64",
			NumCPU:     8,
		},
		Cells: []Cell{
			{
				ID: "mvm/S/native/p2/k1/cyclic/unchecked", Kernel: "mvm", Class: "S",
				Engine: "native", P: 2, K: 1, Dist: "cyclic",
				Steps: 3, Warmup: 1, Repeats: 5,
				Wall:  NewStats([]float64{4.0, 4.2, 4.1, 4.3, 9.9}, 0.2),
				P50MS: 4.2, P95MS: 9.9, P99MS: 9.9,
				PhaseMS:   map[string]float64{"compute": 6.5, "copy": 0.4, "wait": 1.1, "update": 0.7, "inspect": 2.0},
				CacheHits: 5, CacheMisses: 1, CacheHitRatio: 5.0 / 6.0,
			},
			{
				ID: "euler/2k/sim/p4/k2/cyclic/checked", Kernel: "euler", Class: "2k",
				Engine: "sim", P: 4, K: 2, Dist: "cyclic",
				Steps: 100, Warmup: 0, Repeats: 1,
				Wall:  NewStats([]float64{12.5}, 0.2),
				P50MS: 12.5, P95MS: 12.5, P99MS: 12.5,
				SimSeconds: 0.0875,
			},
			{
				ID: "raw/small/native/p3/k2/block/checked", Kernel: "raw", Class: "small",
				Engine: "native", P: 3, K: 2, Dist: "block",
				Steps: 3, Warmup: 1, Repeats: 3,
				Error: "injected: example of an errored cell",
			},
		},
		Skipped: []Skip{
			{ID: "mvm/S/interp/p2/k1/cyclic/checked", Reason: "interp is sequential; its canonical cell is P=1 k=1 block"},
			{ID: "euler/2k/interp/p4/k1/cyclic/checked", Reason: "engine interp is sequential; needs P=1 and k=1"},
		},
	}
}

// The golden file pins the BENCH JSON schema: any field rename, type
// change, or serialization drift shows up as a diff against testdata.
func TestGoldenBenchSchema(t *testing.T) {
	got, err := json.MarshalIndent(goldenSummary(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "golden_bench.json")
	if os.Getenv("IRRED_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file missing (run with IRRED_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if string(got) != string(want) {
		t.Fatalf("BENCH schema drifted from golden file.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", FileName("2026-08-08", ""))
	want := goldenSummary()
	if err := Write(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Read(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Commit != want.Commit || len(got.Cells) != len(want.Cells) || len(got.Skipped) != 2 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if c, ok := got.Cell("mvm/S/native/p2/k1/cyclic/unchecked"); !ok || c.Wall.Count != 5 {
		t.Fatalf("cell lookup: %v %v", c, ok)
	}
}

func TestReadRejectsWrongSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_bad.json")
	if err := os.WriteFile(path, []byte(`{"schema":"other/v9","cells":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(path); err == nil {
		t.Fatal("wrong schema must be rejected")
	}
}

func TestLatest(t *testing.T) {
	dir := t.TempDir()
	if _, err := Latest(dir); err == nil {
		t.Fatal("empty dir must error")
	}
	for _, name := range []string{"BENCH_2026-08-01.json", "BENCH_2026-08-08.json", "BENCH_2026-07-30_ci.json", "notbench.json"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("{}"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(got) != "BENCH_2026-08-08.json" {
		t.Fatalf("Latest = %s", got)
	}
}
