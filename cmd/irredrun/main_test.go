package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// irredrun runs the command in-process and returns its exit status and
// output streams.
func irredrun(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUnknownDatasetRejectedOnEveryEngine(t *testing.T) {
	for _, engine := range []string{"native", "sim"} {
		code, stdout, stderr := irredrun("-engine", engine, "-kernel", "euler", "-dataset", "5k", "-json")
		if code == 0 {
			t.Errorf("-engine %s -dataset 5k exited 0, printed %q", engine, stdout)
		}
		if stdout != "" {
			t.Errorf("-engine %s -dataset 5k ran: %q", engine, stdout)
		}
		if !strings.Contains(stderr, "euler datasets: 2k, 10k") {
			t.Errorf("-engine %s -dataset 5k: stderr %q does not name the datasets", engine, stderr)
		}
	}
}

func TestDatasetNameIsCaseInsensitive(t *testing.T) {
	report := func(dataset string) runReport {
		t.Helper()
		code, stdout, stderr := irredrun("-engine", "native", "-kernel", "mvm", "-dataset", dataset,
			"-p", "2", "-steps", "2", "-json")
		if code != 0 {
			t.Fatalf("-dataset %s: exit %d: %s", dataset, code, stderr)
		}
		var rep runReport
		if err := json.Unmarshal([]byte(stdout), &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	lower, upper := report("s"), report("S")
	if lower.ResultSHA256 == "" || lower.ResultSHA256 != upper.ResultSHA256 {
		t.Fatalf("result_sha256 %q for -dataset s, %q for -dataset S", lower.ResultSHA256, upper.ResultSHA256)
	}
	if lower.Dataset != "S" {
		t.Fatalf("-dataset s reported as %q, want the canonical S", lower.Dataset)
	}
}
