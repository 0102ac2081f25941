package kernels

import (
	"slices"
	"strings"
	"testing"
)

func TestDatasetNames(t *testing.T) {
	if got := Names(); !slices.Equal(got, []string{"mvm", "euler", "moldyn"}) {
		t.Fatalf("Names() = %v; a new kernel needs its own <Kernel>NativeMatchesSequential test", got)
	}
	for _, name := range Names() {
		for _, ds := range Datasets(name) {
			for _, spelling := range []string{ds, strings.ToLower(ds), strings.ToUpper(ds)} {
				if got, err := Dataset(name, spelling); err != nil || got != ds {
					t.Errorf("Dataset(%q, %q) = %q, %v; want %q", name, spelling, got, err, ds)
				}
			}
		}
	}
	for _, c := range []struct{ kernel, dataset, msg string }{
		{"mvm", "Z", `mvm datasets: S, W, A, B (got "Z")`},
		{"euler", "5k", `euler datasets: 2k, 10k (got "5k")`},
		{"moldyn", "", `moldyn datasets: 2k, 10k (got "")`},
		{"nope", "S", `unknown kernel "nope"`},
	} {
		if _, err := Dataset(c.kernel, c.dataset); err == nil || err.Error() != c.msg {
			t.Errorf("Dataset(%q, %q) error %v, want %s", c.kernel, c.dataset, err, c.msg)
		}
		if _, err := Open(c.kernel, c.dataset, 1); err == nil || err.Error() != c.msg {
			t.Errorf("Open(%q, %q) error %v, want %s", c.kernel, c.dataset, err, c.msg)
		}
	}
}
