package kernels_test

import (
	"testing"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/service"
)

// TestOpenPinsTheNamedProblems pins the result of a short native run (P=2,
// k=2 cyclic, 3 steps, seed 1) on each named problem, so a change to what
// Open builds for a name, or to the slice a kernel reports as its result,
// changes a hash. mvm A and B are left out for their size.
func TestOpenPinsTheNamedProblems(t *testing.T) {
	for _, c := range []struct{ kernel, dataset, sha string }{
		{"mvm", "S", "b2fcfddf0619b9b0535cff0e8a0a3f27f0201994bc2cbc97c850b6d2407d609c"},
		{"mvm", "W", "6e67bc0db8055dff2185e75dcbcb80de350efb8dd3ec32c656926ef27b66b546"},
		{"euler", "2k", "a78842ca590c471be6f1e958a2e4c35290b0ffc0ac2b97b204c0cdf174036f33"},
		{"euler", "10k", "1efc1cbc9ccd2c5d911ab922fdd7102ab6961f5d8d8ecf649e9e8a07ecc5b5e8"},
		{"moldyn", "2k", "3849f162b5ce0821dc56d5c7b34365fdb8f247d91b4d019189186f88cd6cb28d"},
		{"moldyn", "10k", "8fd8ee84b66f70c872d882814b395513bff8c43ae379ec4aaaf5211ef5a4dae7"},
	} {
		w, err := kernels.Open(c.kernel, c.dataset, 1)
		if err != nil {
			t.Fatal(err)
		}
		n, got, err := w.NewNativeFrom(nil, 2, 2, inspector.Cyclic)
		if err != nil {
			t.Fatal(err)
		}
		if err := n.Run(3); err != nil {
			t.Fatal(err)
		}
		if sha := service.HashResult(got); sha != c.sha {
			t.Errorf("%s %s: result sha256 %s, want %s", c.kernel, c.dataset, sha, c.sha)
		}
	}
}
