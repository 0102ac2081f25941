package rts

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"irred/internal/inspector"
)

// linearKind is one of the service's contribution kinds in the data form,
// over refs references: "ones" has nil weights and coefficients 1,
// "weights" coefficients 1, "pair" alternating coefficients 1, -1, ...
func linearKind(kind string, refs int, w []float64) (weights, coef []float64) {
	coef = make([]float64, refs)
	for r := range coef {
		coef[r] = 1
		if kind == "pair" && r%2 == 1 {
			coef[r] = -1
		}
	}
	if kind == "ones" {
		return nil, coef
	}
	return w, coef
}

// linearWeights are weights whose sums depend on the fold order, with
// +0 and -0 among them.
func linearWeights(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		switch i % 7 {
		case 3:
			w[i] = 0
		case 5:
			w[i] = math.Copysign(0, -1)
		default:
			w[i] = blockContrib(i, 0)
		}
	}
	return w
}

// TestLinearContribsBitwise: contributions given as data, the same values
// written by a block function, and the data form through the guarded
// bodies (forced on) fold every element in the same order, for every
// contribution kind over one, two and three references, at P = 1..4 and
// k = 1..2 under both distributions.
func TestLinearContribsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for refs := 1; refs <= 3; refs++ {
		for _, kind := range []string{"ones", "weights", "pair"} {
			for p := 1; p <= 4; p++ {
				for k := 1; k <= 2; k++ {
					for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
						l := randLoop(rng, p, k, 900, 120, refs, dist, 1)
						scheds, err := l.Schedules()
						if err != nil {
							t.Fatal(err)
						}
						weights, coef := linearKind(kind, refs, linearWeights(l.Cfg.NumIters))
						data := func(n *Native) { n.Weights, n.Coef = weights, coef }
						block := func(_ int, its []int32, out []float64) {
							for j, it := range its {
								w := 1.0
								if weights != nil {
									w = weights[it]
								}
								for r, c := range coef {
									out[j*refs+r] = c * w
								}
							}
						}
						fast := runReduce(t, l, scheds, data)
						blocks := runReduce(t, l, scheds, func(n *Native) { n.ContribBlock = block })
						guarded := runReduce(t, l, scheds, func(n *Native) { data(n); n.guarded = true })
						shape := fmt.Sprintf("%s refs=%d P=%d k=%d %v", kind, refs, p, k, dist)
						if i := sameBits(fast, blocks); i >= 0 {
							t.Fatalf("%s: x[%d] data %v, block %v", shape, i, fast[i], blocks[i])
						}
						if i := sameBits(fast, guarded); i >= 0 {
							t.Fatalf("%s: x[%d] data %v, guarded %v", shape, i, fast[i], guarded[i])
						}
					}
				}
			}
		}
	}
}

// TestLinearContribsRejectsMalformed: a data form the fast body cannot
// fold is an error from Run, before any worker starts.
func TestLinearContribsRejectsMalformed(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, tc := range []struct {
		name, want string
		edit       func(l *Loop)
		wire       func(n *Native)
	}{
		{"coefficients", "coefficients", nil, func(n *Native) { n.Coef = []float64{1, -1, 1} }},
		{"weights", "weights", nil, func(n *Native) {
			n.Weights, n.Coef = make([]float64, n.Loop.Cfg.NumIters-1), []float64{1, -1}
		}},
		{"components", "components", func(l *Loop) { l.Cost.Comp = 3 }, func(n *Native) { n.Coef = []float64{1, -1} }},
		{"gather", "gather", func(l *Loop) { l.Mode, l.Ind = Gather, l.Ind[:1] }, func(n *Native) {
			n.Coef, n.Consume = []float64{1}, func(int, int, []float64) {}
		}},
	} {
		l := randLoop(rng, 2, 2, 200, 64, 2, inspector.Cyclic, 1)
		if tc.edit != nil {
			tc.edit(l)
		}
		n, err := NewNative(l)
		if err != nil {
			t.Fatal(err)
		}
		tc.wire(n)
		if err := n.Run(1); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: err = %v, want one naming %q", tc.name, err, tc.want)
		}
	}
}

// TestLinearContribsReplacedDirtySet: a Native folding data checks a
// replaced schedule set as the block form does, and reports a target
// outside the image instead of faulting on it.
func TestLinearContribsReplacedDirtySet(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	l := randLoop(rng, 3, 2, 400, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Weights, n.Coef = linearWeights(l.Cfg.NumIters), []float64{1, -1}
	if err := n.Run(1); err != nil {
		t.Fatal(err)
	}
	n.Scheds = inspector.CloneSchedules(n.Scheds)
	corruptScheduleTarget(t, n.Scheds, 1<<20)
	if err := n.Run(1); err == nil || !strings.Contains(err.Error(), "target check") {
		t.Fatalf("replaced dirty set: err = %v, want a target check violation", err)
	}
}
