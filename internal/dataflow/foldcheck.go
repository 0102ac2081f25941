package dataflow

import (
	"fmt"
	"sort"

	"irred/internal/algebra"
)

// W6 — fold-schedule equivalence. The rotation schedule folds a
// reduction element in a parallel order: each processor pre-groups its
// contributions (in its iteration order) into a buffer partial, and the
// partials fold into the element in phase order — the order in which each
// processor owns the element's portion.
//
// For integral data and the builtin operators that order is exact, so it
// must agree *bitwise* with the sequential fold. CheckFoldStrategy
// verifies that, abstractly, for one ownership strategy: every element
// (one per portion), every processor contributing a deterministic pair
// of integral values. A violation means the pre-grouping or the phase
// order breaks the algebra — exactly the bug class W1–W5 cannot see.

// foldOps are the builtin operators checked. Mul uses a restricted value
// set (see contribution) so products stay exactly representable.
var foldOps = []algebra.Kind{algebra.Add, algebra.Mul, algebra.Min, algebra.Max}

// contribution is the j-th integral value processor proc feeds into
// element e. Deterministic, spread over negatives and positives; for Mul
// the values stay in {1, 2} so that up to 2*P contributions at P <= 8
// remain exactly representable (2^16 << 2^53).
func contribution(kind algebra.Kind, e, proc, j int) float64 {
	if kind == algebra.Mul {
		return float64(1 + (e+proc+j)%2)
	}
	return float64((e*31+proc*7+j*3)%11 - 5)
}

// seed is the element's initial value.
func seed(kind algebra.Kind) float64 {
	switch kind {
	case algebra.Mul:
		return 2
	case algebra.Min:
		return 4
	case algebra.Max:
		return -4
	default:
		return 3
	}
}

// CheckFoldStrategy verifies the rotation-order fold against the
// sequential fold for one ownership strategy and one operator,
// bitwise. Each processor contributes perProc values per element, in
// global iteration order proc-major (a block distribution of
// iterations).
func CheckFoldStrategy(p, k int, own Ownership, kind algebra.Kind) []Violation {
	const maxViolations = 32
	const perProc = 2
	var out []Violation
	report := func(format string, args ...any) {
		if len(out) < maxViolations {
			out = append(out, Violation{P: p, K: k, Kind: "W6", Msg: fmt.Sprintf(format, args...)})
		}
	}
	op := algebra.Op{Kind: kind}
	ident, ok := op.Identity()
	if !ok {
		report("operator %s has no identity; fold schedules need one", op)
		return out
	}
	P := own.Procs()
	nph := own.Phases()
	for e := 0; e < nph; e++ { // one element per portion
		// Sequential: the element folds every contribution in global
		// iteration order.
		x := seed(kind)
		for proc := 0; proc < P; proc++ {
			for j := 0; j < perProc; j++ {
				x = op.Fold(x, contribution(kind, e, proc, j))
			}
		}

		// Per-processor partials, each seeded with the identity and folded
		// in the processor's own iteration order — the rotation buffer's
		// pre-grouping.
		partial := make([]float64, P)
		for proc := 0; proc < P; proc++ {
			partial[proc] = ident
			for j := 0; j < perProc; j++ {
				partial[proc] = op.Fold(partial[proc], contribution(kind, e, proc, j))
			}
		}

		// Rotation order: processors fold into the element during the
		// phase in which they own its portion.
		order := make([]int, P)
		for proc := range order {
			order[proc] = proc
		}
		sort.Slice(order, func(i, j int) bool {
			return own.PhaseOfPortion(order[i], e) < own.PhaseOfPortion(order[j], e)
		})
		for i := 1; i < P; i++ {
			if own.PhaseOfPortion(order[i-1], e) == own.PhaseOfPortion(order[i], e) {
				report("element %d: processors %d and %d own its portion in the same phase", e, order[i-1], order[i])
			}
		}
		rot := seed(kind)
		for _, proc := range order {
			rot = op.Fold(rot, partial[proc])
		}

		if rot != x {
			report("op %s element %d: rotation fold %g != sequential %g", op, e, rot, x)
		}
	}
	return out
}

// ProveAllFold exhausts every strategy with 1 <= P <= maxP and
// 1 <= k <= maxK over every builtin operator, checking the production
// ownership map's fold order. Empty violations means rotation is
// bitwise-equal to the sequential fold across the whole bounded space.
func ProveAllFold(maxP, maxK int) (checked int, violations []Violation) {
	for p := 1; p <= maxP; p++ {
		for k := 1; k <= maxK; k++ {
			for _, kind := range foldOps {
				violations = append(violations, CheckFoldStrategy(p, k, ConfigOwnership(p, k), kind)...)
				checked++
			}
		}
	}
	return checked, violations
}
