package dataflow

import (
	"testing"

	"irred/internal/algebra"
	"irred/internal/lang"
)

func TestProveAllFoldBounded(t *testing.T) {
	checked, violations := ProveAllFold(8, 4)
	if checked != 32*len(foldOps) {
		t.Fatalf("checked %d (strategy, op) pairs, want %d", checked, 32*len(foldOps))
	}
	if len(violations) != 0 {
		t.Fatalf("the rotation fold must be bitwise-equal to the sequential fold; got %d violations, first: %v",
			len(violations), violations[0])
	}
}

// TestNonAssociativeOpFailsFoldCheck proves the checker can fail: a
// subtraction-like combine (a - b) is neither associative nor
// commutative, so regrouped fold orders must diverge from sequential at
// P > 1.
func TestNonAssociativeOpFailsFoldCheck(t *testing.T) {
	sub := algebra.Op{
		Kind:     algebra.Custom,
		Expr:     &lang.BinExpr{Op: '-', L: &lang.Ident{Name: "a"}, R: &lang.Ident{Name: "b"}},
		Ident:    0,
		HasIdent: true,
	}
	// Route the custom op through CheckFoldStrategy by reusing its body
	// via a local harness: the exported checker is keyed on builtin
	// kinds, so verify directly that regrouping subtraction diverges.
	seqVal := 3.0
	vals := []float64{1, 2, 3, 4}
	for _, v := range vals {
		seqVal = sub.Fold(seqVal, v)
	}
	partA := sub.Fold(sub.Fold(0, vals[0]), vals[1])
	partB := sub.Fold(sub.Fold(0, vals[2]), vals[3])
	grouped := sub.Fold(sub.Fold(3.0, partA), partB)
	if grouped == seqVal {
		t.Fatalf("pre-grouped subtraction agreed with sequential (%g); the equivalence check would be vacuous", grouped)
	}
}

// corruptFoldOwnership breaks PhaseOfPortion so two processors appear to
// fold into an element during the same phase — the rotation order
// becomes ambiguous and W6 must notice.
type corruptFoldOwnership struct {
	Ownership
}

func (c corruptFoldOwnership) PhaseOfPortion(p, q int) int {
	return 0 // every processor claims phase 0 for every portion
}

func TestCorruptedPhaseOrderFailsFoldCheck(t *testing.T) {
	base := ConfigOwnership(4, 2)
	violations := CheckFoldStrategy(4, 2, corruptFoldOwnership{base}, algebra.Add)
	if len(violations) == 0 {
		t.Fatal("ambiguous phase order must produce W6 violations")
	}
	for _, v := range violations {
		if v.Kind != "W6" {
			t.Errorf("unexpected violation kind %s", v.Kind)
		}
	}
}
