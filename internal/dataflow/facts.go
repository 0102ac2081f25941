package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"irred/internal/lang"
)

// Obligation is one discharged (or undischarged) bounds-check obligation
// in a proof artifact: a single subscript dimension of a single reference
// occurrence, the interval derived for it, and the extent it was compared
// against.
type Obligation struct {
	Ref    string   // rendered reference, e.g. "x[ia[i, 0]]"
	Pos    lang.Pos // source position of the reference
	Dim    int      // subscript dimension
	Index  string   // rendered subscript interval
	Extent string   // rendered extent
	Write  bool
	Proven bool
}

// Facts is the proof artifact attached to a compiled loop. It records
// every bounds obligation the analysis discharged and whether the whole
// loop is proven (AllProven → the bytecode runs without range checks).
// Facts is pure data — safe to retain, print, and compare after the loop
// is gone.
type Facts struct {
	// LoopPos and LoopDesc identify the proven loop for reports.
	LoopPos  lang.Pos
	LoopDesc string

	Obligations []Obligation

	// AllProven: every subscript occurrence of the compiled body is proven
	// in-bounds, so the bytecode was emitted without range checks.
	AllProven bool

	// Scanned lists the indirection arrays whose content intervals came
	// from a runtime ScanInt32 pass rather than static reasoning.
	Scanned []string

	proven map[*lang.IndexExpr]bool
}

// Proof assembles the artifact for a loop from its analysis facts.
// scanned names the arrays whose Contents intervals were measured at
// runtime (they become part of the proof's provenance).
func (lf *LoopFacts) Proof(scanned []string) *Facts {
	f := &Facts{
		LoopPos:   lf.Loop.Pos,
		LoopDesc:  fmt.Sprintf("loop %s = %s, %s", lf.Loop.Var, lf.Loop.Lo, lf.Loop.Hi),
		AllProven: lf.AllProven(),
		Scanned:   append([]string(nil), scanned...),
		proven:    map[*lang.IndexExpr]bool{},
	}
	sort.Strings(f.Scanned)
	for _, a := range lf.Accesses {
		f.Obligations = append(f.Obligations, Obligation{
			Ref:    a.Ref.String(),
			Pos:    a.Ref.Pos,
			Dim:    a.Dim,
			Index:  a.Index.String(),
			Extent: a.Extent.String(),
			Write:  a.Write,
			Proven: a.Status == Proven,
		})
		if p, seen := f.proven[a.Ref]; !seen {
			f.proven[a.Ref] = a.Status == Proven
		} else {
			f.proven[a.Ref] = p && a.Status == Proven
		}
	}
	return f
}

// RefProven reports whether the artifact proves every dimension of the
// given reference occurrence in-bounds. References the artifact has never
// seen are unproven.
func (f *Facts) RefProven(ix *lang.IndexExpr) bool {
	if f == nil || f.proven == nil {
		return false
	}
	return f.proven[ix]
}

// Report renders the artifact as the optimization report shown by
// `irredc -opt-report`.
func (f *Facts) Report() string {
	var b strings.Builder
	state := "INCOMPLETE (checked execution)"
	if f.AllProven {
		state = "complete (unchecked execution)"
	}
	fmt.Fprintf(&b, "%s at %s: bounds proof %s\n", f.LoopDesc, f.LoopPos, state)
	for _, o := range f.Obligations {
		verdict := "UNPROVEN -> checked"
		if o.Proven {
			verdict = "proven"
		}
		kind := "read "
		if o.Write {
			kind = "write"
		}
		fmt.Fprintf(&b, "  %s %-24s dim %d: %s within [0, %s): %s\n",
			kind, o.Ref, o.Dim, o.Index, o.Extent, verdict)
	}
	if len(f.Scanned) > 0 {
		fmt.Fprintf(&b, "  runtime scans: %s\n", strings.Join(f.Scanned, ", "))
	}
	return b.String()
}
