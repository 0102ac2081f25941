package dataflow

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"irred/internal/algebra"
	"irred/internal/lang"
)

// Schedule legality. The paper executes every irregular reduction under
// one schedule — k*P rotating portions — on the *assumption* that the
// update is an associative, commutative accumulation. This pass replaces
// the assumption with proof: it classifies every cross-iteration
// dependence of a loop (true reduction / ordered dependence /
// conflicting write), infers the algebraic properties of each reduction
// operator via internal/algebra, and issues a proof-carrying
// ScheduleLicense recording which schedules are legal and why.
//
// The license grants form a small lattice keyed on proof strength:
//
//	Illegal       conflicting write, disproven associativity, or an
//	              ordered cross-iteration dependence
//	RotationOnly  recognized reduction whose algebra is unverifiable —
//	              the paper's schedule, licensed by assumption, with the
//	              ledger saying so
//	TileLegal     associativity+commutativity proven: contributions may
//	              be regrouped and reordered arbitrarily (tiled owner-
//	              computes schedules)
//
// Every grant and refusal is recorded in a machine-checkable
// justification ledger (Verify re-derives the grants from the ledger).

// OpLicense is the per-reduction-operator part of a license.
type OpLicense struct {
	Array string
	Stmt  int // body index of the reduction statement
	Pos   lang.Pos
	// Op is the executable fold operator; for proven Custom combines the
	// identity element is filled in.
	Op    algebra.Op
	Props algebra.Props
	// IdentSuspect marks reductions whose identity is known and nonzero
	// while the target array is not written by any earlier loop: the
	// zero-initialized environment then feeds a non-identity seed into
	// the fold (IRL019's domain). Set by LegalizeProgram.
	IdentSuspect bool
}

// Refusal is a reduction-shaped update whose algebra refuses reordering:
// disproven or unverifiable associativity/commutativity (IRL017's
// domain).
type Refusal struct {
	Pos    lang.Pos
	Array  string
	Reason string
	Cex    string // counterexample, when disproven
}

// Conflict is a conflicting non-reduction write — a static race under
// any parallel schedule (IRL018's domain).
type Conflict struct {
	Pos    lang.Pos
	Array  string
	Reason string
}

// Justification is one ledger entry: a named rule, whether it held, and
// the evidence.
type Justification struct {
	Rule   string
	OK     bool
	Detail string
}

// License is the schedule license of one loop.
type License struct {
	Loop *lang.Loop
	// Grants.
	Rotation bool // the paper's k*P rotating-portion schedule
	Tile     bool // arbitrary regrouping/reordering of contributions
	// Refused-for reasons.
	Conflicting      bool
	ReorderSensitive bool // float result depends on schedule even when licensed
	Ops              []OpLicense
	Refusals         []Refusal
	Conflicts        []Conflict
	Ledger           []Justification
}

func (lic *License) note(rule string, ok bool, format string, args ...any) {
	lic.Ledger = append(lic.Ledger, Justification{Rule: rule, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Level names the strongest license held.
func (lic *License) Level() string {
	switch {
	case lic.Conflicting:
		return "Illegal"
	case len(lic.Ops) == 0:
		if lic.Rotation {
			return "IterationLocal"
		}
		return "Illegal"
	case lic.Tile && lic.Rotation:
		return "TileLegal"
	case lic.Rotation:
		return "RotationOnly"
	case lic.Tile:
		return "TileOnly"
	default:
		return "Illegal"
	}
}

// LegalizeProgram licenses every loop of the program, one License per
// loop in order, and marks IdentSuspect reductions (identity known,
// nonzero, target array never written by an earlier loop).
func LegalizeProgram(prog *lang.Program, opts Options) []*License {
	var out []*License
	written := map[string]bool{}
	for _, l := range prog.Loops {
		lic := LegalizeLoop(prog, l, opts)
		for i := range lic.Ops {
			op := &lic.Ops[i]
			if id, ok := op.Op.Identity(); ok && id != 0 && !written[op.Array] {
				op.IdentSuspect = true
			}
		}
		out = append(out, lic)
		for _, st := range l.Body {
			if st.Target != nil {
				written[st.Target.Array] = true
			}
		}
	}
	return out
}

// LegalizeLoop computes the schedule license of one loop. The pass is
// total: statements the Section 4 analysis would reject contribute
// refusals or conflicts instead of errors, so lint can report on
// malformed programs.
func LegalizeLoop(prog *lang.Program, l *lang.Loop, opts Options) *License {
	lic := &License{Loop: l}
	lf := AnalyzeLoop(prog, l, opts)

	scalars := map[string]bool{}
	varying := func(e lang.Expr) bool {
		found := false
		lang.Walk(e, func(x lang.Expr) {
			if id, ok := x.(*lang.Ident); ok && (id.Name == l.Var || scalars[id.Name]) {
				found = true
			}
		})
		return found
	}
	irregular := func(ix *lang.IndexExpr) bool {
		for _, sub := range ix.Index {
			if _, ok := sub.(*lang.IndexExpr); ok {
				return true
			}
		}
		return false
	}

	// Pass 1: classify writes. Irregular targets become operator
	// licenses, refusals or conflicts; regular targets feed the
	// dependence check below.
	accNodes := map[lang.Expr]bool{}
	regWrites := map[string]bool{}
	irrWrites := map[string]bool{}
	ordered := false
	for idx, st := range l.Body {
		if st.Scalar != "" {
			scalars[st.Scalar] = true
			continue
		}
		if st.Target == nil {
			continue
		}
		if !irregular(st.Target) {
			regWrites[st.Target.Array] = true
			continue
		}
		irrWrites[st.Target.Array] = true
		ol := OpLicense{Array: st.Target.Array, Stmt: idx, Pos: st.Pos}
		switch st.Op {
		case lang.OpAdd, lang.OpSub:
			ol.Op = algebra.Op{Kind: algebra.Add}
		case lang.OpMul:
			ol.Op = algebra.Op{Kind: algebra.Mul}
		case lang.OpMin:
			ol.Op = algebra.Op{Kind: algebra.Min}
		case lang.OpMax:
			ol.Op = algebra.Op{Kind: algebra.Max}
		case lang.OpSet:
			upd, err := algebra.ExtractUpdate(st.Target, st.RHS, varying)
			if errors.Is(err, algebra.ErrNoAcc) {
				lic.Conflicting = true
				lic.Conflicts = append(lic.Conflicts, Conflict{
					Pos: st.Pos, Array: st.Target.Array,
					Reason: fmt.Sprintf("plain overwrite of %s through indirection: when two iterations hit the same element, the surviving value depends on execution order", st.Target),
				})
				continue
			}
			if err != nil {
				lic.Refusals = append(lic.Refusals, Refusal{
					Pos: st.Pos, Array: st.Target.Array,
					Reason: fmt.Sprintf("update is not verifiable as a fold: %v", err),
				})
				continue
			}
			ol.Op = upd.Op
			for _, a := range upd.Acc {
				accNodes[a] = true
			}
		}
		if ol.Op.Kind == algebra.Custom {
			ol.Props = algebra.CheckExpr(ol.Op.Expr)
			if ol.Props.HasIdentity == algebra.Proven {
				ol.Op.Ident, ol.Op.HasIdent = ol.Props.Identity, true
			}
			if ol.Props.Assoc == algebra.Disproven || ol.Props.Comm == algebra.Disproven {
				reason, cex := "associativity disproven", ol.Props.AssocCex
				if ol.Props.Assoc != algebra.Disproven {
					reason, cex = "commutativity disproven", ol.Props.CommCex
				}
				lic.Refusals = append(lic.Refusals, Refusal{
					Pos: st.Pos, Array: st.Target.Array,
					Reason: fmt.Sprintf("%s for combine %s (%s)", reason, ol.Op.Expr, ol.Props.Proof),
					Cex:    cex,
				})
			}
		} else {
			ol.Props = algebra.TableProps(ol.Op.Kind)
		}
		lic.Ops = append(lic.Ops, ol)
	}

	// One combine per reduction array: mixed operators on one array
	// cannot rotate (or fold) as a unit.
	opOf := map[string]string{}
	for _, ol := range lic.Ops {
		key := ol.Op.String()
		if prev, ok := opOf[ol.Array]; ok && prev != key {
			lic.Conflicting = true
			lic.Conflicts = append(lic.Conflicts, Conflict{
				Pos: ol.Pos, Array: ol.Array,
				Reason: fmt.Sprintf("array %q is updated with both %q and %q; mixed folds do not commute", ol.Array, prev, key),
			})
		}
		opOf[ol.Array] = key
	}

	// An array written both regularly and irregularly in one loop races
	// against itself.
	for a := range irrWrites {
		if regWrites[a] {
			lic.Conflicting = true
			lic.Conflicts = append(lic.Conflicts, Conflict{
				Pos: l.Pos, Array: a,
				Reason: fmt.Sprintf("array %q is written both through indirection and at iteration-aligned indices in the same loop", a),
			})
		}
	}

	// A reduction array read anywhere except as its own accumulator is an
	// ordered cross-iteration dependence: the read observes partial sums.
	for _, st := range l.Body {
		st := st
		lang.Walk(st.RHS, func(e lang.Expr) {
			if accNodes[e] || ordered {
				return
			}
			ix, ok := e.(*lang.IndexExpr)
			if !ok || !irrWrites[ix.Array] {
				return
			}
			if decl := prog.Array(ix.Array); decl != nil && decl.Int {
				return
			}
			ordered = true
			lic.note("no-ordered-dep", false,
				"%s: read of reduction array %q at %s observes partial folds; execution order is fixed", st.Pos, ix.Array, ix)
		})
	}

	// Regular arrays: a write at one subscript with a read (or second
	// write) of the same array at a different subscript is a potential
	// cross-iteration dependence unless the interval analysis proves the
	// index sets disjoint. Iteration-aligned pairs (textually identical
	// subscripts) are same-element, same-iteration: legal.
	refs := groupAccesses(lf)
	for _, w := range refs {
		if !w.write || irregular(w.ref) {
			continue
		}
		for _, r := range refs {
			if r.ref == w.ref || r.ref.Array != w.ref.Array || accNodes[lang.Expr(r.ref)] {
				continue
			}
			if r.write && !sameStmtOrder(w, r) {
				continue // the (w, r) pair is checked once, in body order
			}
			if alignedSubscripts(w.ref, r.ref) {
				continue
			}
			dj := false
			for d := range w.idx {
				if d < len(r.idx) && disjoint(w.idx[d], r.idx[d]) {
					dj = true
					lic.note("no-ordered-dep", true,
						"%s and %s touch %q at provably disjoint index sets %s vs %s", w.ref, r.ref, w.ref.Array, w.idx[d], r.idx[d])
					break
				}
			}
			if dj {
				continue
			}
			ordered = true
			kind := "read"
			if r.write {
				kind = "write"
			}
			lic.note("no-ordered-dep", false,
				"write %s may alias %s %s across iterations (intervals overlap); execution order is fixed", w.ref, kind, r.ref)
		}
	}

	// Aggregate the grants and write the ledger.
	lic.note("reduction-form", len(lic.Refusals) == 0 && len(lic.Conflicts) == 0,
		"%d irregular update(s) in recognized fold form, %d refusal(s), %d conflict(s)", len(lic.Ops), len(lic.Refusals), len(lic.Conflicts))
	if !ordered {
		lic.note("no-ordered-dep", true, "no cross-iteration dependence outside the reductions")
	}

	rotation, tile := !lic.Conflicting && !ordered && len(lic.Refusals) == 0, true
	for i := range lic.Ops {
		ol := &lic.Ops[i]
		p := ol.Props
		lic.note("operator-props", p.Assoc != algebra.Disproven && p.Comm != algebra.Disproven,
			"%s %s %s: assoc %s, comm %s, idem %s [%s]", ol.Pos, ol.Array, ol.Op, p.Assoc, p.Comm, p.Idem, p.Proof)
		if id, ok := ol.Op.Identity(); ok {
			lic.note("identity", true, "%s %s: identity element %s", ol.Array, ol.Op, formatIdent(id))
		} else {
			lic.note("identity", false, "%s %s: no identity element found; rotation buffers cannot be seeded", ol.Array, ol.Op)
			rotation = false
		}
		if p.Assoc == algebra.Disproven || p.Comm == algebra.Disproven {
			rotation, tile = false, false
		}
		if p.Assoc != algebra.Proven || p.Comm != algebra.Proven {
			tile = false
		}
		if p.Assoc == algebra.Unknown || p.Comm == algebra.Unknown {
			lic.note("assumption", true, "%s %s: associativity/commutativity unproven; rotation licensed by the Section 4 reduction assumption, not by proof", ol.Array, ol.Op)
		}
		if p.ReorderSensitive {
			lic.ReorderSensitive = true
		}
	}
	if lic.Conflicting || ordered || len(lic.Refusals) > 0 {
		tile = false
	}
	lic.Rotation, lic.Tile = rotation, tile
	if lic.ReorderSensitive && len(lic.Ops) > 0 {
		lic.note("reorder-sensitivity", true, "float rounding depends on fold order: parallel results are schedule-reproducible, not sequential-bitwise")
	}
	lic.note("grant", true, "rotation=%v tile=%v (%s)", lic.Rotation, lic.Tile, lic.Level())
	return lic
}

// Meet combines a parent loop's license with a fissioned child's: the
// child may carry at most what the parent held (fission must not
// silently widen a license).
func Meet(parent, child *License) *License {
	if parent == nil {
		return child
	}
	out := &License{
		Loop:             child.Loop,
		Rotation:         parent.Rotation && child.Rotation,
		Tile:             parent.Tile && child.Tile,
		Conflicting:      parent.Conflicting || child.Conflicting,
		ReorderSensitive: parent.ReorderSensitive || child.ReorderSensitive,
		Ops:              child.Ops,
		Refusals:         append(append([]Refusal(nil), child.Refusals...), parent.Refusals...),
		Conflicts:        append(append([]Conflict(nil), child.Conflicts...), parent.Conflicts...),
		Ledger:           append([]Justification(nil), child.Ledger...),
	}
	if parent.Rotation != child.Rotation || parent.Tile != child.Tile || parent.Conflicting != child.Conflicting {
		out.note("inherited", true, "license met with parent loop's (%s): fission carries, never widens", parent.Level())
	}
	return out
}

// Verify machine-checks the license: the granted flags must be exactly
// what the ledger and the per-operator facts support. A non-nil error
// means the license is internally inconsistent and must not be trusted.
func (lic *License) Verify() error {
	failed := map[string]bool{}
	for _, j := range lic.Ledger {
		if !j.OK {
			failed[j.Rule] = true
		}
	}
	if lic.Rotation && (failed["reduction-form"] || failed["no-ordered-dep"] || failed["identity"]) {
		return fmt.Errorf("dataflow: license grants rotation over a failed ledger rule")
	}
	for _, ol := range lic.Ops {
		p := ol.Props
		if lic.Rotation && (p.Assoc == algebra.Disproven || p.Comm == algebra.Disproven) {
			return fmt.Errorf("dataflow: rotation granted with disproven algebra for %s", ol.Array)
		}
		if lic.Tile && (p.Assoc != algebra.Proven || p.Comm != algebra.Proven) {
			return fmt.Errorf("dataflow: tile granted without proven associativity+commutativity for %s", ol.Array)
		}
	}
	if (lic.Conflicting || len(lic.Refusals) > 0) && (lic.Rotation || lic.Tile) {
		return fmt.Errorf("dataflow: schedule granted despite conflicts/refusals")
	}
	return nil
}

// Report renders the license with its justification ledger, in the style
// of Facts.Report.
func (lic *License) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "loop %s = %s, %s at %s: schedule license %s\n",
		lic.Loop.Var, lic.Loop.Lo, lic.Loop.Hi, lic.Loop.Pos, lic.Level())
	fmt.Fprintf(&b, "  rotation: %s   tile: %s\n", grantWord(lic.Rotation), grantWord(lic.Tile))
	if lic.ReorderSensitive {
		fmt.Fprintf(&b, "  reorder-sensitive: parallel float results differ bitwise from sequential\n")
	}
	for _, ol := range lic.Ops {
		p := ol.Props
		fmt.Fprintf(&b, "  op %s: %s folds via %s: assoc %s, comm %s, idem %s", ol.Pos, ol.Array, ol.Op, p.Assoc, p.Comm, p.Idem)
		if id, ok := ol.Op.Identity(); ok {
			fmt.Fprintf(&b, ", identity %s", formatIdent(id))
		}
		fmt.Fprintf(&b, " [%s]\n", p.Proof)
	}
	for _, r := range lic.Refusals {
		fmt.Fprintf(&b, "  refused %s: %s %s", r.Pos, r.Array, r.Reason)
		if r.Cex != "" {
			fmt.Fprintf(&b, " (counterexample: %s)", r.Cex)
		}
		b.WriteString("\n")
	}
	for _, c := range lic.Conflicts {
		fmt.Fprintf(&b, "  conflict %s: %s %s\n", c.Pos, c.Array, c.Reason)
	}
	for _, j := range lic.Ledger {
		word := "ok"
		if !j.OK {
			word = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s: %s\n", j.Rule, word, j.Detail)
	}
	return b.String()
}

func grantWord(ok bool) string {
	if ok {
		return "granted"
	}
	return "refused"
}

func formatIdent(id float64) string {
	switch {
	case math.IsInf(id, 1):
		return "+inf"
	case math.IsInf(id, -1):
		return "-inf"
	default:
		return fmt.Sprintf("%g", id)
	}
}

// refAccess groups the per-dimension Access entries of one reference.
type refAccess struct {
	ref   *lang.IndexExpr
	stmt  int
	write bool
	idx   []Interval
}

func groupAccesses(lf *LoopFacts) []*refAccess {
	var out []*refAccess
	byRef := map[*lang.IndexExpr]*refAccess{}
	for _, a := range lf.Accesses {
		ra := byRef[a.Ref]
		if ra == nil {
			ra = &refAccess{ref: a.Ref, stmt: a.Stmt, write: a.Write}
			byRef[a.Ref] = ra
			out = append(out, ra)
		}
		ra.idx = append(ra.idx, a.Index)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].stmt < out[j].stmt })
	return out
}

// alignedSubscripts reports textual equality of all subscripts — the
// same element in the same iteration.
func alignedSubscripts(a, b *lang.IndexExpr) bool {
	if len(a.Index) != len(b.Index) {
		return false
	}
	for d := range a.Index {
		if a.Index[d].String() != b.Index[d].String() {
			return false
		}
	}
	return true
}

// sameStmtOrder orders a write/write pair so it is reported once.
func sameStmtOrder(w, r *refAccess) bool { return w.stmt <= r.stmt }
