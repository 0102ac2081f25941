package dataflow

import (
	"fmt"
	"sort"
	"strings"

	"irred/internal/lang"
)

// Inter-loop schedule reuse. The paper's economics amortize one
// inspection over many executor sweeps of one loop; multi-loop programs
// (a CG solve, euler time-stepping) repeat the *same* traversal in
// several fissioned loops per sweep, and each of those loops paying its
// own inspection forfeits the amortization. This pass proves when two
// loops must receive bitwise-identical schedules — same indirection
// columns, same iteration/element extents, no intervening write to any
// covered indirection array — and issues a proof-carrying ReuseLicense:
// grants with a named-rule ledger, refusals with positions, and a
// Verify self-check that re-derives every grant from the program so a
// forged or tampered license is rejected rather than trusted.
//
// The rules, named in every grant's ledger:
//
//	same-indirection     both loops traverse the same indirection
//	                     columns, in the same reference order
//	same-extent          same iteration space [lo, hi) and the same
//	                     reduction-array element extent, so the
//	                     inspector Config fields agree
//	no-intervening-write no statement between the two inspections
//	                     writes any covered indirection array
//	no-resize            extents are declared parameters/literals; IRL
//	                     has no resize, so NumIters/NumElems cannot
//	                     drift between the loops
//
// Reuse is content-addressed downstream: consumers key shared schedule
// slots on inspector.ScheduleKey, so even a forged grant cannot corrupt
// a run — it can only be caught (Verify, the W8 model check, IRL022).

// IndSig is one indirection column a loop's reductions traverse, in
// reference order: the analysis.IndRef shape (array, literal column,
// -1 for 1-D) that codegen extracts into the inspector's ind slices.
type IndSig struct {
	Array string
	Col   int
}

func (s IndSig) String() string {
	if s.Col < 0 {
		return s.Array + "(*)"
	}
	return fmt.Sprintf("%s(*,%d)", s.Array, s.Col)
}

// ReuseSig is the schedule-identity signature of one loop: two loops
// with equal signatures and no intervening indirection write receive
// bitwise-identical schedules from the (deterministic) inspector.
type ReuseSig struct {
	Loop int      // program loop index
	Refs []IndSig // indirection columns, in reference order (SectionRefs)
	Lo   string   // iteration space, rendered bounds
	Hi   string
	// Elems is the reduction arrays' element extent (all reduction
	// arrays of one loop must agree for the loop to build at all),
	// rendered through the bound parameters.
	Elems string
	// Arrays is the distinct indirection arrays covered, sorted — the
	// kill set for intervening writes.
	Arrays []string
}

// Key is the signature's equivalence-class key. The reduction arrays
// themselves are deliberately absent: reducing into q versus z changes
// no inspector input, only the executor's data columns.
func (s *ReuseSig) Key() string {
	var b strings.Builder
	for _, r := range s.Refs {
		b.WriteString(r.String())
		b.WriteByte(';')
	}
	fmt.Fprintf(&b, "[%s,%s)x%s", s.Lo, s.Hi, s.Elems)
	return b.String()
}

func (s *ReuseSig) refsKey() string {
	var b strings.Builder
	for _, r := range s.Refs {
		b.WriteString(r.String())
		b.WriteByte(';')
	}
	return b.String()
}

// ReuseGrant licenses loop To to execute against the schedules
// inspected for loop From. Every grant carries its own justification
// ledger; Verify re-derives each rule from the program.
type ReuseGrant struct {
	From, To int
	FromPos  lang.Pos // position of the representative (inspecting) loop
	Pos      lang.Pos // position of the reusing loop
	Arrays   []string // covered indirection arrays, sorted
	Ledger   []Justification
}

func (g *ReuseGrant) note(rule string, ok bool, format string, args ...any) {
	g.Ledger = append(g.Ledger, Justification{Rule: rule, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ReuseRefusal is a reuse opportunity the prover declined. Stale marks
// the reuse-after-write case — the signatures matched but a write at
// Pos invalidated the inspected contents (IRL022's domain); non-stale
// refusals record weaker mismatches such as differing extent facts.
type ReuseRefusal struct {
	From, To int
	Pos      lang.Pos // the invalidating write for stale refusals
	Array    string   // the written indirection array (stale only)
	Stale    bool
	Reason   string
}

// ReuseLicense is the program-level reuse proof: per-loop signatures,
// grants, refusals, and a program ledger.
type ReuseLicense struct {
	Prog *lang.Program
	Opts Options
	// Sigs has one entry per program loop; nil for loops with no
	// irregular reduction in inspectable form.
	Sigs     []*ReuseSig
	Grants   []*ReuseGrant
	Refusals []ReuseRefusal
	Ledger   []Justification
}

func (rl *ReuseLicense) note(rule string, ok bool, format string, args ...any) {
	rl.Ledger = append(rl.Ledger, Justification{Rule: rule, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// ReuseOf reports the representative loop whose schedules loop idx is
// licensed to reuse, or -1 when the loop must inspect for itself.
func (rl *ReuseLicense) ReuseOf(idx int) int {
	for _, g := range rl.Grants {
		if g.To == idx {
			return g.From
		}
	}
	return -1
}

// SectionRefs lowers a loop's irregular updates, in body order, to the
// runtime's references: update u reduces into arrays[u] through section
// secs[u]. Sections shared by several reduction arrays share one
// reference, the paper's reference group: u joins the earliest reference
// through secs[u] that comes after every reference already carrying
// arrays[u], and opens a new one when there is none, so each array still
// receives its contributions in body order. refOf[u] is u's reference.
// codegen lays out its columns by this rule, and the reuse signature
// carries its references, so equal signatures mean equal columns.
func SectionRefs[S comparable](secs []S, arrays []string) (refs []S, refOf []int) {
	var carries []map[string]bool
	for u, s := range secs {
		q := -1
		for r := len(refs) - 1; r >= 0 && !carries[r][arrays[u]]; r-- {
			if refs[r] == s {
				q = r
			}
		}
		if q < 0 {
			q = len(refs)
			refs = append(refs, s)
			carries = append(carries, map[string]bool{})
		}
		carries[q][arrays[u]] = true
		refOf = append(refOf, q)
	}
	return refs, refOf
}

// loopSig extracts the schedule-identity signature of one loop, or nil
// when the loop has no irregular reduction in the inspectable shape
// (target subscripted by ind[i] or ind[i, lit] with i the loop
// variable). Its references are the columns codegen extracts: the body's
// irregular updates lowered by SectionRefs.
func loopSig(prog *lang.Program, idx int, l *lang.Loop, opts Options) *ReuseSig {
	sig := &ReuseSig{Loop: idx, Lo: l.Lo.String(), Hi: l.Hi.String()}
	reds := map[string]bool{}
	var targets []string
	for _, st := range l.Body {
		if st.Target == nil {
			continue
		}
		var nested *lang.IndexExpr
		for _, sub := range st.Target.Index {
			if ix, ok := sub.(*lang.IndexExpr); ok {
				nested = ix
				break
			}
		}
		if nested == nil {
			continue
		}
		ref, ok := indRefOf(nested, l.Var)
		if !ok {
			return nil // analysis refuses the loop; nothing to reuse
		}
		sig.Refs = append(sig.Refs, ref)
		targets = append(targets, st.Target.Array)
		reds[st.Target.Array] = true
	}
	if len(sig.Refs) == 0 {
		return nil
	}
	sig.Refs, _ = SectionRefs(sig.Refs, targets)

	// All reduction arrays of one loop must share an extent for the loop
	// to build; the signature carries that common extent. Disagreement
	// is a build error elsewhere — here it just voids the signature.
	var elems string
	for _, a := range sortedKeys(reds) {
		decl := prog.Array(a)
		if decl == nil || len(decl.Dims) == 0 {
			return nil
		}
		e := extentBound(decl.Dims[0], opts.Params).String()
		if elems != "" && e != elems {
			return nil
		}
		elems = e
	}
	sig.Elems = elems

	arrays := map[string]bool{}
	for _, r := range sig.Refs {
		arrays[r.Array] = true
	}
	sig.Arrays = sortedKeys(arrays)
	return sig
}

// indRefOf recognizes the inspectable indirection shape ind[i] or
// ind[i, lit] with i the loop variable.
func indRefOf(ix *lang.IndexExpr, loopVar string) (IndSig, bool) {
	if len(ix.Index) == 0 || len(ix.Index) > 2 {
		return IndSig{}, false
	}
	id, ok := ix.Index[0].(*lang.Ident)
	if !ok || id.Name != loopVar {
		return IndSig{}, false
	}
	ref := IndSig{Array: ix.Array, Col: -1}
	if len(ix.Index) == 2 {
		num, ok := ix.Index[1].(*lang.Num)
		if !ok || num.Val != float64(int(num.Val)) {
			return IndSig{}, false
		}
		ref.Col = int(num.Val)
	}
	return ref, true
}

// writeEvent is the latest statement that wrote an (indirection) array.
type writeEvent struct {
	Loop  int
	Pos   lang.Pos
	Array string
}

// reuseClass tracks one live equivalence class of inspections.
type reuseClass struct {
	rep    int // representative loop whose inspection is current
	repPos lang.Pos
	stale  *writeEvent // set when an intervening write invalidated rep
}

// ProveReuse runs the inter-loop reuse prover over the whole program.
// It is total: malformed or uninspectable loops contribute no
// signature (and no grants) but their writes still kill classes.
func ProveReuse(prog *lang.Program, opts Options) *ReuseLicense {
	rl := &ReuseLicense{Prog: prog, Opts: opts}
	rl.note("no-resize", true,
		"array extents are declared parameters or literals; IRL has no resize statement, so NumIters/NumElems are loop-invariant")

	classes := map[string]*reuseClass{} // full signature key -> class
	lastRefs := map[string]int{}        // refs-only key -> latest loop index
	intArray := map[string]bool{}       // indirection candidates (int decls)
	for _, d := range prog.Arrays {
		if d.Int {
			intArray[d.Name] = true
		}
	}

	for idx, l := range prog.Loops {
		sig := loopSig(prog, idx, l, opts)
		rl.Sigs = append(rl.Sigs, sig)
		if sig != nil {
			rl.matchLoop(sig, l, classes, lastRefs)
			lastRefs[sig.refsKey()] = idx
		}
		// The loop's own writes take effect after its inspection: a loop
		// that rewires its own indirection invalidates every covering
		// class — including the one it just seeded — for later loops.
		for _, st := range l.Body {
			if st.Target == nil || !intArray[st.Target.Array] {
				continue
			}
			ev := &writeEvent{Loop: idx, Pos: st.Pos, Array: st.Target.Array}
			for _, c := range classes {
				if c.stale != nil {
					continue
				}
				if sigCovers(rl.Sigs, c.rep, st.Target.Array) {
					c.stale = ev
				}
			}
		}
	}

	rl.note("reuse", true, "%d grant(s), %d refusal(s) over %d loop(s)",
		len(rl.Grants), len(rl.Refusals), len(prog.Loops))
	return rl
}

// sigCovers reports whether loop rep's signature covers array a.
func sigCovers(sigs []*ReuseSig, rep int, a string) bool {
	if rep < 0 || rep >= len(sigs) || sigs[rep] == nil {
		return false
	}
	for _, arr := range sigs[rep].Arrays {
		if arr == a {
			return true
		}
	}
	return false
}

// matchLoop resolves one inspectable loop against the live classes:
// grant, stale refusal (re-seating the class), extent refusal, or a
// fresh class.
func (rl *ReuseLicense) matchLoop(sig *ReuseSig, l *lang.Loop, classes map[string]*reuseClass, lastRefs map[string]int) {
	key := sig.Key()
	c, ok := classes[key]
	if !ok {
		// Same columns under different extent facts is worth reporting:
		// the traversal repeats but the inspector Config does not.
		if from, ok := lastRefs[sig.refsKey()]; ok {
			fromSig := rl.Sigs[from]
			rl.Refusals = append(rl.Refusals, ReuseRefusal{
				From: from, To: sig.Loop, Pos: l.Pos,
				Reason: fmt.Sprintf("extent facts differ: loop %d is [%s,%s)x%s, loop %d is [%s,%s)x%s",
					from, fromSig.Lo, fromSig.Hi, fromSig.Elems, sig.Loop, sig.Lo, sig.Hi, sig.Elems),
			})
		}
		classes[key] = &reuseClass{rep: sig.Loop, repPos: l.Pos}
		return
	}
	if c.stale != nil {
		rl.Refusals = append(rl.Refusals, ReuseRefusal{
			From: c.rep, To: sig.Loop, Pos: c.stale.Pos, Array: c.stale.Array, Stale: true,
			Reason: fmt.Sprintf("indirection array %q is written at %s between loop %d's inspection and loop %d; the inspected schedule is stale",
				c.stale.Array, c.stale.Pos, c.rep, sig.Loop),
		})
		c.rep, c.repPos, c.stale = sig.Loop, l.Pos, nil
		return
	}
	g := &ReuseGrant{
		From: c.rep, To: sig.Loop,
		FromPos: c.repPos, Pos: l.Pos,
		Arrays: append([]string(nil), sig.Arrays...),
	}
	refs := make([]string, len(sig.Refs))
	for i, r := range sig.Refs {
		refs[i] = r.String()
	}
	g.note("same-indirection", true, "loops %d and %d traverse %s in the same reference order", g.From, g.To, strings.Join(refs, ", "))
	g.note("same-extent", true, "both inspect iteration space [%s, %s) over %s elements", sig.Lo, sig.Hi, sig.Elems)
	g.note("no-intervening-write", true, "no statement between loop %d and loop %d writes %s", g.From, g.To, strings.Join(g.Arrays, ", "))
	g.note("no-resize", true, "extents are loop-invariant declarations")
	rl.Grants = append(rl.Grants, g)
}

// Verify machine-checks the license against the program it claims to
// describe: every grant's premises are re-derived from scratch, so a
// grant that was forged, tampered with, or re-attached to a different
// program fails. A non-nil error means the license must not be
// consumed.
func (rl *ReuseLicense) Verify() error {
	if rl.Prog == nil {
		return fmt.Errorf("dataflow: reuse license carries no program")
	}
	fresh := ProveReuse(rl.Prog, rl.Opts)
	for _, g := range rl.Grants {
		if g.From < 0 || g.To <= g.From || g.To >= len(rl.Prog.Loops) {
			return fmt.Errorf("dataflow: reuse grant %d→%d is out of program order", g.From, g.To)
		}
		for _, j := range g.Ledger {
			if !j.OK {
				return fmt.Errorf("dataflow: reuse grant %d→%d over a failed ledger rule %q", g.From, g.To, j.Rule)
			}
		}
		fromSig := loopSig(rl.Prog, g.From, rl.Prog.Loops[g.From], rl.Opts)
		toSig := loopSig(rl.Prog, g.To, rl.Prog.Loops[g.To], rl.Opts)
		if fromSig == nil || toSig == nil {
			return fmt.Errorf("dataflow: reuse grant %d→%d names a loop with no inspectable signature", g.From, g.To)
		}
		if fromSig.Key() != toSig.Key() {
			return fmt.Errorf("dataflow: reuse grant %d→%d spans unequal signatures %q vs %q", g.From, g.To, fromSig.Key(), toSig.Key())
		}
		if !equalStrings(g.Arrays, toSig.Arrays) {
			return fmt.Errorf("dataflow: reuse grant %d→%d covers %v, signature says %v", g.From, g.To, g.Arrays, toSig.Arrays)
		}
		// Premise: no write to a covered array in [From, To) — writes in
		// the representative's own body execute after its inspection but
		// before the grantee's reuse.
		covered := map[string]bool{}
		for _, a := range g.Arrays {
			covered[a] = true
		}
		for li := g.From; li < g.To; li++ {
			for _, st := range rl.Prog.Loops[li].Body {
				if st.Target != nil && covered[st.Target.Array] {
					return fmt.Errorf("dataflow: reuse grant %d→%d crosses a write to %q at %s", g.From, g.To, st.Target.Array, st.Pos)
				}
			}
		}
		// The fresh prover must agree the reuse is live: it may pick an
		// earlier representative of the same class, never refuse.
		rep := fresh.ReuseOf(g.To)
		if rep < 0 {
			return fmt.Errorf("dataflow: reuse grant %d→%d is not derivable from the program", g.From, g.To)
		}
	}
	return nil
}

// Report renders the license with its ledgers, Facts.Report-style.
func (rl *ReuseLicense) Report() string {
	var b strings.Builder
	insp := 0
	for _, s := range rl.Sigs {
		if s != nil {
			insp++
		}
	}
	fmt.Fprintf(&b, "program: %d loop(s), %d inspectable, %d reuse grant(s), %d refusal(s)\n",
		len(rl.Sigs), insp, len(rl.Grants), len(rl.Refusals))
	for i, s := range rl.Sigs {
		if s == nil {
			fmt.Fprintf(&b, "  loop %d: no inspectable irregular reduction\n", i)
			continue
		}
		refs := make([]string, len(s.Refs))
		for j, r := range s.Refs {
			refs[j] = r.String()
		}
		fmt.Fprintf(&b, "  loop %d: traverses %s over [%s, %s) into %s element(s)", i, strings.Join(refs, ", "), s.Lo, s.Hi, s.Elems)
		if from := rl.ReuseOf(i); from >= 0 {
			fmt.Fprintf(&b, " — reuses loop %d's schedules", from)
		} else {
			b.WriteString(" — inspects")
		}
		b.WriteString("\n")
	}
	for _, g := range rl.Grants {
		fmt.Fprintf(&b, "  grant loop %d → loop %d at %s (inspected at %s), arrays %s\n",
			g.From, g.To, g.Pos, g.FromPos, strings.Join(g.Arrays, ", "))
		for _, j := range g.Ledger {
			word := "ok"
			if !j.OK {
				word = "FAIL"
			}
			fmt.Fprintf(&b, "    [%s] %s: %s\n", j.Rule, word, j.Detail)
		}
	}
	for _, r := range rl.Refusals {
		kind := "refused"
		if r.Stale {
			kind = "refused (stale)"
		}
		fmt.Fprintf(&b, "  %s loop %d → loop %d at %s: %s\n", kind, r.From, r.To, r.Pos, r.Reason)
	}
	for _, j := range rl.Ledger {
		word := "ok"
		if !j.OK {
			word = "FAIL"
		}
		fmt.Fprintf(&b, "  [%s] %s: %s\n", j.Rule, word, j.Detail)
	}
	return b.String()
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
