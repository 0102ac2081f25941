// Package algebra infers algebraic properties of reduction operators:
// associativity, commutativity, identity elements, idempotence and
// float-reorder sensitivity. The properties are what legalize schedules
// beyond the paper's single k*P rotation — tiled regroupings are sound
// exactly when the combine operator provably carries the right algebra
// (cf. reduction-aware polyhedral scheduling), and a proven identity is
// what seeds a custom combine's rotation buffers.
//
// Builtin operators (+, *, min, max) are table-driven. Compound update
// expressions (x[ia[i]] = f(x[ia[i]], contribution)) are normalized by
// ExtractUpdate into a two-variable combine tree over the accumulator "a"
// and the contribution "b", then checked by CheckExpr: bounded exhaustive
// evaluation over a small integer domain, upgraded to a genuine proof
// over the reals when the combine is polynomial of low enough degree
// (a degree-d polynomial identity that holds on d+1 points per variable
// holds everywhere).
package algebra

import (
	"fmt"
	"math"

	"irred/internal/lang"
)

// Kind identifies a fold operator. The zero value is Add, so a
// zero-valued Op behaves exactly like the pre-algebra runtime (+=).
type Kind int

const (
	Add    Kind = iota // a + b
	Mul                // a * b
	Min                // min(a, b)
	Max                // max(a, b)
	Custom             // compound combine expression over "a" and "b"
)

func (k Kind) String() string {
	switch k {
	case Add:
		return "+"
	case Mul:
		return "*"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return "custom"
	}
}

// Op is an executable fold operator. For Custom kinds, Expr is the
// combine tree over the identifiers "a" (accumulator) and "b"
// (contribution); Ident/HasIdent carry the discovered identity element.
type Op struct {
	Kind     Kind
	Expr     lang.Expr // Custom only
	Ident    float64   // Custom only, valid when HasIdent
	HasIdent bool      // Custom only
}

// Fold combines an accumulator value with one contribution.
func (o Op) Fold(a, b float64) float64 {
	switch o.Kind {
	case Add:
		return a + b
	case Mul:
		return a * b
	case Min:
		return math.Min(a, b)
	case Max:
		return math.Max(a, b)
	default:
		return Eval(o.Expr, a, b)
	}
}

// Identity reports the operator's identity element, if one is known.
func (o Op) Identity() (float64, bool) {
	switch o.Kind {
	case Add:
		return 0, true
	case Mul:
		return 1, true
	case Min:
		return math.Inf(1), true
	case Max:
		return math.Inf(-1), true
	default:
		return o.Ident, o.HasIdent
	}
}

func (o Op) String() string {
	if o.Kind == Custom && o.Expr != nil {
		return o.Expr.String()
	}
	return o.Kind.String()
}

// Eval evaluates a combine expression at accumulator value a and
// contribution value b. Identifiers other than "a"/"b" and array
// references evaluate to NaN (they make the combine unverifiable).
func Eval(e lang.Expr, a, b float64) float64 {
	switch x := e.(type) {
	case *lang.Num:
		return x.Val
	case *lang.Ident:
		switch x.Name {
		case "a":
			return a
		case "b":
			return b
		}
		return math.NaN()
	case *lang.BinExpr:
		l, r := Eval(x.L, a, b), Eval(x.R, a, b)
		switch x.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			return l / r
		}
		return math.NaN()
	case *lang.UnExpr:
		return -Eval(x.X, a, b)
	case *lang.CallExpr:
		switch x.Fn {
		case "sqrt":
			return math.Sqrt(Eval(x.Args[0], a, b))
		case "abs":
			return math.Abs(Eval(x.Args[0], a, b))
		case "min":
			return math.Min(Eval(x.Args[0], a, b), Eval(x.Args[1], a, b))
		case "max":
			return math.Max(Eval(x.Args[0], a, b), Eval(x.Args[1], a, b))
		}
		return math.NaN()
	default:
		return math.NaN()
	}
}

// Verdict is the tri-state outcome of a property check. The zero value
// is Unknown: absence of proof licenses nothing.
type Verdict int

const (
	Unknown   Verdict = iota // neither proven nor refuted
	Proven                   // holds (by table, polynomial identity, or exhaustion)
	Disproven                // counterexample found
)

func (v Verdict) String() string {
	switch v {
	case Proven:
		return "proven"
	case Disproven:
		return "disproven"
	default:
		return "unknown"
	}
}

// Props records the inferred algebraic properties of one combine
// operator, with provenance.
type Props struct {
	Assoc       Verdict
	Comm        Verdict
	Idem        Verdict
	HasIdentity Verdict
	Identity    float64 // valid when HasIdentity == Proven

	// ReorderSensitive marks operators whose float evaluation depends on
	// grouping/order even when the real-arithmetic algebra is associative
	// (+ and * round; min/max are exact).
	ReorderSensitive bool

	// Proof names the evidence: "operator table", "polynomial identity
	// (...)", or "bounded-exhaustive (...)".
	Proof string

	// Counterexamples, when a property is disproven.
	AssocCex string
	CommCex  string
}

// TableProps returns the property table entry for a builtin operator.
// Custom kinds have no table entry; check them with CheckExpr.
func TableProps(k Kind) Props {
	switch k {
	case Add:
		return Props{Assoc: Proven, Comm: Proven, Idem: Disproven,
			HasIdentity: Proven, Identity: 0, ReorderSensitive: true,
			Proof: "operator table"}
	case Mul:
		return Props{Assoc: Proven, Comm: Proven, Idem: Disproven,
			HasIdentity: Proven, Identity: 1, ReorderSensitive: true,
			Proof: "operator table"}
	case Min:
		return Props{Assoc: Proven, Comm: Proven, Idem: Proven,
			HasIdentity: Proven, Identity: math.Inf(1), ReorderSensitive: false,
			Proof: "operator table"}
	case Max:
		return Props{Assoc: Proven, Comm: Proven, Idem: Proven,
			HasIdentity: Proven, Identity: math.Inf(-1), ReorderSensitive: false,
			Proof: "operator table"}
	default:
		return Props{Proof: "no table entry for custom operator"}
	}
}

// checkDomain is the bounded check domain. Seven points per variable
// suffice to prove polynomial identities of composite degree <= 6.
var checkDomain = []float64{-3, -2, -1, 0, 1, 2, 3}

// maxProofDegree is the largest composite-expression degree the domain
// proves as a polynomial identity (len(checkDomain)-1).
const maxProofDegree = 6

// CheckExpr infers the properties of a combine expression over the
// identifiers "a" and "b". Polynomial combines of low degree get a
// genuine proof over the reals; other combines get bounded-exhaustive
// verdicts over the integer domain, and any domain hole (NaN from
// division etc.) downgrades an un-refuted property to Unknown.
func CheckExpr(e lang.Expr) Props {
	if free := freeVars(e); free != "" {
		return Props{
			ReorderSensitive: true,
			Proof:            fmt.Sprintf("unverifiable: combine references %s", free),
		}
	}

	// A polynomial combine of degree d composes to degree <= d*d in each
	// variable; when that fits the grid, agreement on the grid is a proof
	// over the reals, not a bounded check.
	deg, poly := polyDegree(e)
	sound := poly && deg*deg <= maxProofDegree

	p := Props{ReorderSensitive: reorderSensitive(e)}
	if sound {
		p.Proof = fmt.Sprintf("polynomial identity (degree %d combine on a %d-point grid)", deg, len(checkDomain))
	} else {
		p.Proof = fmt.Sprintf("bounded-exhaustive (integer grid [%g,%g])", checkDomain[0], checkDomain[len(checkDomain)-1])
	}

	f := func(a, b float64) float64 { return Eval(e, a, b) }
	holes := false

	// Associativity: (a.b).c == a.(b.c).
	p.Assoc = Proven
	for _, a := range checkDomain {
		for _, b := range checkDomain {
			for _, c := range checkDomain {
				l, r := f(f(a, b), c), f(a, f(b, c))
				if math.IsNaN(l) || math.IsNaN(r) {
					holes = true
					continue
				}
				if l != r {
					p.Assoc = Disproven
					p.AssocCex = fmt.Sprintf("a=%g b=%g c=%g: (a.b).c=%g but a.(b.c)=%g", a, b, c, l, r)
				}
			}
		}
	}
	// Commutativity and idempotence.
	p.Comm, p.Idem = Proven, Proven
	for _, a := range checkDomain {
		for _, b := range checkDomain {
			l, r := f(a, b), f(b, a)
			if math.IsNaN(l) || math.IsNaN(r) {
				holes = true
				continue
			}
			if l != r {
				p.Comm = Disproven
				p.CommCex = fmt.Sprintf("a=%g b=%g: a.b=%g but b.a=%g", a, b, l, r)
			}
		}
		if v := f(a, a); !math.IsNaN(v) && v != a {
			p.Idem = Disproven
		}
	}
	if holes && !sound {
		// The grid had singular points; un-refuted properties stay Unknown.
		if p.Assoc == Proven {
			p.Assoc = Unknown
		}
		if p.Comm == Proven {
			p.Comm = Unknown
		}
		if p.Idem == Proven {
			p.Idem = Unknown
		}
		p.Proof += "; domain holes (singular points) — unrefuted properties left unknown"
	}

	// Identity element: two-sided, over the whole domain. Canonical
	// identities are tried before grid points so that a grid extremum
	// passing the bounded test (e.g. 3 for min over [-3,3]) does not
	// shadow the true identity.
	p.HasIdentity = Unknown
	candidates := []float64{0, 1, math.Inf(1), math.Inf(-1), -1, -2, -3, 2, 3}
	for _, cand := range candidates {
		ok := true
		for _, a := range checkDomain {
			if f(a, cand) != a || f(cand, a) != a {
				ok = false
				break
			}
		}
		if ok {
			p.HasIdentity = Proven
			p.Identity = cand
			break
		}
	}
	return p
}

// freeVars reports identifiers or array references other than a/b that
// make a combine unverifiable, or "" if there are none.
func freeVars(e lang.Expr) string {
	out := ""
	lang.Walk(e, func(x lang.Expr) {
		if out != "" {
			return
		}
		switch n := x.(type) {
		case *lang.Ident:
			if n.Name != "a" && n.Name != "b" {
				out = fmt.Sprintf("free variable %q", n.Name)
			}
		case *lang.IndexExpr:
			out = fmt.Sprintf("array reference %q", n.String())
		}
	})
	return out
}

// polyDegree returns the maximum degree of e in either variable, and
// whether e is polynomial (built from +, -, * and constants only).
func polyDegree(e lang.Expr) (int, bool) {
	switch x := e.(type) {
	case *lang.Num:
		return 0, true
	case *lang.Ident:
		return 1, true
	case *lang.BinExpr:
		dl, okl := polyDegree(x.L)
		dr, okr := polyDegree(x.R)
		if !okl || !okr {
			return 0, false
		}
		switch x.Op {
		case '+', '-':
			return max(dl, dr), true
		case '*':
			return dl + dr, true
		}
		return 0, false
	case *lang.UnExpr:
		return polyDegree(x.X)
	default:
		return 0, false
	}
}

// reorderSensitive reports whether the combine's float evaluation can
// depend on grouping even when the real algebra is associative: any
// rounding arithmetic (+ - * /) makes it so; pure min/max trees do not.
func reorderSensitive(e lang.Expr) bool {
	sensitive := false
	lang.Walk(e, func(x lang.Expr) {
		switch n := x.(type) {
		case *lang.BinExpr, *lang.UnExpr:
			sensitive = true
		case *lang.CallExpr:
			if n.Fn != "min" && n.Fn != "max" {
				sensitive = true
			}
		}
	})
	return sensitive
}
