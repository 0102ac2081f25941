// Package interp evaluates IRL programs against concrete data. It provides
// the sequential reference semantics (what the original loop computes) and
// the block evaluator (Code) that lets compiled loops execute on the phase
// runtime.
package interp

import (
	"fmt"
	"math"

	"irred/internal/lang"
)

// Env binds a program's parameters and arrays to values. Two-dimensional
// arrays are stored flattened row-major.
type Env struct {
	Prog   *lang.Program
	Params map[string]int
	Floats map[string][]float64
	Ints   map[string][]int32
}

// NewEnv creates an empty environment for prog.
func NewEnv(prog *lang.Program) *Env {
	return &Env{
		Prog:   prog,
		Params: map[string]int{},
		Floats: map[string][]float64{},
		Ints:   map[string][]int32{},
	}
}

// SetParam binds a parameter.
func (e *Env) SetParam(name string, v int) { e.Params[name] = v }

// extentVal resolves a declared extent.
func (e *Env) extentVal(x lang.Extent) (int, error) {
	if x.Param == "" {
		return x.Lit, nil
	}
	v, ok := e.Params[x.Param]
	if !ok {
		return 0, fmt.Errorf("interp: parameter %q unbound", x.Param)
	}
	return v, nil
}

// Size reports the flattened length of a declared array.
func (e *Env) Size(name string) (int, error) {
	decl := e.Prog.Array(name)
	if decl == nil {
		return 0, fmt.Errorf("interp: array %q not declared", name)
	}
	n := 1
	for _, d := range decl.Dims {
		v, err := e.extentVal(d)
		if err != nil {
			return 0, err
		}
		n *= v
	}
	return n, nil
}

// BindFloat binds a float array, validating its length.
func (e *Env) BindFloat(name string, data []float64) error {
	decl := e.Prog.Array(name)
	if decl == nil {
		return fmt.Errorf("interp: array %q not declared", name)
	}
	if decl.Int {
		return fmt.Errorf("interp: array %q is int", name)
	}
	n, err := e.Size(name)
	if err != nil {
		return err
	}
	if len(data) != n {
		return fmt.Errorf("interp: array %q needs %d elements, got %d", name, n, len(data))
	}
	e.Floats[name] = data
	return nil
}

// BindInt binds an int array, validating its length.
func (e *Env) BindInt(name string, data []int32) error {
	decl := e.Prog.Array(name)
	if decl == nil {
		return fmt.Errorf("interp: array %q not declared", name)
	}
	if !decl.Int {
		return fmt.Errorf("interp: array %q is float", name)
	}
	n, err := e.Size(name)
	if err != nil {
		return err
	}
	if len(data) != n {
		return fmt.Errorf("interp: array %q needs %d elements, got %d", name, n, len(data))
	}
	e.Ints[name] = data
	return nil
}

// Alloc binds fresh zeroed storage for every declared array that has no
// binding yet, so partially-bound programs can run.
func (e *Env) Alloc() error {
	for _, d := range e.Prog.Arrays {
		n, err := e.Size(d.Name)
		if err != nil {
			return err
		}
		if d.Int {
			if _, ok := e.Ints[d.Name]; !ok {
				e.Ints[d.Name] = make([]int32, n)
			}
		} else {
			if _, ok := e.Floats[d.Name]; !ok {
				e.Floats[d.Name] = make([]float64, n)
			}
		}
	}
	return nil
}

// frame is per-iteration evaluation state.
type frame struct {
	loopVar string
	i       int
	temps   map[string]float64
}

// EvalExpr evaluates an expression for iteration i of a loop.
func (e *Env) evalExpr(x lang.Expr, f *frame) (float64, error) {
	switch v := x.(type) {
	case *lang.Num:
		return v.Val, nil
	case *lang.Ident:
		if v.Name == f.loopVar {
			return float64(f.i), nil
		}
		if t, ok := f.temps[v.Name]; ok {
			return t, nil
		}
		if p, ok := e.Params[v.Name]; ok {
			return float64(p), nil
		}
		return 0, fmt.Errorf("interp:%s: unbound identifier %q", v.Pos, v.Name)
	case *lang.IndexExpr:
		idx, err := e.flatIndex(v, f)
		if err != nil {
			return 0, err
		}
		if data, ok := e.Floats[v.Array]; ok {
			return data[idx], nil
		}
		if data, ok := e.Ints[v.Array]; ok {
			return float64(data[idx]), nil
		}
		return 0, fmt.Errorf("interp:%s: array %q unbound", v.Pos, v.Array)
	case *lang.BinExpr:
		l, err := e.evalExpr(v.L, f)
		if err != nil {
			return 0, err
		}
		r, err := e.evalExpr(v.R, f)
		if err != nil {
			return 0, err
		}
		switch v.Op {
		case '+':
			return l + r, nil
		case '-':
			return l - r, nil
		case '*':
			return l * r, nil
		case '/':
			return l / r, nil
		}
		return 0, fmt.Errorf("interp:%s: bad operator %q", v.Pos, v.Op)
	case *lang.UnExpr:
		x, err := e.evalExpr(v.X, f)
		return -x, err
	case *lang.CallExpr:
		args := make([]float64, len(v.Args))
		for i, a := range v.Args {
			var err error
			if args[i], err = e.evalExpr(a, f); err != nil {
				return 0, err
			}
		}
		switch v.Fn {
		case "sqrt":
			return math.Sqrt(args[0]), nil
		case "abs":
			return math.Abs(args[0]), nil
		case "min":
			return math.Min(args[0], args[1]), nil
		case "max":
			return math.Max(args[0], args[1]), nil
		}
		return 0, fmt.Errorf("interp:%s: unknown builtin %q", v.Pos, v.Fn)
	default:
		return 0, fmt.Errorf("interp: unknown expression node %T", x)
	}
}

// flatIndex computes the flattened element index of an array reference.
func (e *Env) flatIndex(ix *lang.IndexExpr, f *frame) (int, error) {
	decl := e.Prog.Array(ix.Array)
	if decl == nil {
		return 0, fmt.Errorf("interp:%s: array %q not declared", ix.Pos, ix.Array)
	}
	if len(ix.Index) != len(decl.Dims) {
		return 0, fmt.Errorf("interp:%s: array %q has %d dims, indexed with %d", ix.Pos, ix.Array, len(decl.Dims), len(ix.Index))
	}
	idx := 0
	for d, sub := range ix.Index {
		v, err := e.evalExpr(sub, f)
		if err != nil {
			return 0, err
		}
		sv := int(v)
		if float64(sv) != v {
			return 0, fmt.Errorf("interp:%s: non-integer subscript %v", ix.Pos, v)
		}
		ext, err := e.extentVal(decl.Dims[d])
		if err != nil {
			return 0, err
		}
		if sv < 0 || sv >= ext {
			return 0, fmt.Errorf("interp:%s: %s subscript %d out of range [0,%d)", ix.Pos, ix.Array, sv, ext)
		}
		idx = idx*ext + sv
	}
	return idx, nil
}

// bounds evaluates a loop's iteration range.
func (e *Env) bounds(l *lang.Loop) (lo, hi int, err error) {
	f := &frame{loopVar: "", temps: nil}
	lov, err := e.evalExpr(l.Lo, f)
	if err != nil {
		return 0, 0, err
	}
	hiv, err := e.evalExpr(l.Hi, f)
	if err != nil {
		return 0, 0, err
	}
	return int(lov), int(hiv), nil
}

// RunLoop executes one loop sequentially.
func (e *Env) RunLoop(l *lang.Loop) error {
	lo, hi, err := e.bounds(l)
	if err != nil {
		return err
	}
	f := &frame{loopVar: l.Var, temps: map[string]float64{}}
	for i := lo; i < hi; i++ {
		f.i = i
		for k := range f.temps {
			delete(f.temps, k)
		}
		for _, st := range l.Body {
			v, err := e.evalExpr(st.RHS, f)
			if err != nil {
				return err
			}
			if st.Scalar != "" {
				f.temps[st.Scalar] = v
				continue
			}
			idx, err := e.flatIndex(st.Target, f)
			if err != nil {
				return err
			}
			data, ok := e.Floats[st.Target.Array]
			if !ok {
				return fmt.Errorf("interp:%s: cannot assign to int array %q", st.Pos, st.Target.Array)
			}
			switch st.Op {
			case lang.OpSet:
				data[idx] = v
			case lang.OpAdd:
				data[idx] += v
			case lang.OpSub:
				data[idx] -= v
			case lang.OpMul:
				data[idx] *= v
			case lang.OpMin:
				data[idx] = math.Min(data[idx], v)
			case lang.OpMax:
				data[idx] = math.Max(data[idx], v)
			}
		}
	}
	return nil
}

// Run executes every loop of the program in order.
func (e *Env) Run() error {
	for _, l := range e.Prog.Loops {
		if err := e.RunLoop(l); err != nil {
			return err
		}
	}
	return nil
}
