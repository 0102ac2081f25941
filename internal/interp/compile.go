package interp

import (
	"fmt"
	"math"

	"irred/internal/lang"
)

// This file compiles IRL expressions to a small stack bytecode, then lowers
// that to column code whose every instruction runs across a whole block of
// iterations: dispatch is paid once per instruction per block, and the
// inner loops are tight loops over columns — the role the EARTH-C backend's
// code generation played. A Code object evaluates a loop's scalar
// definitions and a set of result expressions for a block of iterations.

type opcode uint8

const (
	opConst opcode = iota // push constants[a]
	opIter                // push float64(i)
	opLoad1               // push f64[a][idx] where idx = pop()
	opLoadI               // push i32[a][idx] as float64 where idx = pop()
	opReg                 // push regs[a]
	opAdd
	opSub
	opMul
	opDiv
	opNeg
	opSqrt
	opAbs
	opMin
	opMax
	opStore  // regs[a] = pop()
	opResult // out[a] = pop()

	// Checked variants, emitted unless a dataflow proof covers the access.
	opRange  // validate top of stack against checks[a]; fault + clamp to 0 on failure
	opLoad1C // opLoad1 with the index validated against checks[a] first
	opLoadIC // opLoadI with the index validated against checks[a] first

	// Fused loads of an index chain i*w+off, in column code only (see chain).
	opDirect   // push f64[a][i*w+off]
	opGather   // push i32[a][i*w+off] as float64
	opIndirect // push f64[a][i32[src][i*w+off]]
)

type instr struct {
	op opcode
	a  int32
}

// check is one range-check site: the exclusive extent the value must stay
// under and a prerendered message prefix naming the reference.
type check struct {
	arr int32  // f64/i32 slot for checked loads; -1 for subscript checks
	ext int32  // exclusive upper bound (values must be integers in [0, ext))
	msg string // "pos: ref" used in fault reports
}

// BlockLen is the most iterations one column pass covers — the native
// engine's block (rts.ContribBlockFunc). EvalBlock splits longer runs.
const BlockLen = 256

// cinstr is one column instruction: its opcode's stack effect, applied to
// a block of iterations — operands and result are column slots.
type cinstr struct {
	op               opcode
	d, x, y          int32 // column slots
	arr, src, w, off int32 // array, check or result index; opIndirect's int array; chain i*w+off
}

// Code is a compiled block evaluator.
type Code struct {
	prog   []cinstr
	f64    [][]float64 // referenced float arrays, resolved at compile time
	i32    [][]int32   // referenced int arrays
	checks []check
	consts []float64 // constant columns 0..len-1 hold these values
	nOut   int
	arena  []float64 // columns of BlockLen values, private to this Code
	err    error     // first range fault, nil while clean
	// The block's first fault so far: lowest position, then earliest site.
	faultJ  int
	faultCk *check
	faultV  float64
}

// CompileOpts controls bounds-check emission.
type CompileOpts struct {
	// Unchecked reports whether the given array reference occurrence is
	// proven in-bounds (by identity), licensing the compiler to elide its
	// range checks. Nil means nothing is proven: every access is checked.
	// The caller owns the soundness of the predicate — the canonical
	// implementation is dataflow.Facts.RefProven over a proof computed
	// from this same environment's bindings.
	Unchecked func(ix *lang.IndexExpr) bool
}

// CompileIter compiles loop l's scalar definitions followed by the given
// result expressions, with every array access range-checked (faults are
// recorded, not panics — see Err). The returned Code is bound to the
// environment's current array bindings (rebinding arrays requires
// recompilation) and is NOT safe for concurrent use — clone one per
// goroutine with Clone.
func (e *Env) CompileIter(l *lang.Loop, results []lang.Expr) (*Code, error) {
	return e.CompileIterOpts(l, results, CompileOpts{})
}

// CompileIterOpts is CompileIter with explicit bounds-check control.
func (e *Env) CompileIterOpts(l *lang.Loop, results []lang.Expr, opts CompileOpts) (*Code, error) {
	c := &compiler{env: e, loop: l, opts: opts, regOf: map[string]int32{}, f64Of: map[string]int32{}, i32Of: map[string]int32{}}
	for _, st := range l.Body {
		if st.Scalar == "" {
			continue
		}
		if err := c.expr(st.RHS); err != nil {
			return nil, err
		}
		reg, ok := c.regOf[st.Scalar]
		if !ok {
			reg = int32(len(c.regOf))
			c.regOf[st.Scalar] = reg
		}
		c.emit(instr{op: opStore, a: reg})
	}
	for j, r := range results {
		if err := c.expr(r); err != nil {
			return nil, err
		}
		c.emit(instr{op: opResult, a: int32(j)})
	}
	prog, nCols := c.lower()
	code := &Code{prog: prog, f64: c.f64, i32: c.i32, checks: c.checks, consts: c.consts, nOut: len(results),
		arena: make([]float64, nCols*BlockLen)}
	return code.Clone(), nil
}

// Clone returns an independent evaluator sharing the immutable program and
// array bindings, for concurrent use from several goroutines. The clone
// starts with a clean fault state and allocates its own column arena — a
// multiple of 64 B, so clones on different processors share no cache line.
func (c *Code) Clone() *Code {
	out := *c
	out.arena = make([]float64, len(c.arena))
	for i := range out.arena[:len(c.consts)*BlockLen] {
		out.arena[i] = c.consts[i/BlockLen]
	}
	out.err = nil
	return &out
}

// NumResults reports how many output values Eval produces.
func (c *Code) NumResults() int { return c.nOut }

// NumChecks reports how many range-check sites the compiled code carries;
// zero means the whole loop runs unchecked (fully proven).
func (c *Code) NumChecks() int { return len(c.checks) }

// Err reports the first range fault recorded by checked execution, or nil.
// A faulting access clamps to a safe value and evaluation continues, so a
// run always completes; callers inspect Err afterwards. The first fault is
// the one evaluating the iterations one at a time, in order, would meet.
// Clones fault independently.
func (c *Code) Err() error { return c.err }

// fault records an out-of-range value at block position j; the lowest
// position wins, and for one position the earliest site, because sites are
// visited in program order.
func (c *Code) fault(j int, ck *check, v float64) {
	if j < c.faultJ {
		c.faultJ, c.faultCk, c.faultV = j, ck, v
	}
}

// Eval runs the program for iteration i, writing the results into out
// (len >= NumResults): a one-iteration block based at i, so any int i is
// evaluated exactly, not only those an int32 holds.
func (c *Code) Eval(i int, out []float64) {
	var zero [1]int32
	c.run(zero[:], i, out, 1, 0)
}

// EvalBlock runs the program for every iteration of iters, writing result r
// of iters[j] to out[r*len(iters)+j]: each instruction runs across up to
// BlockLen iterations before the next starts, with results bitwise those of
// one iteration at a time. Unchecked accesses are bounds-checked by Go.
func (c *Code) EvalBlock(iters []int32, out []float64) {
	for lo := 0; lo < len(iters); lo += BlockLen {
		c.run(iters[lo:min(lo+BlockLen, len(iters))], 0, out, len(iters), lo)
	}
}

func (c *Code) col(s int32, n int) []float64 { return c.arena[int(s)*BlockLen:][:n] }

// run evaluates one block of at most BlockLen iterations, base+its[j]; the
// result r of its j'th iteration lands at out[r*stride+off+j].
func (c *Code) run(its []int32, base int, out []float64, stride, off int) {
	n := len(its)
	c.faultJ = n
	for i := range c.prog {
		in := &c.prog[i]
		d, x, y := c.col(in.d, n), c.col(in.x, n), c.col(in.y, n)
		switch in.op {
		case opIter:
			for j, it := range its {
				d[j] = float64(base + int(it))
			}
		case opDirect: // (base+it)*w+off, the chain's value, with base*w+off hoisted
			a, w, o := c.f64[in.arr], int(in.w), base*int(in.w)+int(in.off)
			for j, it := range its {
				d[j] = a[int(it)*w+o]
			}
		case opGather:
			a, w, o := c.i32[in.arr], int(in.w), base*int(in.w)+int(in.off)
			for j, it := range its {
				d[j] = float64(a[int(it)*w+o])
			}
		case opIndirect:
			a, ind, w, o := c.f64[in.arr], c.i32[in.src], int(in.w), base*int(in.w)+int(in.off)
			for j, it := range its {
				d[j] = a[ind[int(it)*w+o]]
			}
		case opLoad1:
			a := c.f64[in.arr]
			for j, v := range x {
				d[j] = a[int(v)]
			}
		case opLoadI:
			a := c.i32[in.arr]
			for j, v := range x {
				d[j] = float64(a[int(v)])
			}
		case opAdd:
			for j, v := range x {
				d[j] = v + y[j]
			}
		case opSub:
			for j, v := range x {
				d[j] = v - y[j]
			}
		case opMul:
			for j, v := range x {
				d[j] = v * y[j]
			}
		case opDiv:
			for j, v := range x {
				d[j] = v / y[j]
			}
		case opMin, opMax:
			f := math.Min
			if in.op == opMax {
				f = math.Max
			}
			for j, v := range x {
				d[j] = f(v, y[j])
			}
		case opNeg:
			for j, v := range x {
				d[j] = -v
			}
		case opSqrt:
			for j, v := range x {
				d[j] = math.Sqrt(v)
			}
		case opAbs:
			for j, v := range x {
				d[j] = math.Abs(v)
			}
		case opRange:
			ck := &c.checks[in.arr]
			for j, v := range x {
				if !(v >= 0 && v < float64(ck.ext)) || v != math.Trunc(v) {
					c.fault(j, ck, v)
					v = 0
				}
				d[j] = v
			}
		case opLoad1C, opLoadIC:
			ck := &c.checks[in.arr] // ext is the array's length
			for j, v := range x {
				switch idx := int(v); {
				case idx < 0 || idx >= int(ck.ext):
					c.fault(j, ck, v)
					d[j] = 0
				case in.op == opLoad1C:
					d[j] = c.f64[ck.arr][idx]
				default:
					d[j] = float64(c.i32[ck.arr][idx])
				}
			}
		case opResult:
			copy(out[int(in.arr)*stride+off:][:n], x)
		}
	}
	if c.faultJ < n && c.err == nil {
		c.err = fmt.Errorf("interp: %s: subscript %v out of range [0, %d)", c.faultCk.msg, c.faultV, c.faultCk.ext)
	}
}

// lower rewrites the stack program for column execution, in two passes.
//
// The first gives every value an SSA id (constant k is id k, and a register
// is the id its definition left) and numbers the values: an instruction
// with the same opcode, array and chain fields and operand ids as an
// earlier one reuses that value, so q[ia[i, 0]] read by two statements is
// one pass. Loads number like arithmetic because Code never writes an
// array: results leave through opResult and the engine folds them. Checked
// sites (opRange, opLoad1C, opLoadIC) are never numbered, so each keeps its
// own fault identity, and nothing is reassociated or commuted, so results
// stay bitwise. Index chains become fused loads (see chain) first.
//
// The second maps ids to column slots. Constant k is column k, filled once
// per arena; any other value's column frees after its last reader, or at
// once if it has none, and the next value defined takes it.
func (c *compiler) lower() (prog []cinstr, nCols int) {
	nc := int32(len(c.consts))
	var (
		stack []int32
		regs  = make([]int32, len(c.regOf))
		seen  = map[cinstr]int32{}
		last  = make([]int, nc) // each id's last reader, or its definition
	)
	pop := func() int32 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		return v
	}
	emit := func(in cinstr) int32 {
		for _, v := range reads(in) {
			last[v] = len(prog)
		}
		in.d = int32(len(last))
		last = append(last, len(prog))
		prog = append(prog, in)
		return in.d
	}
	push := func(in cinstr) {
		id, ok := seen[in]
		if !ok || in.op == opRange || in.op == opLoad1C || in.op == opLoadIC {
			id = emit(in)
			seen[in] = id
		}
		stack = append(stack, id)
	}
	for pc := 0; pc < len(c.prog); pc++ {
		in := c.prog[pc]
		if n, fused, ok := c.chain(c.prog[pc:]); ok {
			push(fused)
			pc += n - 1
			continue
		}
		switch in.op {
		case opConst:
			stack = append(stack, in.a)
		case opReg:
			stack = append(stack, regs[in.a])
		case opStore:
			regs[in.a] = pop()
		case opResult:
			emit(cinstr{op: opResult, x: pop(), arr: in.a})
		case opIter:
			push(cinstr{op: opIter})
		case opAdd, opSub, opMul, opDiv, opMin, opMax:
			y, x := pop(), pop()
			push(cinstr{op: in.op, x: x, y: y})
		default: // unary ops, loads and checks
			push(cinstr{op: in.op, x: pop(), arr: in.a})
		}
	}

	slot := make([]int32, len(last))
	for k := range nc {
		slot[k] = k
	}
	var free []int32
	nCols = int(nc)
	for pc := range prog {
		in := &prog[pc]
		for _, v := range reads(*in) {
			if v >= nc && last[v] == pc {
				free = append(free, slot[v])
			}
		}
		id := in.d
		in.x, in.y, in.d = slot[in.x], slot[in.y], 0
		switch {
		case in.op == opResult:
			continue
		case len(free) > 0:
			in.d, free = free[len(free)-1], free[:len(free)-1]
		default:
			in.d, nCols = int32(nCols), nCols+1
		}
		if slot[id] = in.d; last[id] == pc {
			free = append(free, in.d)
		}
	}
	return prog, nCols
}

// reads lists the distinct value ids an instruction reads.
func reads(in cinstr) []int32 {
	switch in.op {
	case opIter, opDirect, opGather, opIndirect:
		return nil
	case opAdd, opSub, opMul, opDiv, opMin, opMax:
		if in.x != in.y {
			return []int32{in.x, in.y}
		}
	}
	return []int32{in.x}
}

// chain matches an unchecked index chain iter [const w, mul] [const off,
// add] ending in a load at the head of p — ia[i, c] or a[i] — and returns
// the one pass replacing it and how many instructions that covers: a gather,
// a direct load, or an indirect one for a float load through the gathered
// value (q[ia[i, c]]). With integral w, off below 2^21 and |i| < 2^32,
// i*w+off stays below 2^53, so the chain's float arithmetic is exact and
// equals the pass's; past 2^32 only w = 0 keeps the index inside an array,
// and then both give off.
func (c *compiler) chain(p []instr) (int, cinstr, bool) {
	if len(p) < 2 || p[0].op != opIter {
		return 0, cinstr{}, false
	}
	n, w, off := 1, 1.0, 0.0
	if len(p) > n+2 && p[n].op == opConst && p[n+1].op == opMul {
		w, n = c.consts[p[n].a], n+2
	}
	if len(p) > n+2 && p[n].op == opConst && p[n+1].op == opAdd {
		off, n = c.consts[p[n].a], n+2
	}
	if w != math.Trunc(w) || off != math.Trunc(off) || math.Abs(w) >= 1<<21 || math.Abs(off) >= 1<<21 {
		return 0, cinstr{}, false
	}
	in := cinstr{arr: p[n].a, w: int32(w), off: int32(off)}
	switch {
	case p[n].op == opLoad1:
		in.op = opDirect
	case p[n].op != opLoadI:
		return 0, cinstr{}, false
	case len(p) > n+1 && p[n+1].op == opLoad1:
		in.op, in.src, in.arr = opIndirect, in.arr, p[n+1].a
		n++
	default:
		in.op = opGather
	}
	return n + 1, in, true
}

type compiler struct {
	env    *Env
	loop   *lang.Loop
	opts   CompileOpts
	prog   []instr
	consts []float64
	f64    [][]float64
	i32    [][]int32
	checks []check
	f64Of  map[string]int32
	i32Of  map[string]int32
	regOf  map[string]int32
}

func (c *compiler) emit(in instr) { c.prog = append(c.prog, in) }

func (c *compiler) constIdx(v float64) int32 {
	for i, x := range c.consts {
		if x == v {
			return int32(i)
		}
	}
	c.consts = append(c.consts, v)
	return int32(len(c.consts) - 1)
}

// bind returns the slot of the named array among those the code reads,
// and its length, binding it from the environment on first reference.
func bind[T any](slots map[string]int32, arrs *[][]T, env map[string][]T, name string) (int32, int32, error) {
	i, ok := slots[name]
	if !ok {
		data, bound := env[name]
		if !bound {
			return 0, 0, fmt.Errorf("interp: array %q unbound at compile time", name)
		}
		i, *arrs = int32(len(*arrs)), append(*arrs, data)
		slots[name] = i
	}
	return i, int32(len((*arrs)[i])), nil
}

// checkIdx interns a range-check site.
func (c *compiler) checkIdx(arr, ext int32, msg string) int32 {
	c.checks = append(c.checks, check{arr: arr, ext: ext, msg: msg})
	return int32(len(c.checks) - 1)
}

// unchecked reports whether the access is covered by the caller's proof.
func (c *compiler) unchecked(ix *lang.IndexExpr) bool {
	return c.opts.Unchecked != nil && c.opts.Unchecked(ix)
}

// index compiles the flattened element index of an array reference onto
// the stack. Unless the reference is proven in-bounds, every subscript is
// validated against its declared extent (opRange) before it participates
// in the flattening — a faulting subscript is clamped to 0 so evaluation
// can continue, with the fault recorded on the Code.
func (c *compiler) index(ix *lang.IndexExpr) error {
	decl := c.env.Prog.Array(ix.Array)
	if decl == nil {
		return fmt.Errorf("interp:%s: array %q not declared", ix.Pos, ix.Array)
	}
	if len(ix.Index) != len(decl.Dims) {
		return fmt.Errorf("interp:%s: array %q has %d dims, indexed with %d", ix.Pos, ix.Array, len(decl.Dims), len(ix.Index))
	}
	checked := !c.unchecked(ix)
	emitCheck := func(d int) error {
		if !checked {
			return nil
		}
		ext, err := c.env.extentVal(decl.Dims[d])
		if err != nil {
			return err
		}
		msg := fmt.Sprintf("%s: %s dim %d", ix.Pos, ix, d)
		c.emit(instr{op: opRange, a: c.checkIdx(-1, int32(ext), msg)})
		return nil
	}
	// idx = sub0; for each later dim: idx = idx*ext + sub.
	if err := c.expr(ix.Index[0]); err != nil {
		return err
	}
	if err := emitCheck(0); err != nil {
		return err
	}
	for d := 1; d < len(ix.Index); d++ {
		ext, err := c.env.extentVal(decl.Dims[d])
		if err != nil {
			return err
		}
		c.emit(instr{op: opConst, a: c.constIdx(float64(ext))})
		c.emit(instr{op: opMul})
		if err := c.expr(ix.Index[d]); err != nil {
			return err
		}
		if err := emitCheck(d); err != nil {
			return err
		}
		c.emit(instr{op: opAdd})
	}
	return nil
}

func (c *compiler) expr(e lang.Expr) error {
	switch x := e.(type) {
	case *lang.Num:
		c.emit(instr{op: opConst, a: c.constIdx(x.Val)})
	case *lang.Ident:
		if x.Name == c.loop.Var {
			c.emit(instr{op: opIter})
			return nil
		}
		if reg, ok := c.regOf[x.Name]; ok {
			c.emit(instr{op: opReg, a: reg})
			return nil
		}
		if v, ok := c.env.Params[x.Name]; ok {
			c.emit(instr{op: opConst, a: c.constIdx(float64(v))})
			return nil
		}
		return fmt.Errorf("interp:%s: unbound identifier %q", x.Pos, x.Name)
	case *lang.IndexExpr:
		if err := c.index(x); err != nil {
			return err
		}
		var slot, n int32
		var err error
		load, checked := opLoad1, opLoad1C
		if c.env.Prog.Array(x.Array).Int {
			load, checked = opLoadI, opLoadIC
			slot, n, err = bind(c.i32Of, &c.i32, c.env.Ints, x.Array)
		} else {
			slot, n, err = bind(c.f64Of, &c.f64, c.env.Floats, x.Array)
		}
		if err != nil {
			return err
		}
		if c.unchecked(x) {
			c.emit(instr{op: load, a: slot})
		} else {
			c.emit(instr{op: checked, a: c.checkIdx(slot, n, fmt.Sprintf("%s: %s", x.Pos, x))})
		}
	case *lang.BinExpr:
		if err := c.expr(x.L); err != nil {
			return err
		}
		if err := c.expr(x.R); err != nil {
			return err
		}
		switch x.Op {
		case '+':
			c.emit(instr{op: opAdd})
		case '-':
			c.emit(instr{op: opSub})
		case '*':
			c.emit(instr{op: opMul})
		case '/':
			c.emit(instr{op: opDiv})
		default:
			return fmt.Errorf("interp:%s: bad operator %q", x.Pos, x.Op)
		}
	case *lang.UnExpr:
		if err := c.expr(x.X); err != nil {
			return err
		}
		c.emit(instr{op: opNeg})
	case *lang.CallExpr:
		for _, a := range x.Args {
			if err := c.expr(a); err != nil {
				return err
			}
		}
		switch x.Fn {
		case "sqrt":
			c.emit(instr{op: opSqrt})
		case "abs":
			c.emit(instr{op: opAbs})
		case "min":
			c.emit(instr{op: opMin})
		case "max":
			c.emit(instr{op: opMax})
		default:
			return fmt.Errorf("interp:%s: unknown builtin %q", x.Pos, x.Fn)
		}
	default:
		return fmt.Errorf("interp: unknown expression node %T", e)
	}
	return nil
}
