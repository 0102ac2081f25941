package rts

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"irred/internal/algebra"
	"irred/internal/inspector"
	"irred/internal/obs"
)

// ContribFunc computes the contributions of iteration i for a reduce-mode
// loop: out has NumRef*comp slots, reference-major. p is the executing
// processor (for per-processor scratch state).
type ContribFunc func(p, i int, out []float64)

// ContribBlockFunc computes the contributions of a run of scheduled
// iterations at once — the form the native engine drives. iters holds up to
// 256 consecutive entries of one phase's iteration list; out is
// iteration-major, NumRef*comp slots per iteration, each iteration's slots
// laid out as a ContribFunc's out. The callee must write every slot and
// must not retain out: it is the worker's arena, reused for the next block.
// p is the executing processor.
type ContribBlockFunc func(p int, iters []int32, out []float64)

// blockIters is the most iterations one ContribBlockFunc call covers: long
// enough that the call and the loop set-up vanish against the arithmetic,
// short enough that a block's contributions are still in L1 when folded.
const blockIters = 256

// ConsumeFunc handles one gather-mode iteration: vals holds the comp
// components of the rotated array at the iteration's reference.
type ConsumeFunc func(p, i int, vals []float64)

// ConsumeBlockFunc handles a run of scheduled gather-mode iterations at
// once — the form the native engine drives. iters holds one phase's whole
// iteration list and targets the rotated-array element each reads: its
// comp components start at targets[j]*comp of Native.X. The callee
// consumes them in order. p is the executing processor, and pos the
// schedule position of iters[0]: its index in p's phase iteration lists
// laid end to end in phase order. A kernel that copies its per-iteration
// operands into that order once reads them as one stream, at pos+j.
type ConsumeBlockFunc func(p, pos int, iters, targets []int32)

// UpdateFunc runs the regular between-sweep loop for processor p (position
// updates, vector ops over the processor's home elements). It runs under a
// full barrier: all sweep work is complete and no sweep work has started.
type UpdateFunc func(p, step int)

// Native executes a loop's phase schedules on real goroutines, one per
// simulated processor. The rotated array is shared; portion ownership
// rotates via channel tokens, so within any phase processors touch disjoint
// portions. The token handoff provides the happens-before edges that make
// this race-free.
type Native struct {
	Loop *Loop
	// Scheds is the schedule set the engine runs, one per processor. Run
	// checks a set before its first sweep: every main-loop target and copy
	// pair must lie inside its processor's local image (gather targets:
	// inside the rotated array), and the loops must be able to index it.
	// A set that fails is refused before any worker starts, with X, the
	// remote buffers and every hook untouched. Run checks again only when
	// an entry of Scheds is another *Schedule than last time, so a
	// schedule held by a Native is replaced, never edited in place.
	Scheds []*inspector.Schedule

	// X is the rotated array, len NumElems*comp (component-minor). For
	// reduce loops it is the reduction array; for gather loops the read
	// vector.
	X []float64

	// Contribs or ContribBlock supplies a reduce loop's contributions. The
	// engine drives only the block form: a per-iteration Contribs is wrapped
	// into one at Run start, and ContribBlock wins when both are set.
	Contribs     ContribFunc
	ContribBlock ContribBlockFunc
	// Weights and Coef give a scalar reduce loop's contributions as data:
	// iteration it adds Coef[r]·Weights[it] at reference r, nil Weights
	// meaning 1. The fast body of a two-reference loop folds them straight
	// from these arrays; every other body takes them through LinearBlock.
	// Contribs and ContribBlock win over them.
	Weights []float64
	Coef    []float64
	// Consume or ConsumeBlock handles a gather loop's iterations, on the
	// same terms: the engine drives only ConsumeBlock, a per-iteration
	// Consume is wrapped into one at Run start, and ConsumeBlock wins when
	// both are set.
	Consume      ConsumeFunc
	ConsumeBlock ConsumeBlockFunc
	Update       UpdateFunc

	// Trace, when non-nil, records one span per unit of phase work — the
	// rotation wait (obs.SpanWait), the copy loop (obs.SpanCopy), the main
	// loop (obs.SpanCompute) and the Update hook (obs.SpanUpdate) — tagged
	// with processor, phase, step and portion; the barrier waits around
	// Update are obs.SpanWait spans of phase -1. NewNativeFrom seeds it
	// from Loop.Trace; callers may override before Run.
	Trace *obs.Tracer

	bufs    [][]float64  // per-processor remote buffers, len BufLen*comp
	arenas  [][]float64  // per-processor contribution blocks, once a block body runs
	chans   []chan token // chans[p]: portions arriving at processor p
	guarded bool         // run the guarded bodies whatever the loop (tests)

	// scanned is the set the last target scan passed, nil before the first
	// Run.
	scanned []*inspector.Schedule
}

type token struct{ portion int }

// NewNative prepares a native run, building the LightInspector schedules.
func NewNative(l *Loop) (*Native, error) {
	scheds, err := l.Schedules()
	if err != nil {
		return nil, err
	}
	return NewNativeFrom(l, scheds)
}

// NewNativeFrom prepares a native run over previously built schedules —
// e.g. served from a schedule cache — skipping the LightInspector pass.
// scheds must be the full processor set for the loop: one schedule per
// processor in processor order, each built from the loop's configuration
// and indirection arrays. Schedules are only read during the run, so the
// same set may back any number of concurrent Natives.
func NewNativeFrom(l *Loop, scheds []*inspector.Schedule) (*Native, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if len(scheds) != l.Cfg.P {
		return nil, fmt.Errorf("rts: %d schedules for P = %d", len(scheds), l.Cfg.P)
	}
	for p, s := range scheds {
		if s == nil {
			return nil, fmt.Errorf("rts: schedule %d is nil", p)
		}
		if s.Proc != p {
			return nil, fmt.Errorf("rts: schedule %d is for processor %d", p, s.Proc)
		}
		if s.Cfg != l.Cfg {
			return nil, fmt.Errorf("rts: schedule %d built for %+v, loop wants %+v", p, s.Cfg, l.Cfg)
		}
		if s.NumRef != len(l.Ind) {
			return nil, fmt.Errorf("rts: schedule %d has %d references, loop has %d", p, s.NumRef, len(l.Ind))
		}
	}
	comp := l.Cost.comp()
	n := &Native{
		Loop:   l,
		Scheds: scheds,
		X:      make([]float64, l.Cfg.NumElems*comp),
		Trace:  l.Trace,
		bufs:   make([][]float64, l.Cfg.P),
		chans:  make([]chan token, l.Cfg.P),
	}
	ident, _ := l.Combine.Identity()
	for p := 0; p < l.Cfg.P; p++ {
		n.bufs[p] = make([]float64, scheds[p].BufLen*comp)
		fillIdent(n.bufs[p], ident)
		n.chans[p] = make(chan token, l.Cfg.NumPhases()+1)
	}
	return n, nil
}

// fillIdent seeds an accumulation buffer with the combine's identity.
// The zero value (float add) needs no work: make() already zeroed it.
func fillIdent(buf []float64, ident float64) {
	if ident == 0 {
		return
	}
	for i := range buf {
		buf[i] = ident
	}
}

// Run executes steps timesteps: each is one full sweep of k*P phases
// followed by the Update hook (if any) under a global barrier. It returns
// an error, before any sweep, if the mode's required callback is missing
// or the schedule set fails its check.
func (n *Native) Run(steps int) error {
	return n.RunContext(context.Background(), steps)
}

// RunContext is Run with cancellation: when ctx is cancelled or its
// deadline expires, every worker stops at its next phase boundary, blocking
// portion receive or barrier wait, and RunContext returns ctx.Err().
// Cancellation cannot deadlock the token protocol — portion sends are
// buffered and never block, so a worker that exits early only starves
// receivers and barrier waiters, which themselves watch ctx. After a
// cancelled run the rotated array holds partial sums and token positions
// are unspecified; the Native must not be reused.
//
// One set of P workers serves the whole run. Without an Update hook sweeps
// need no barrier between timesteps — portion tokens alone order every
// access, so processors pipeline across sweeps exactly as EARTH fibers
// would. With one, the workers meet at a barrier before and after it.
func (n *Native) RunContext(ctx context.Context, steps int) error {
	l := n.Loop
	r := &nativeRun{
		n:     n,
		cfg:   l.Cfg,
		comp:  l.Cost.comp(),
		x:     n.X,
		tr:    n.Trace,
		done:  ctx.Done(),
		steps: steps,
	}
	switch l.Mode {
	case Reduce:
		r.block = n.ContribBlock
		if r.block == nil && n.Contribs != nil {
			r.block = blockOf(n.Contribs, len(l.Ind)*r.comp)
		}
		if r.block == nil {
			if err := n.checkLinear(r.comp); err != nil {
				return err
			}
			r.weights, r.coef, r.block = n.Weights, n.Coef, LinearBlock(n.Weights, n.Coef)
		}
	case Gather:
		if n.Weights != nil || n.Coef != nil {
			return fmt.Errorf("rts: gather-mode native run takes no Weights or Coef")
		}
		r.consume = n.ConsumeBlock
		if r.consume == nil {
			if n.Consume == nil {
				return fmt.Errorf("rts: gather-mode native run needs Consume")
			}
			r.consume = consumeBlockOf(n.Consume, r.x, r.comp)
		}
	}
	if n.scanned == nil || !slices.Equal(n.Scheds, n.scanned) {
		if err := n.scanTargets(); err != nil {
			return err
		}
		n.scanned = slices.Clone(n.Scheds)
	}

	// Everything that is constant for the run is decided here, once: the
	// fast bodies serve float add, the guarded bodies every other combine.
	r.fast = !n.guarded && l.Combine.Kind == algebra.Add
	// A block body needs each processor's contribution arena; the fast
	// body of a two-reference data form folds without one.
	blockBody := r.coef == nil || !r.fast || len(l.Ind) != 2
	if l.Mode == Reduce && blockBody && n.arenas == nil {
		n.arenas = make([][]float64, l.Cfg.P)
		for p := range n.arenas {
			n.arenas[p] = make([]float64, blockIters*len(l.Ind)*r.comp)
		}
	}
	if n.Update != nil {
		r.bar = newBarrier(l.Cfg.P)
	}

	var wg sync.WaitGroup
	wg.Add(l.Cfg.P)
	for p := 0; p < l.Cfg.P; p++ {
		go func(p int) {
			defer wg.Done()
			r.work(p)
		}(p)
	}
	wg.Wait()
	return ctx.Err()
}

// blockOf adapts a per-iteration contribution function to the block form;
// stride is NumRef*comp.
func blockOf(f ContribFunc, stride int) ContribBlockFunc {
	return func(p int, iters []int32, out []float64) {
		for j, it := range iters {
			f(p, int(it), out[j*stride:(j+1)*stride:(j+1)*stride])
		}
	}
}

// checkLinear rejects a reduce loop with no contributions, and a data form
// the fast body cannot fold.
func (n *Native) checkLinear(comp int) error {
	switch l := n.Loop; {
	case len(n.Coef) != len(l.Ind):
		return fmt.Errorf("rts: reduce-mode native run needs Contribs, ContribBlock or one Coef per reference (%d coefficients for %d references)", len(n.Coef), len(l.Ind))
	case n.Weights != nil && len(n.Weights) != l.Cfg.NumIters:
		return fmt.Errorf("rts: %d weights for %d iterations", len(n.Weights), l.Cfg.NumIters)
	case comp != 1:
		return fmt.Errorf("rts: Weights and Coef need scalar elements, the loop has %d components", comp)
	}
	return nil
}

// LinearBlock adapts contributions given as data — iteration it adds
// coef[r]·weights[it] at reference r, nil weights meaning 1 — to the block
// form over scalar elements.
func LinearBlock(weights, coef []float64) ContribBlockFunc {
	return func(_ int, iters []int32, out []float64) {
		w := 1.0
		for j, it := range iters {
			if weights != nil {
				w = weights[it]
			}
			for r, c := range coef {
				out[j*len(coef)+r] = c * w
			}
		}
	}
}

// consumeBlockOf adapts a per-iteration gather function to the block form
// over the rotated array x of comp-component elements.
func consumeBlockOf(f ConsumeFunc, x []float64, comp int) ConsumeBlockFunc {
	return func(p, _ int, iters, targets []int32) {
		for j, it := range iters {
			tb := int(targets[j]) * comp
			f(p, int(it), x[tb:tb+comp])
		}
	}
}

// scanTargets is the single pass over a schedule set that Run makes before
// the set's first sweep. It returns the first fault it meets, lowest
// processor first: a shape the loops cannot index — a missing schedule,
// phase or reference, a target list shorter than its iteration list, more
// buffer slots than the Native holds — or a main-loop target or copy pair
// outside its processor's local image (gather targets: outside the
// rotated array).
func (n *Native) scanTargets() error {
	cfg := n.Loop.Cfg
	if len(n.Scheds) != cfg.P {
		return fmt.Errorf("rts: target check: %d schedules for P = %d", len(n.Scheds), cfg.P)
	}
	comp := n.Loop.Cost.comp()
	gather := n.Loop.Mode == Gather
	for p, s := range n.Scheds {
		if s == nil {
			return fmt.Errorf("rts: target check: schedule %d is nil", p)
		}
		if s.BufLen*comp > len(n.bufs[p]) {
			return fmt.Errorf("rts: target check: proc %d: schedule has %d buffer slots, the Native holds %d", p, s.BufLen, len(n.bufs[p])/comp)
		}
		if len(s.Phases) != cfg.NumPhases() {
			return fmt.Errorf("rts: target check: proc %d: schedule has %d phases, want %d", p, len(s.Phases), cfg.NumPhases())
		}
		localLen := s.LocalLen()
		limit := localLen
		if gather {
			limit = cfg.NumElems
		}
		for ph := range s.Phases {
			prog := &s.Phases[ph]
			if len(prog.Ind) != len(n.Loop.Ind) {
				return fmt.Errorf("rts: target check: proc %d phase %d: %d references, loop has %d", p, ph, len(prog.Ind), len(n.Loop.Ind))
			}
			for r, ind := range prog.Ind {
				if len(ind) != len(prog.Iters) {
					return fmt.Errorf("rts: target check: proc %d phase %d: reference %d has %d targets for %d iterations", p, ph, r, len(ind), len(prog.Iters))
				}
				for j, tgt := range ind {
					if int(tgt) < 0 || int(tgt) >= limit {
						if gather {
							return fmt.Errorf("rts: target check: proc %d phase %d: iteration %d gathers %d outside the rotated array [0,%d)", p, ph, prog.Iters[j], tgt, limit)
						}
						return fmt.Errorf("rts: target check: proc %d phase %d: iteration %d writes %d outside the local image [0,%d)", p, ph, prog.Iters[j], tgt, limit)
					}
				}
			}
			for _, cp := range prog.Copies {
				if int(cp.Elem) < 0 || int(cp.Elem) >= cfg.NumElems ||
					int(cp.Buf) < cfg.NumElems || int(cp.Buf) >= localLen {
					return fmt.Errorf("rts: target check: proc %d phase %d: drain %d -> %d outside image (elems %d, local %d)",
						p, ph, cp.Buf, cp.Elem, cfg.NumElems, localLen)
				}
			}
		}
	}
	return nil
}

// nativeRun holds what one RunContext call fixes for all of its workers.
type nativeRun struct {
	n       *Native
	cfg     inspector.Config
	comp    int
	x       []float64
	tr      *obs.Tracer
	done    <-chan struct{} // nil when the context cannot be cancelled
	steps   int
	block   ContribBlockFunc // reduce mode
	weights []float64        // the data form (reduce mode), when coef is set
	coef    []float64
	consume ConsumeBlockFunc // gather mode
	fast    bool             // float-add bodies; else the guarded ones
	bar     *barrier         // nil without an Update hook
}

// work is processor p's whole run.
func (r *nativeRun) work(p int) {
	for step := 0; step < r.steps; step++ {
		if !r.sweep(p, step) {
			return
		}
		if r.bar == nil {
			continue
		}
		if !r.meet(p, step) {
			return
		}
		us := r.tr.Begin()
		r.n.Update(p, step)
		r.tr.End(obs.SpanUpdate, p, -1, step, -1, us)
		// After the last Update the run's own join is the barrier.
		if step+1 < r.steps && !r.meet(p, step) {
			return
		}
	}
}

// meet waits at the barrier, recording the wait; false means cancelled.
func (r *nativeRun) meet(p, step int) bool {
	ws := r.tr.Begin()
	ok := r.bar.wait(p, r.done)
	r.tr.End(obs.SpanWait, p, -1, step, -1, ws)
	return ok
}

// recv takes the next portion arriving at processor p; false means
// cancelled. The portion is usually there already or microseconds away, so
// the channel is polled before the worker parks on it.
func (r *nativeRun) recv(p int) (token, bool) {
	ch := r.n.chans[p]
	var tok token
	if spinUntil(func() bool {
		select {
		case tok = <-ch:
			return true
		default:
			return false
		}
	}) {
		return tok, true
	}
	select {
	case tok = <-ch:
		return tok, true
	case <-r.done:
		return token{}, false
	}
}

// spinUntil polls ready — busily at first, then yielding the thread
// between polls — and reports whether it came true before the budget ran
// out. Parking and waking a goroutine costs tens of microseconds, as much
// as a phase of a fine-grained sweep; the workers' waits are mostly
// shorter than that, so they park only after this.
func spinUntil(ready func() bool) bool {
	const busy, yielding = 128, 512
	for i := 0; i < busy+yielding; i++ {
		if ready() {
			return true
		}
		if i >= busy {
			runtime.Gosched()
		}
	}
	return false
}

// sweep runs processor p through timestep step's k*P phases. It reports
// whether it ran to completion; a cancelled context aborts it at the next
// phase boundary or blocked portion receive.
func (r *nativeRun) sweep(p, step int) bool {
	n, cfg, tr := r.n, r.cfg, r.tr
	s := n.Scheds[p]
	kp := cfg.NumPhases()
	prev := (p - 1 + cfg.P) % cfg.P
	reduce := n.Loop.Mode == Reduce
	pos := 0 // schedule position of the phase's first iteration

	for ph := 0; ph < kp; ph++ {
		if r.done != nil {
			select {
			case <-r.done:
				return false
			default:
			}
		}
		// The first k phases use home portions, pre-placed initially and
		// re-consumed by the drain at the end of the previous sweep; later
		// phases receive their portion from processor p+1, in phase order.
		if ph >= cfg.K {
			ws := tr.Begin()
			tok, ok := r.recv(p)
			if !ok {
				return false
			}
			tr.End(obs.SpanWait, p, ph, step, tok.portion, ws)
		}

		portion := cfg.PortionAt(p, ph)
		prog := &s.Phases[ph]
		// Second (copy) loop: fold buffered contributions into the
		// just-arrived portion and clear the slots for the next sweep.
		cs := tr.Begin()
		if r.fast {
			r.drainFast(p, prog)
		} else {
			r.drainGuarded(p, prog)
		}
		tr.End(obs.SpanCopy, p, ph, step, portion, cs)

		// Main loop.
		ms := tr.Begin()
		switch {
		case !reduce:
			r.consume(p, pos, prog.Iters, prog.Ind[0])
		case r.fast:
			r.reduceFast(p, prog)
		default:
			r.reduceGuarded(p, prog)
		}
		tr.End(obs.SpanCompute, p, ph, step, portion, ms)
		pos += len(prog.Iters)

		// Pass the portion on to processor p-1.
		n.chans[prev] <- token{portion: portion}
	}

	// Consume the k home portions returning at sweep end so the next
	// sweep's first k phases find them "pre-placed" — and so Update runs
	// only after all contributions to the home block have landed.
	for i := 0; i < cfg.K; i++ {
		ws := tr.Begin()
		tok, ok := r.recv(p)
		if !ok {
			return false
		}
		tr.End(obs.SpanWait, p, -1, step, tok.portion, ws)
	}
	return true
}

// locate addresses a processor's local image as the paper's one index
// space: the rotated array followed by the processor's remote buffer, held
// as [2][]float64{X, buf}. Local index t lies in array b = 1 exactly when
// t >= numElems — the sign bit of numElems-1-t, so the fold branches on no
// data — at element e = t - b*numElems.
func locate(t, numElems int) (b, e int) {
	b = int(uint(numElems-1-t) >> 63)
	return b, t - b*numElems
}

// reduceFast is the main loop of a float-add phase. Contributions arrive a block at a time, or as data; the fold stays
// iteration-major, reference by reference, so the order in which sums meet
// an element — and with it every bit of the result — is the sequential
// phase program's.
func (r *nativeRun) reduceFast(p int, prog *inspector.PhaseProgram) {
	img := [2][]float64{r.x, r.n.bufs[p]}
	comp, numElems := r.comp, r.cfg.NumElems
	stride := len(prog.Ind) * comp
	// Every reduction in the paper has two references. Their loops —
	// scalar elements (every raw job) and three-component ones (euler's
	// residual, moldyn's force) — fold both references inline, without
	// the reference loop or the component loop: each costs as much as the
	// additions it controls. Scalar elements under any other number of
	// references still skip the component loop.
	pair := len(prog.Ind) == 2
	if pair && r.coef != nil {
		// Contributions as data need no block: each weight is read once and
		// folded as coef[r]·w, rounded before the addition (the conversion
		// forbids a fused multiply-add) as LinearBlock's output is.
		weights, c0, c1, w := r.weights, r.coef[0], r.coef[1], 1.0
		t0, t1 := prog.Ind[0][:len(prog.Iters)], prog.Ind[1][:len(prog.Iters)]
		for j, it := range prog.Iters {
			if weights != nil {
				w = weights[it]
			}
			b, e := locate(int(t0[j]), numElems)
			img[b][e] += float64(c0 * w)
			b, e = locate(int(t1[j]), numElems)
			img[b][e] += float64(c1 * w)
		}
		return
	}
	arena := r.n.arenas[p]
	for lo := 0; lo < len(prog.Iters); lo += blockIters {
		hi := min(lo+blockIters, len(prog.Iters))
		out := arena[:(hi-lo)*stride]
		r.block(p, prog.Iters[lo:hi], out)
		switch {
		case pair && comp == 1:
			t0, t1 := prog.Ind[0][lo:hi], prog.Ind[1][lo:hi]
			t1, out = t1[:len(t0)], out[:2*len(t0)]
			for j, t := range t0 {
				b, e := locate(int(t), numElems)
				img[b][e] += out[2*j]
				b, e = locate(int(t1[j]), numElems)
				img[b][e] += out[2*j+1]
			}
		case pair && comp == 3:
			t0, t1 := prog.Ind[0][lo:hi], prog.Ind[1][lo:hi]
			t1 = t1[:len(t0)]
			for j, t := range t0 {
				s := (*[6]float64)(out[6*j:])
				b, e := locate(int(t), numElems)
				d := (*[3]float64)(img[b][3*e:])
				d[0] += s[0]
				d[1] += s[1]
				d[2] += s[2]
				b, e = locate(int(t1[j]), numElems)
				d = (*[3]float64)(img[b][3*e:])
				d[0] += s[3]
				d[1] += s[4]
				d[2] += s[5]
			}
		case comp == 1:
			for j := lo; j < hi; j++ {
				for _, ind := range prog.Ind {
					b, e := locate(int(ind[j]), numElems)
					img[b][e] += out[0]
					out = out[1:]
				}
			}
		default:
			for j := lo; j < hi; j++ {
				for _, ind := range prog.Ind {
					b, e := locate(int(ind[j]), numElems)
					d := img[b][e*comp:][:comp]
					for c, v := range out[:comp] {
						d[c] += v
					}
					out = out[comp:]
				}
			}
		}
	}
}

// reduceGuarded is the main loop of every combine reduceFast does not
// take, folding through op.Fold, and the reference the fast bodies are
// held to (ForceGuarded in the tests): one general loop, in the same
// order, with no body picked by shape.
func (r *nativeRun) reduceGuarded(p int, prog *inspector.PhaseProgram) {
	n, cfg := r.n, r.cfg
	img, arena := [2][]float64{r.x, n.bufs[p]}, n.arenas[p]
	comp := r.comp
	stride := len(prog.Ind) * comp
	op := n.Loop.Combine
	add := op.Kind == algebra.Add

	for lo := 0; lo < len(prog.Iters); lo += blockIters {
		hi := min(lo+blockIters, len(prog.Iters))
		out := arena[:(hi-lo)*stride]
		r.block(p, prog.Iters[lo:hi], out)
		for j := lo; j < hi; j++ {
			scratch := out[(j-lo)*stride:][:stride]
			for ref := range prog.Ind {
				b, e := locate(int(prog.Ind[ref][j]), cfg.NumElems)
				d := img[b][e*comp:][:comp]
				for c, v := range scratch[ref*comp:][:comp] {
					if add {
						d[c] += v
					} else {
						d[c] = op.Fold(d[c], v)
					}
				}
			}
		}
	}
}

// drainFast is the copy loop beside reduceFast: float add.
func (r *nativeRun) drainFast(p int, prog *inspector.PhaseProgram) {
	x, buf := r.x, r.n.bufs[p]
	comp, numElems := r.comp, r.cfg.NumElems
	if comp == 1 { // every raw job: no component loop
		for _, cp := range prog.Copies {
			s := int(cp.Buf) - numElems
			x[cp.Elem] += buf[s]
			buf[s] = 0
		}
		return
	}
	for _, cp := range prog.Copies {
		dst := x[int(cp.Elem)*comp:][:comp]
		src := buf[(int(cp.Buf)-numElems)*comp:][:comp]
		for c, v := range src {
			dst[c] += v
			src[c] = 0
		}
	}
}

// drainGuarded is the copy loop beside reduceGuarded: any combine,
// resetting each drained slot to its identity.
func (r *nativeRun) drainGuarded(p int, prog *inspector.PhaseProgram) {
	n, cfg := r.n, r.cfg
	x, buf := r.x, n.bufs[p]
	comp := r.comp
	op := n.Loop.Combine
	add := op.Kind == algebra.Add
	ident, _ := op.Identity()

	for _, cp := range prog.Copies {
		eb := int(cp.Elem) * comp
		bb := (int(cp.Buf) - cfg.NumElems) * comp
		for c := 0; c < comp; c++ {
			if add {
				x[eb+c] += buf[bb+c]
				buf[bb+c] = 0
			} else {
				x[eb+c] = op.Fold(x[eb+c], buf[bb+c])
				buf[bb+c] = ident
			}
		}
	}
}

// barrier is a reusable barrier for a fixed set of workers. A sweep's
// stragglers are microseconds apart, so a waiter first spins, then yields
// its thread, and only then parks on its own wake channel, where a closed
// done channel releases it too. All state is atomic: the last arrival's
// generation bump is the happens-before edge from every worker's work
// before the barrier to every worker's work after it.
type barrier struct {
	arrived atomic.Int32
	gen     atomic.Uint32
	slots   []barrierSlot // one per worker
}

type barrierSlot struct {
	parked atomic.Bool
	wake   chan struct{} // capacity 1: at most one release per parking
	_      [48]byte      // keep neighbours' flags off this cache line
}

func newBarrier(workers int) *barrier {
	b := &barrier{slots: make([]barrierSlot, workers)}
	for i := range b.slots {
		b.slots[i].wake = make(chan struct{}, 1)
	}
	return b
}

// wait blocks worker p until every worker has arrived, or done is closed;
// it reports which. After a false return the barrier is broken for good.
func (b *barrier) wait(p int, done <-chan struct{}) bool {
	gen := b.gen.Load()
	if int(b.arrived.Add(1)) == len(b.slots) {
		b.arrived.Store(0)
		b.gen.Add(1)
		for i := range b.slots {
			if s := &b.slots[i]; s.parked.CompareAndSwap(true, false) {
				s.wake <- struct{}{}
			}
		}
		return true
	}
	if spinUntil(func() bool { return b.gen.Load() != gen }) {
		return true
	}
	s := &b.slots[p]
	for {
		s.parked.Store(true)
		if b.gen.Load() != gen {
			// Released between the last poll and parking. Whoever clears
			// the flag owns the wake-up: if a releaser got there first its
			// token is on the way and must not be left for the next barrier.
			if !s.parked.CompareAndSwap(true, false) {
				<-s.wake
			}
			return true
		}
		select {
		case <-s.wake:
			if b.gen.Load() != gen {
				return true
			}
			// The previous generation's releaser, still walking the slots,
			// took this parking for one of its own: park again.
		case <-done:
			return false
		}
	}
}
