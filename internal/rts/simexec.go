package rts

import (
	"irred/internal/algebra"
	"irred/internal/inspector"
)

// SimExec attaches real computation to a simulated run: each phase fiber,
// on completion, executes its phase program (copy loop + main loop) against
// shared data, and each update fiber runs the Update hook. Because the
// event engine is single-threaded and fibers fire in dependence order, a
// correct fiber graph produces exactly the sequential reduction — so
// executing under SimExec validates the *simulated program's* dataflow
// wiring (slots, portion routing, home returns), not just the native
// engine's.
type SimExec struct {
	// Contribs computes reduce-mode contributions (reference-major,
	// comp-minor), as in the native engine.
	Contribs ContribFunc
	// Consume handles gather-mode iterations.
	Consume ConsumeFunc
	// Update runs per processor at each timestep boundary.
	Update UpdateFunc
	// X is the rotated array, len NumElems*comp. Allocated by RunSim when
	// nil and an exec is attached.
	X []float64

	bufs    [][]float64
	scratch [][]float64
}

// prepare sizes the execution state for the given loop and schedules.
func (ex *SimExec) prepare(l *Loop, scheds []*inspector.Schedule) {
	comp := l.Cost.comp()
	if ex.X == nil {
		ex.X = make([]float64, l.Cfg.NumElems*comp)
	}
	ident, _ := l.Combine.Identity()
	ex.bufs = make([][]float64, l.Cfg.P)
	ex.scratch = make([][]float64, l.Cfg.P)
	for p := range ex.bufs {
		ex.bufs[p] = make([]float64, scheds[p].BufLen*comp)
		fillIdent(ex.bufs[p], ident)
		ex.scratch[p] = make([]float64, len(l.Ind)*comp)
	}
}

// runPhase executes processor p's phase ph against the shared data.
func (ex *SimExec) runPhase(l *Loop, s *inspector.Schedule, p, ph int) {
	comp := l.Cost.comp()
	buf := ex.bufs[p]
	prog := &s.Phases[ph]
	op := l.Combine
	add := op.Kind == algebra.Add
	ident, _ := op.Identity()
	for _, cp := range prog.Copies {
		eb := int(cp.Elem) * comp
		bb := (int(cp.Buf) - l.Cfg.NumElems) * comp
		for c := 0; c < comp; c++ {
			if add {
				ex.X[eb+c] += buf[bb+c]
				buf[bb+c] = 0
			} else {
				ex.X[eb+c] = op.Fold(ex.X[eb+c], buf[bb+c])
				buf[bb+c] = ident
			}
		}
	}
	switch l.Mode {
	case Reduce:
		if ex.Contribs == nil {
			return
		}
		scratch := ex.scratch[p]
		for j, it := range prog.Iters {
			ex.Contribs(p, int(it), scratch)
			for r := range prog.Ind {
				tgt := int(prog.Ind[r][j])
				if tgt < l.Cfg.NumElems {
					for c := 0; c < comp; c++ {
						if add {
							ex.X[tgt*comp+c] += scratch[r*comp+c]
						} else {
							ex.X[tgt*comp+c] = op.Fold(ex.X[tgt*comp+c], scratch[r*comp+c])
						}
					}
				} else {
					bb := (tgt - l.Cfg.NumElems) * comp
					for c := 0; c < comp; c++ {
						if add {
							buf[bb+c] += scratch[r*comp+c]
						} else {
							buf[bb+c] = op.Fold(buf[bb+c], scratch[r*comp+c])
						}
					}
				}
			}
		}
	case Gather:
		if ex.Consume == nil {
			return
		}
		for j, it := range prog.Iters {
			tgt := int(prog.Ind[0][j])
			ex.Consume(p, int(it), ex.X[tgt*comp:tgt*comp+comp])
		}
	}
}
