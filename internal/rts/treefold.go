package rts

import (
	"fmt"
	"sync"

	"irred/internal/dataflow"
)

// TreeFold executes a reduce-mode loop with privatized accumulators: each
// worker folds a contiguous block of iterations into a private
// identity-seeded image of the reduction array, the images fold pairwise
// in a binary tree, and the root folds into the shared array. No portion
// rotation, no remote buffers, no inspector — the whole schedule is the
// operator's algebra.
//
// That is exactly why construction demands a schedule license: the tree
// regroups and reorders the fold arbitrarily, so it is only equivalent to
// the sequential loop when the combine is proven associative and
// commutative with a proven identity (TreeFoldLegal). NewTreeFold refuses
// any loop whose license does not carry that grant; there is no unchecked
// back door. The W6 model check (dataflow.ProveAllFold) verifies the
// tree order is bitwise-equal to rotation and to the sequential fold for
// every builtin operator on integral data at bounded P and k.
type TreeFold struct {
	Loop    *Loop
	License *dataflow.License

	// X is the reduction array, len NumElems*comp (component-minor). The
	// tree result folds into whatever X already holds, matching the
	// rotation engine's accumulate-on-top semantics.
	X []float64

	// Contribs or ContribBlock supplies the contributions, as for Native:
	// the workers drive only the block form, called on up to 256
	// consecutive iterations of their chunk; a per-iteration Contribs is
	// wrapped into one at Run start, and ContribBlock wins when both are set.
	Contribs     ContribFunc
	ContribBlock ContribBlockFunc
	Update       UpdateFunc

	// CheckTargets range-checks every private-image write, mirroring the
	// native engine: on by default, elided when the loop carries a bounds
	// proof covering the indirection contents.
	CheckTargets bool

	accs      [][]float64 // per-worker private images, identity-seeded
	iters     [][]int32   // per-worker block of iteration numbers
	arenas    [][]float64 // per-worker contribution blocks
	checkErrs []error
}

// NewTreeFold prepares a tree-fold run. lic must grant TreeFoldLegal for
// this loop's combine; a nil or weaker license is refused with an error
// naming the license level, so callers surface the analysis verdict
// instead of silently falling back to an unsound schedule.
func NewTreeFold(l *Loop, lic *dataflow.License) (*TreeFold, error) {
	if l.Mode != Reduce {
		return nil, fmt.Errorf("rts: tree-fold executes reduce loops only")
	}
	if err := l.Validate(); err != nil {
		return nil, err
	}
	if lic == nil {
		return nil, fmt.Errorf("rts: tree-fold needs a schedule license granting TreeFoldLegal; none was supplied")
	}
	if err := lic.Verify(); err != nil {
		return nil, fmt.Errorf("rts: tree-fold license failed its ledger self-check: %w", err)
	}
	if !lic.TreeFold {
		return nil, fmt.Errorf("rts: schedule license is %s; tree-fold needs TreeFoldLegal (combine %s)", lic.Level(), l.Combine)
	}
	comp := l.Cost.comp()
	proven := l.Proof != nil && l.Proof.IndProven && l.Proof.NumElems == l.Cfg.NumElems
	t := &TreeFold{
		Loop:         l,
		License:      lic,
		X:            make([]float64, l.Cfg.NumElems*comp),
		CheckTargets: !proven,
		accs:         make([][]float64, l.Cfg.P),
		iters:        make([][]int32, l.Cfg.P),
		arenas:       make([][]float64, l.Cfg.P),
	}
	for p := range t.accs {
		t.accs[p] = make([]float64, l.Cfg.NumElems*comp)
		t.iters[p] = make([]int32, blockIters)
		t.arenas[p] = make([]float64, blockIters*len(l.Ind)*comp)
	}
	return t, nil
}

// checkFail records the first range violation seen by worker p. The
// offending write is skipped and Run reports the violation afterwards.
func (t *TreeFold) checkFail(p int, format string, args ...any) {
	if t.checkErrs[p] == nil {
		t.checkErrs[p] = fmt.Errorf("rts: target check: "+format, args...)
	}
}

// Run executes steps timesteps. Each is one parallel sweep (workers fold
// their iteration blocks into private images), a parallel binary tree
// fold of the images, a fold of the root into X, and the Update hook
// under a full barrier.
func (t *TreeFold) Run(steps int) error {
	l := t.Loop
	P := l.Cfg.P
	comp := l.Cost.comp()
	stride := len(l.Ind) * comp
	block := t.ContribBlock
	if block == nil {
		if t.Contribs == nil {
			return fmt.Errorf("rts: tree-fold run needs Contribs")
		}
		block = blockOf(t.Contribs, stride)
	}
	op := l.Combine
	ident, _ := op.Identity()
	nelems := l.Cfg.NumElems
	niters := l.Cfg.NumIters
	chunk := (niters + P - 1) / P
	if t.CheckTargets {
		t.checkErrs = make([]error, P)
	}

	var wg sync.WaitGroup
	for step := 0; step < steps; step++ {
		// Sweep: worker p folds iterations [p*chunk, (p+1)*chunk) — in
		// increasing order, so each private image is the block's
		// sequential pre-grouping, the same shape W6 verifies.
		wg.Add(P)
		for p := 0; p < P; p++ {
			go func(p int) {
				defer wg.Done()
				acc := t.accs[p]
				for i := range acc {
					acc[i] = ident
				}
				iters, arena := t.iters[p], t.arenas[p]
				for lo, hi := p*chunk, min((p+1)*chunk, niters); lo < hi; lo += blockIters {
					its := iters[:min(hi-lo, blockIters)]
					for j := range its {
						its[j] = int32(lo + j)
					}
					block(p, its, arena[:len(its)*stride])
					for j, it := range its {
						scratch := arena[j*stride:]
						for r := range l.Ind {
							tgt := int(l.Ind[r][it])
							if t.CheckTargets && (tgt < 0 || tgt >= nelems) {
								t.checkFail(p, "worker %d: iteration %d writes %d outside the reduction array [0,%d)", p, it, tgt, nelems)
								continue
							}
							for c := 0; c < comp; c++ {
								acc[tgt*comp+c] = op.Fold(acc[tgt*comp+c], scratch[r*comp+c])
							}
						}
					}
				}
			}(p)
		}
		wg.Wait()

		// Binary tree: fold images pairwise. Each level's pairs touch
		// disjoint images, so they run concurrently; levels barrier.
		for stride := 1; stride < P; stride *= 2 {
			for i := 0; i+stride < P; i += 2 * stride {
				wg.Add(1)
				go func(a, b []float64) {
					defer wg.Done()
					for j := range a {
						a[j] = op.Fold(a[j], b[j])
					}
				}(t.accs[i], t.accs[i+stride])
			}
			wg.Wait()
		}

		// Root into the shared array.
		root := t.accs[0]
		for j := range t.X {
			t.X[j] = op.Fold(t.X[j], root[j])
		}

		if t.Update != nil {
			wg.Add(P)
			for p := 0; p < P; p++ {
				go func(p int) {
					defer wg.Done()
					t.Update(p, step)
				}(p)
			}
			wg.Wait()
		}
	}
	for _, err := range t.checkErrs {
		if err != nil {
			return err
		}
	}
	return nil
}
