package inspector

import (
	"fmt"
	"math"
	"sync"

	"irred/internal/obs"
)

// CopyPair is one iteration of the second (copy) loop: when the owning
// phase begins, X[Elem] += X[Buf] folds a buffered contribution into the
// just-arrived portion, and the buffer slot is cleared for the next sweep.
type CopyPair struct {
	Elem int32 // reduction element (global index, owned in this phase)
	Buf  int32 // buffer slot (index >= Config.NumElems in the local image)
}

// PhaseProgram is everything one processor executes during one phase.
type PhaseProgram struct {
	// Iters lists the global iteration numbers assigned to this phase (in
	// increasing order as built by Light; incremental updates may reorder).
	Iters []int32
	// Ind holds, per indirection reference r, the rewritten local index of
	// Iters[j]'s r-th reduction access: either an owned element (global
	// numbering — no renumbering is needed since portions are contiguous)
	// or a remote-buffer slot >= NumElems.
	Ind [][]int32
	// Copies is the second loop of this phase.
	Copies []CopyPair
}

// Schedule is the LightInspector output for one processor: the per-phase
// iteration partition, rewritten indirection arrays, buffer extent, and
// copy loops. A processor's local image of the reduction array has
// NumElems + BufLen slots.
type Schedule struct {
	Cfg    Config
	Proc   int
	NumRef int            // indirection references per iteration
	BufLen int            // remote-buffer slots appended after NumElems
	Phases []PhaseProgram // len Cfg.NumPhases()

	incr *incrState // lazily-built state for incremental updates
}

// Light runs the LightInspector for processor proc. ind holds one
// indirection array per reduction reference in the loop (the paper's
// IA(i,1), IA(i,2), ...); each must have length Cfg.NumIters and values in
// [0, NumElems). The routine inspects only iterations owned by proc and
// performs no communication.
//
// The three steps follow Section 3 of the paper:
//  1. assign each local iteration to the earliest phase in which one of its
//     referenced portions is owned;
//  2. rewrite indirection values — owned references keep their element
//     index, future-phase references get a remote-buffer slot (slots are
//     shared by references to the same element, so each deferred element is
//     buffered and copied exactly once per sweep);
//  3. build the per-phase copy loops that apply buffered contributions when
//     the portion arrives.
func Light(cfg Config, proc int, ind ...[]int32) (*Schedule, error) {
	return LightTraced(cfg, proc, nil, ind...)
}

// LightTraced is Light recording one obs.SpanInspect span per invocation
// (tagged with the processor), so a serving layer can show how much
// inspector cost each schedule build amortizes. A nil tracer traces
// nothing.
func LightTraced(cfg Config, proc int, tr *obs.Tracer, ind ...[]int32) (*Schedule, error) {
	defer tr.End(obs.SpanInspect, proc, -1, -1, -1, tr.Begin())
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proc < 0 || proc >= cfg.P {
		return nil, fmt.Errorf("inspector: proc %d out of range [0,%d)", proc, cfg.P)
	}
	if len(ind) == 0 {
		return nil, fmt.Errorf("inspector: need at least one indirection array")
	}
	for r, a := range ind {
		if len(a) != cfg.NumIters {
			return nil, fmt.Errorf("inspector: indirection array %d has %d entries, want %d", r, len(a), cfg.NumIters)
		}
	}
	if cfg.NumPhases() <= 1<<8 {
		return light[uint8](cfg, proc, ind)
	}
	return light[int32](cfg, proc, ind)
}

// LightAll runs the LightInspector for every processor, each on its own
// goroutine — processor p reads only its own iterations and writes only its
// own schedule, so the P inspections share nothing. It records one
// obs.SpanInspect span per processor, as LightTraced does, and on failure
// returns the error of the lowest-numbered processor that failed.
func LightAll(cfg Config, tr *obs.Tracer, ind ...[]int32) ([]*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	out := make([]*Schedule, cfg.P)
	errs := make([]error, cfg.P)
	if cfg.P == 1 {
		out[0], errs[0] = LightTraced(cfg, 0, tr, ind...)
	} else {
		var wg sync.WaitGroup
		wg.Add(cfg.P)
		for p := range out {
			go func(p int) {
				defer wg.Done()
				out[p], errs[p] = LightTraced(cfg, p, tr, ind...)
			}(p)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// light is the inspector proper, over checked arguments. It makes two
// passes over the processor's iterations:
//
//  1. validate every indirection value and find each iteration's phase —
//     the earliest among its references' portions, read from a k*P-entry
//     portion→phase table — counting iterations per phase and keeping each
//     iteration's phase in a T (a byte while k*P phases fit in one);
//  2. place every iteration in its phase's exactly sized arrays: a
//     reference inside the portion owned in that phase keeps its element, a
//     deferred one gets the buffer slot its element was first given.
//
// Slots are numbered in order of first deferred reference and every copy
// loop lists its pairs in slot order, so the schedule is the same, value for
// value, as one built by placing iterations in increasing order.
func light[T uint8 | int32](cfg Config, proc int, ind [][]int32) (*Schedule, error) {
	kp, numElems, nref := cfg.NumPhases(), cfg.NumElems, len(ind)
	// A portion index is a 32-bit division: elements are int32, and a
	// portion wider than 32 bits is portion 0 for all of them.
	ps := uint32(math.MaxUint32)
	if w := cfg.PortionSize(); uint64(w) < math.MaxUint32 {
		ps = uint32(w)
	}
	phaseOf := make([]int32, kp) // phaseOf[q]: the phase proc owns portion q in
	owned := make([][2]int, kp)  // owned[ph]: element range [lo, hi) owned in phase ph
	for ph := range owned {
		q := cfg.PortionAt(proc, ph)
		phaseOf[q] = int32(ph)
		owned[ph][0], owned[ph][1] = cfg.PortionBounds(q)
	}
	// The local iterations are first, first+stride, ... — n of them.
	first, stride, n := proc, cfg.P, cfg.IterCount(proc)
	if cfg.Dist == Block {
		first, _ = cfg.IterRange(proc)
		stride = 1
	}

	// Pass 1.
	phase := make([]T, n)
	next := make([]int, kp) // iterations per phase, then each phase's fill position
	for j, i := 0, first; j < n; j, i = j+1, i+stride {
		best := int32(kp)
		for r, a := range ind {
			e := a[i]
			if uint(e) >= uint(numElems) {
				return nil, fmt.Errorf("inspector: indirection %d value %d at iteration %d out of range [0,%d)",
					r, e, i, numElems)
			}
			if ph := phaseOf[uint32(e)/ps]; ph < best {
				best = ph
			}
		}
		phase[j] = T(best)
		next[best]++
	}

	s := &Schedule{Cfg: cfg, Proc: proc, NumRef: nref, Phases: make([]PhaseProgram, kp)}
	iters := make([]int32, n)
	targets := make([]int32, nref*n) // reference r's targets at [r*n, (r+1)*n)
	refs := make([][]int32, kp*nref)
	at := 0
	for ph := range s.Phases {
		p := &s.Phases[ph]
		end := at + next[ph]
		p.Iters = iters[at:end:end]
		p.Ind = refs[ph*nref : (ph+1)*nref : (ph+1)*nref]
		for r := range p.Ind {
			p.Ind[r] = targets[r*n+at : r*n+end : r*n+end]
		}
		next[ph] = at
		at = end
	}

	// Pass 2. No slot is needed with one reference — it always decides the
	// phase — and there are at most as many slots as deferrable references
	// or elements, whichever is fewer.
	var slots slotTable
	if maxSlots := min(n*(nref-1), numElems); maxSlots > 0 {
		slots = newSlotTable(maxSlots)
	}
	var bufElem []int32       // the element each slot buffers, in slot order
	copies := make([]int, kp) // copy pairs per phase
	for j, i := 0, first; j < n; j, i = j+1, i+stride {
		ph := int(phase[j])
		at := next[ph]
		next[ph]++
		iters[at] = int32(i)
		lo, hi := owned[ph][0], owned[ph][1]
		for r, a := range ind {
			e := a[i]
			if int(e) >= lo && int(e) < hi {
				targets[r*n+at] = e
				continue
			}
			slot, fresh := slots.slotFor(e, int32(numElems+len(bufElem)))
			if fresh {
				bufElem = append(bufElem, e)
				copies[phaseOf[uint32(e)/ps]]++
			}
			targets[r*n+at] = slot
		}
	}

	// Copy loops, each in slot order.
	s.BufLen = len(bufElem)
	pairs := make([]CopyPair, len(bufElem))
	at = 0
	for ph := range s.Phases {
		end := at + copies[ph]
		s.Phases[ph].Copies = pairs[at:at:end]
		at = end
	}
	for b, e := range bufElem {
		p := &s.Phases[phaseOf[uint32(e)/ps]]
		p.Copies = append(p.Copies, CopyPair{Elem: e, Buf: int32(numElems + b)})
	}
	return s, nil
}

// slotTable maps each deferred element to its buffer slot: open addressing
// with linear probing over a power-of-two array at most half full, sized by
// the caller from how many slots there can be. A cell's key is its element
// plus one, so a zero cell is empty.
type slotTable struct {
	cells []slotCell
	shift uint
}

type slotCell struct{ key, slot int32 }

func newSlotTable(maxKeys int) slotTable {
	bits := uint(1)
	for 1<<bits < 2*maxKeys {
		bits++
	}
	return slotTable{cells: make([]slotCell, 1<<bits), shift: 32 - bits}
}

// slotFor returns e's slot, giving it next if it has none yet; fresh
// reports that it did.
func (t *slotTable) slotFor(e, next int32) (slot int32, fresh bool) {
	mask := uint32(len(t.cells) - 1)
	// Fibonacci hashing: the top bits of a multiplicative hash, so runs of
	// neighbouring elements spread over the table.
	for h := uint32(e) * 0x9E3779B1 >> t.shift; ; h = (h + 1) & mask {
		c := &t.cells[h]
		switch c.key {
		case e + 1:
			return c.slot, false
		case 0:
			c.key, c.slot = e+1, next
			return next, true
		}
	}
}

// LocalLen reports the length of this processor's local image of the
// reduction array: the full element range plus the remote buffer.
func (s *Schedule) LocalLen() int { return s.Cfg.NumElems + s.BufLen }

// NumIters reports the total iterations across all phases.
func (s *Schedule) NumIters() int {
	n := 0
	for i := range s.Phases {
		n += len(s.Phases[i].Iters)
	}
	return n
}

// NumCopies reports the total copy-loop iterations across all phases.
func (s *Schedule) NumCopies() int {
	n := 0
	for i := range s.Phases {
		n += len(s.Phases[i].Copies)
	}
	return n
}

// MaxPhaseIters reports the largest per-phase iteration count — the load-
// imbalance driver the paper discusses for block distributions.
func (s *Schedule) MaxPhaseIters() int {
	m := 0
	for i := range s.Phases {
		if n := len(s.Phases[i].Iters); n > m {
			m = n
		}
	}
	return m
}

// PhaseHistogram reports the per-phase iteration counts — the quantity the
// paper "carefully analyzed" to diagnose block-distribution imbalance.
func (s *Schedule) PhaseHistogram() []int {
	out := make([]int, len(s.Phases))
	for i := range s.Phases {
		out[i] = len(s.Phases[i].Iters)
	}
	return out
}

// Imbalance reports max/mean of the phase histogram (1.0 = perfectly
// balanced; large values mean a few phases carry most of the work).
func (s *Schedule) Imbalance() float64 {
	n := s.NumIters()
	if n == 0 || len(s.Phases) == 0 {
		return 1
	}
	mean := float64(n) / float64(len(s.Phases))
	return float64(s.MaxPhaseIters()) / mean
}
