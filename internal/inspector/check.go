package inspector

import "fmt"

// The schedule checker. Ownership is a fixed formula and the LightInspector
// is purely local, so whether a schedule set can race is a property of
// each processor's schedule alone: Check proves it for one, CheckSet for a
// whole machine. A schedule that passes never writes outside its local
// image, writes the rotated array only inside the portion it owns in the
// writing phase, and drains every buffer slot it writes exactly once, in
// the phase its element's portion arrives, after the last write to it.
// Since the formula gives every (portion, phase) one owner, a set that
// passes CheckSet can never have two processors write one element in one
// phase, and since each processor runs exactly the iterations the
// distribution gives it, the set runs every iteration exactly once.

// CheckCode documents one schedule-checker code for listings.
type CheckCode struct {
	Code string
	Doc  string
}

// CheckCodes lists the schedule-checker codes in order.
var CheckCodes = []CheckCode{
	{"IRV001", "schedule set malformed: wrong processor count, config mismatch, ragged phase data, or more buffer slots than its references can use"},
	{"IRV002", "iteration coverage broken: an iteration is out of range, duplicated, on the wrong processor, or missing"},
	{"IRV003", "an iteration executes in a phase where none of its reduction elements is locally owned"},
	{"IRV004", "a write targets an index outside the local image, an element not owned in its phase or not the one the indirection array names, or a buffer slot holding another element or drained before the write"},
	{"IRV005", "a written buffer slot is not drained exactly once in the phase where its element's portion arrives, or a drained one is never written"},
}

// Violation is the first broken invariant Check or CheckSet found.
type Violation struct {
	Code string // one of CheckCodes
	Proc int    // the processor whose schedule breaks it; -1 for the set's shape
	Msg  string
}

func (v *Violation) Error() string {
	if v.Proc < 0 {
		return fmt.Sprintf("%s: %s", v.Code, v.Msg)
	}
	return fmt.Sprintf("%s: proc %d: %s", v.Code, v.Proc, v.Msg)
}

func violation(code string, proc int, format string, args ...any) error {
	return &Violation{Code: code, Proc: proc, Msg: fmt.Sprintf(format, args...)}
}

// CheckSet checks a whole machine's schedules: one per processor, in
// processor order, each built for cfg, and each passing Check. ind, when
// supplied, holds the loop's indirection arrays (one per reduction
// reference) for Check's origin checks. It returns the first violation of
// the lowest-numbered failing processor, as LightAll returns its error.
func CheckSet(cfg Config, scheds []*Schedule, ind ...[]int32) error {
	if err := cfg.Validate(); err != nil {
		return violation("IRV001", -1, "config invalid: %v", err)
	}
	if len(scheds) != cfg.P {
		return violation("IRV001", -1, "got %d schedules for %d processors", len(scheds), cfg.P)
	}
	for p, s := range scheds {
		switch {
		case s == nil:
			return violation("IRV001", p, "schedule missing")
		case s.Cfg != cfg:
			return violation("IRV001", p, "schedule built for %+v, checking against %+v", s.Cfg, cfg)
		case s.Proc != p:
			return violation("IRV001", p, "schedule at this position claims proc %d", s.Proc)
		}
		if err := s.Check(ind...); err != nil {
			return err
		}
	}
	return nil
}

// Check verifies one processor's schedule against the invariants
// CheckCodes lists and returns the first violation as a *Violation. ind,
// when supplied, holds the loop's indirection arrays and adds the origin
// checks: an owned write must name the element the array names, and a
// buffered one the element its slot drains into.
func (s *Schedule) Check(ind ...[]int32) error {
	cfg, proc := s.Cfg, s.Proc
	bad := func(code, format string, args ...any) error {
		return violation(code, proc, format, args...)
	}

	// IRV001: anything wrong here makes the deeper checks meaningless.
	if err := cfg.Validate(); err != nil {
		return bad("IRV001", "config invalid: %v", err)
	}
	switch {
	case proc < 0 || proc >= cfg.P:
		return bad("IRV001", "processor out of range [0,%d)", cfg.P)
	case len(s.Phases) != cfg.NumPhases():
		return bad("IRV001", "%d phases, want %d", len(s.Phases), cfg.NumPhases())
	case s.NumRef < 1:
		return bad("IRV001", "%d references", s.NumRef)
	case len(ind) > 0 && len(ind) != s.NumRef:
		return bad("IRV001", "schedule has %d references, %d indirection arrays supplied", s.NumRef, len(ind))
	}
	for r, a := range ind {
		if len(a) != cfg.NumIters {
			return bad("IRV001", "indirection %d has %d entries, want %d", r, len(a), cfg.NumIters)
		}
	}
	count := 0
	for ph := range s.Phases {
		p := &s.Phases[ph]
		if len(p.Ind) != s.NumRef {
			return bad("IRV001", "phase %d has %d references, want %d", ph, len(p.Ind), s.NumRef)
		}
		for r := range p.Ind {
			if len(p.Ind[r]) != len(p.Iters) {
				return bad("IRV001", "phase %d: ref %d has %d entries for %d iterations", ph, r, len(p.Ind[r]), len(p.Iters))
			}
		}
		count += len(p.Iters)
	}
	// What Check allocates is bounded by what the schedule holds, not by
	// what its header claims: n iterations are present, and a slot is only
	// ever made for a distinct element some iteration defers, which leaves
	// every iteration at least one reference kept in place.
	n := cfg.IterCount(proc)
	if count != n {
		return bad("IRV002", "scheduled %d iterations, processor owns %d", count, n)
	}
	if maxSlots := min(n*(s.NumRef-1), cfg.NumElems); s.BufLen < 0 || s.BufLen > maxSlots {
		return bad("IRV001", "buffer length %d exceeds the %d slots its references can use", s.BufLen, maxSlots)
	}

	// IRV005, first, so that the writes below know each slot's element and
	// drain phase: drainPh[b] is -1 until slot b's copy pair is seen.
	numElems, localLen := cfg.NumElems, s.LocalLen()
	slotElem := make([]int32, s.BufLen)
	drainPh := make([]int32, s.BufLen)
	for b := range drainPh {
		drainPh[b] = -1
	}
	for ph := range s.Phases {
		lo, hi := cfg.PortionBounds(cfg.PortionAt(proc, ph))
		for _, cp := range s.Phases[ph].Copies {
			b := int(cp.Buf) - numElems
			switch {
			case b < 0 || b >= s.BufLen:
				return bad("IRV005", "phase %d: drain reads %d outside the buffer [%d,%d)", ph, cp.Buf, numElems, localLen)
			case int(cp.Elem) < lo || int(cp.Elem) >= hi:
				return bad("IRV005", "phase %d: buffer slot %d drains into element %d, not owned in this phase", ph, b, cp.Elem)
			case drainPh[b] >= 0:
				return bad("IRV005", "buffer slot %d drained twice, in phases %d and %d", b, drainPh[b], ph)
			}
			slotElem[b], drainPh[b] = cp.Elem, int32(ph)
		}
	}

	// The iterations. The local iterations are first, first+stride, ...,
	// so seen is indexed by local position; with the count right, an
	// iteration seen twice is the only way to miss one.
	first, stride := proc, cfg.P
	if cfg.Dist == Block {
		first, _ = cfg.IterRange(proc)
		stride = 1
	}
	seen := make([]bool, n)
	written := make([]bool, s.BufLen)
	for ph := range s.Phases {
		p := &s.Phases[ph]
		lo, hi := cfg.PortionBounds(cfg.PortionAt(proc, ph))
		for j, it := range p.Iters {
			// IRV002: the local position bounds the range and the owner
			// at once.
			l := int(it) - first
			if l < 0 || l%stride != 0 || l/stride >= n {
				return bad("IRV002", "phase %d: iteration %d is not one of the %d iterations of [0,%d) the distribution gives this processor", ph, it, n, cfg.NumIters)
			}
			if seen[l/stride] {
				return bad("IRV002", "iteration %d scheduled twice", it)
			}
			seen[l/stride] = true

			// IRV004's image bound, then IRV003: the element of reference r
			// is the one ind names, or else its owned target.
			owns := false
			for r := range p.Ind {
				x := p.Ind[r][j]
				if x < 0 || int(x) >= localLen {
					return bad("IRV004", "phase %d: iteration %d ref %d writes %d outside the local image [0,%d)", ph, it, r, x, localLen)
				}
				e := x
				if len(ind) > 0 {
					e = ind[r][it]
				}
				owns = owns || int(e) >= lo && int(e) < hi
			}
			if !owns {
				return bad("IRV003", "phase %d: iteration %d references no element owned in this phase", ph, it)
			}

			// IRV004.
			for r := range p.Ind {
				x := p.Ind[r][j]
				if int(x) < numElems {
					if int(x) < lo || int(x) >= hi {
						return bad("IRV004", "phase %d: iteration %d ref %d writes element %d, owned in phase %d", ph, it, r, x, cfg.PhaseOf(proc, int(x)))
					}
					if len(ind) > 0 && ind[r][it] != x {
						return bad("IRV004", "phase %d: iteration %d ref %d writes element %d but the indirection array names %d", ph, it, r, x, ind[r][it])
					}
					continue
				}
				b := int(x) - numElems
				written[b] = true
				if drainPh[b] < 0 {
					continue // never drained: IRV005 below
				}
				if len(ind) > 0 && ind[r][it] != slotElem[b] {
					return bad("IRV004", "phase %d: iteration %d ref %d buffers element %d in slot %d, which holds element %d", ph, it, r, ind[r][it], b, slotElem[b])
				}
				if int(drainPh[b]) <= ph {
					return bad("IRV004", "phase %d: iteration %d ref %d writes buffer slot %d, drained in phase %d", ph, it, r, b, drainPh[b])
				}
			}
		}
	}

	// IRV005: slots freed by incremental updates are neither written nor
	// drained.
	for b, w := range written {
		switch {
		case w && drainPh[b] < 0:
			return bad("IRV005", "buffer slot %d written but never drained", b)
		case !w && drainPh[b] >= 0:
			return bad("IRV005", "buffer slot %d drained but never written", b)
		}
	}
	return nil
}
