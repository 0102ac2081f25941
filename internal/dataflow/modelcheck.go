package dataflow

import (
	"fmt"

	"irred/internal/inspector"
)

// This file is the bounded exhaustive model checker for the systolic
// ownership protocol. The runtime's correctness rests on the ownership map
// PortionAt(p, ph) = (k*p + ph) mod (k*P): within any phase no two
// processors own the same portion (single writer), across a sweep every
// processor owns every portion exactly once (completeness), and portions
// migrate from processor p to p-1 every k phases (the systolic rotation
// that lets the transfer overlap k-1 phases of computation). The
// schedule checker (inspector.CheckSet) checks one concrete schedule set;
// the model checker proves them content-independently by exhausting every
// (P, k) strategy up to a bound — small enough to enumerate, large enough
// to cover every configuration the paper (and this repo's benchmarks)
// uses.

// Ownership abstracts the portion-ownership protocol under test. The
// production implementation is inspector.Config; tests inject corrupted
// implementations to prove the checker can fail.
type Ownership interface {
	// Procs is P, Phases is the sweep length k*P (also the portion count).
	Procs() int
	Phases() int
	// PortionAt reports the portion processor p owns during phase ph.
	PortionAt(p, ph int) int
	// OwnerAt reports the processor owning portion q during phase ph, or
	// -1 when no processor does.
	OwnerAt(q, ph int) int
	// PhaseOfPortion reports the phase during which processor p owns
	// portion q (the inverse of PortionAt).
	PhaseOfPortion(p, q int) int
}

// cfgOwnership adapts inspector.Config to the Ownership interface.
type cfgOwnership struct{ cfg inspector.Config }

func (o cfgOwnership) Procs() int              { return o.cfg.P }
func (o cfgOwnership) Phases() int             { return o.cfg.NumPhases() }
func (o cfgOwnership) PortionAt(p, ph int) int { return o.cfg.PortionAt(p, ph) }
func (o cfgOwnership) OwnerAt(q, ph int) int   { return o.cfg.OwnerAt(q, ph) }
func (o cfgOwnership) PhaseOfPortion(p, q int) int {
	// PhaseOf is defined on elements; portions are contiguous blocks of
	// PortionSize elements, so any element of the portion will do.
	return o.cfg.PhaseOf(p, q*o.cfg.PortionSize())
}

// ConfigOwnership wraps the production ownership map for model checking.
// NumIters/NumElems/Dist do not influence the ownership protocol; the
// wrapper picks an extent that exercises every portion.
func ConfigOwnership(p, k int) Ownership {
	return cfgOwnership{cfg: inspector.Config{
		P: p, K: k,
		NumIters: 1,
		NumElems: p * k, // one element per portion
		Dist:     inspector.Block,
	}}
}

// Violation is one failed protocol invariant for one strategy.
type Violation struct {
	P, K int
	Kind string // W1..W5
	Msg  string
}

func (v Violation) Error() string {
	return fmt.Sprintf("ownership(P=%d, k=%d): %s: %s", v.P, v.K, v.Kind, v.Msg)
}

// CheckStrategy machine-checks one strategy's ownership protocol:
//
//	W1 single writer   — within any phase, no portion has two owners;
//	W2 completeness    — each processor owns every portion exactly once
//	                     per sweep (rotation completeness);
//	W3 systolic motion — the portion owned by p in phase ph is owned by
//	                     p-1 (mod P) in phase ph+k: portions migrate one
//	                     processor per k phases;
//	W4 owner inverse   — OwnerAt agrees with PortionAt both ways, and
//	                     reports no owner in the dead phases between a
//	                     portion's visits;
//	W5 phase inverse   — PhaseOfPortion is the phase inverse of PortionAt.
//
// All violations are collected (up to a cap) rather than stopping at the
// first, so a corrupted protocol produces an actionable report.
func CheckStrategy(p, k int, own Ownership) []Violation {
	const maxViolations = 32
	var out []Violation
	report := func(kind, format string, args ...any) {
		if len(out) < maxViolations {
			out = append(out, Violation{P: p, K: k, Kind: kind, Msg: fmt.Sprintf(format, args...)})
		}
	}
	P := own.Procs()
	nph := own.Phases()
	if P != p || nph != p*k {
		report("W0", "strategy shape: Procs=%d Phases=%d, want %d and %d", P, nph, p, p*k)
		return out
	}

	// W1: per phase, portion -> owner is injective (and portions in range).
	for ph := 0; ph < nph; ph++ {
		ownerOf := make([]int, nph)
		for q := range ownerOf {
			ownerOf[q] = -1
		}
		for proc := 0; proc < P; proc++ {
			q := own.PortionAt(proc, ph)
			if q < 0 || q >= nph {
				report("W1", "phase %d: processor %d owns portion %d outside [0,%d)", ph, proc, q, nph)
				continue
			}
			if prev := ownerOf[q]; prev >= 0 {
				report("W1", "phase %d: portion %d owned by both processor %d and %d", ph, q, prev, proc)
			}
			ownerOf[q] = proc
		}
	}

	// W2: per processor, phase -> portion is a bijection onto [0, k*P).
	for proc := 0; proc < P; proc++ {
		seen := make([]int, nph)
		for q := range seen {
			seen[q] = -1
		}
		for ph := 0; ph < nph; ph++ {
			q := own.PortionAt(proc, ph)
			if q < 0 || q >= nph {
				continue // reported under W1
			}
			if prev := seen[q]; prev >= 0 {
				report("W2", "processor %d owns portion %d in both phase %d and %d", proc, q, prev, ph)
			}
			seen[q] = ph
		}
		for q, ph := range seen {
			if ph < 0 {
				report("W2", "processor %d never owns portion %d", proc, q)
			}
		}
	}

	// W3: the systolic rotation — p's portion reaches p-1 exactly k phases
	// later. (Beyond the sweep edge the next sweep repeats the pattern, so
	// the check wraps modulo k*P.)
	for proc := 0; proc < P; proc++ {
		prev := (proc - 1 + P) % P
		for ph := 0; ph < nph; ph++ {
			q := own.PortionAt(proc, ph)
			nq := own.PortionAt(prev, (ph+k)%nph)
			if q != nq {
				report("W3", "portion %d owned by processor %d in phase %d is not at processor %d in phase %d (found %d)",
					q, proc, ph, prev, ph+k, nq)
			}
		}
	}

	// W4: OwnerAt inverts PortionAt, and is -1 in the dead phases.
	for q := 0; q < nph; q++ {
		for ph := 0; ph < nph; ph++ {
			owner := own.OwnerAt(q, ph)
			var expected = -1
			for proc := 0; proc < P; proc++ {
				if own.PortionAt(proc, ph) == q {
					expected = proc
					break
				}
			}
			if owner != expected {
				report("W4", "OwnerAt(portion %d, phase %d) = %d, but PortionAt says %d", q, ph, owner, expected)
			}
		}
	}

	// W5: PhaseOfPortion inverts PortionAt.
	for proc := 0; proc < P; proc++ {
		for q := 0; q < nph; q++ {
			ph := own.PhaseOfPortion(proc, q)
			if ph < 0 || ph >= nph || own.PortionAt(proc, ph) != q {
				report("W5", "PhaseOfPortion(processor %d, portion %d) = %d, but PortionAt(%d, %d) = %d",
					proc, q, ph, proc, ph, own.PortionAt(proc, max0(ph)))
			}
		}
	}
	return out
}

func max0(v int) int {
	if v < 0 {
		return 0
	}
	return v
}

// ProveAll exhausts every strategy with 1 <= P <= maxP and 1 <= k <= maxK,
// checking the production ownership map. It returns all violations (empty
// means the protocol is proven for the bounded space) plus the number of
// strategies checked.
func ProveAll(maxP, maxK int) (checked int, violations []Violation) {
	for p := 1; p <= maxP; p++ {
		for k := 1; k <= maxK; k++ {
			violations = append(violations, CheckStrategy(p, k, ConfigOwnership(p, k))...)
			checked++
		}
	}
	return checked, violations
}
