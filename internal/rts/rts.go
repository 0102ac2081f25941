// Package rts is the runtime system for the paper's execution strategy.
//
// A reduction loop is executed in k*P phases per processor. The rotated
// array — the reduction array for euler/moldyn-style loops, or the gathered
// vector for mvm-style loops — is divided into k*P portions that migrate
// from processor p to processor p-1 between their ownership phases, giving
// k-1 phases of slack in which the transfer overlaps computation. The
// communication schedule (what moves, when, and how much) depends only on
// P, k and the array extents — never on the contents of the indirection
// arrays, which is the paper's central property.
//
// Two engines execute the same schedules:
//
//   - the sim engine (simrun.go) builds an EARTH fiber program and runs it
//     on the deterministic machine model in package earth, reporting
//     simulated cycles exactly like the authors' MANNA simulator;
//   - the native engine (native.go) runs the schedule on real goroutines
//     with channel-based portion handoff, for wall-clock execution on the
//     host.
package rts

import (
	"fmt"

	"irred/internal/algebra"
	"irred/internal/inspector"
	"irred/internal/obs"
)

// Mode distinguishes how the rotated array is used.
type Mode int

const (
	// Reduce rotates the reduction (written) array: iterations add
	// contributions into owned elements or remote-buffer slots, and copy
	// loops fold the buffers in (euler, moldyn).
	Reduce Mode = iota
	// Gather rotates a read array: iterations consume the owned portion's
	// values and accumulate into iteration-aligned outputs (mvm). Gather
	// loops must use a single indirection reference, so no buffering is
	// ever needed — exactly the situation the paper describes for mvm.
	Gather
)

func (m Mode) String() string {
	if m == Gather {
		return "gather"
	}
	return "reduce"
}

// KernelCost describes the per-iteration work of a loop body to the
// simulator's cost model. The counts are per loop iteration (per edge /
// interaction / nonzero).
type KernelCost struct {
	Flops  int // floating-point operations
	IntOps int // integer/address operations beyond loop control

	// IterArrays is the number of 8-byte arrays indexed by the global
	// iteration number (the paper's Y(i): edge data, matrix values, ...).
	IterArrays int
	// NodeArrays is the number of replicated 8-byte arrays read through
	// each indirection reference (node coordinates etc.). Charged once per
	// reference per array.
	NodeArrays int
	// Comp is the number of 8-byte components per rotated-array element
	// (3 for a moldyn force vector). Zero means 1.
	Comp int

	// UpdateFlopsPerElem and UpdateArraysPerElem describe the regular
	// per-element loop between reduction sweeps (position updates, vector
	// ops); they are charged to the home block of each processor.
	UpdateFlopsPerElem  int
	UpdateArraysPerElem int

	// BcastComp is the number of 8-byte per-element components of
	// replicated read data that must be refreshed (all-gathered) after each
	// update. Zero for static read data and for mvm.
	BcastComp int
}

func (k KernelCost) comp() int {
	if k.Comp <= 0 {
		return 1
	}
	return k.Comp
}

// Loop couples a loop configuration with its indirection arrays and cost
// description; it is the unit both engines execute.
type Loop struct {
	Cfg  inspector.Config
	Mode Mode
	Ind  [][]int32
	Cost KernelCost
	// GatherOut, for gather loops, maps each iteration to the element of
	// the output accumulator it adds into (mvm's row index per nonzero).
	// Optional; used for cost modelling and by the native engine.
	GatherOut []int32
	// Trace, when non-nil, receives phase-level spans from the
	// LightInspector (via Schedules) and the native engine built over this
	// loop: per-phase compute, copy-loop and rotation-wait intervals. Nil
	// disables tracing at the cost of a nil check per phase.
	Trace *obs.Tracer
	// Combine is the fold operator applied at every accumulation site:
	// owned-element writes, remote-buffer slots and the copy-loop drain.
	// The zero value is float addition, so existing callers are
	// unchanged. Non-Add combines must carry an identity (buffers and
	// partial accumulators are seeded with it) — Validate enforces that.
	// Whether a non-Add combine may legally replace the sequential fold
	// is the schedule license's decision, made at compile time; the
	// runtime only demands the algebraic ingredients it needs.
	Combine algebra.Op
}

// Validate checks loop well-formedness beyond Config.Validate.
func (l *Loop) Validate() error {
	if err := l.Cfg.Validate(); err != nil {
		return err
	}
	if len(l.Ind) == 0 {
		return fmt.Errorf("rts: loop has no indirection arrays")
	}
	if l.Mode == Gather && len(l.Ind) != 1 {
		return fmt.Errorf("rts: gather loops need exactly one indirection reference, got %d", len(l.Ind))
	}
	for r, a := range l.Ind {
		if len(a) != l.Cfg.NumIters {
			return fmt.Errorf("rts: indirection %d has length %d, want %d", r, len(a), l.Cfg.NumIters)
		}
	}
	if l.Mode == Gather && l.Combine.Kind != algebra.Add {
		return fmt.Errorf("rts: gather loops accumulate iteration-aligned outputs with +=; combine %s is not supported", l.Combine)
	}
	if _, ok := l.Combine.Identity(); !ok {
		return fmt.Errorf("rts: combine %s has no known identity; remote buffers and partial accumulators cannot be seeded", l.Combine)
	}
	return nil
}

// Schedules runs the LightInspector for every processor, the P
// inspections in parallel.
func (l *Loop) Schedules() ([]*inspector.Schedule, error) {
	if err := l.Validate(); err != nil {
		return nil, err
	}
	return inspector.LightAll(l.Cfg, l.Trace, l.Ind...)
}

// PortionBytes reports the wire size of one rotated portion.
func (l *Loop) PortionBytes() int {
	return l.Cfg.PortionSize() * l.Cost.comp() * 8
}
