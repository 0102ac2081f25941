package lint

import (
	"irred/internal/algebra"
	"irred/internal/dataflow"
)

// The schedule-legality analyzers. Each owns one stable code:
//
//	IRL017  reduction refused a parallel schedule (Error)
//	IRL018  conflicting non-reduction write in a reduction loop (Error)
//	IRL019  reduction with a known non-zero identity, never seeded (Warn)
//	IRL020  idempotent-operator reduction: duplicates are harmless (Info)
//
// They read the proof-carrying schedule licenses of internal/dataflow —
// the same artifact the compiler consults before building a rotation
// schedule — so a clean lint run means every reduction loop in the
// program holds a machine-checkable license for the schedule it will get.

// Legality returns the program's schedule licenses, computed on first
// use. The legality pass is total (it refuses rather than fails), so it
// is safe even when the Section 4 analysis rejected the program.
func (p *Pass) Legality() []*dataflow.License {
	if p.lic == nil {
		p.lic = dataflow.LegalizeProgram(p.Prog, dataflow.Options{})
	}
	return p.lic
}

func init() {
	register(&Analyzer{
		Name: "unlicensed-schedule", Code: "IRL017", Severity: Error,
		Doc: "reduction operator refused a parallel schedule (non-associative or unverifiable)",
		Run: func(p *Pass) {
			for _, lic := range p.Legality() {
				for _, r := range lic.Refusals {
					if r.Cex != "" {
						p.Reportf(r.Pos, "reduction over %q cannot be scheduled: %s (counterexample: %s); rotation would silently reorder a non-associative fold", r.Array, r.Reason, r.Cex)
					} else {
						p.Reportf(r.Pos, "reduction over %q cannot be scheduled: %s", r.Array, r.Reason)
					}
				}
			}
		},
	})

	register(&Analyzer{
		Name: "conflicting-write", Code: "IRL018", Severity: Error,
		Doc: "non-reduction write conflicts with the loop's parallel schedule",
		Run: func(p *Pass) {
			for _, lic := range p.Legality() {
				for _, c := range lic.Conflicts {
					p.Reportf(c.Pos, "conflicting write to %q: %s; no parallel schedule preserves the sequential result", c.Array, c.Reason)
				}
			}
		},
	})

	register(&Analyzer{
		Name: "unseeded-identity", Code: "IRL019", Severity: Warn,
		Doc: "reduction whose operator identity differs from the unwritten (zero) array state",
		Run: func(p *Pass) {
			for _, lic := range p.Legality() {
				for _, ol := range lic.Ops {
					if !ol.IdentSuspect {
						continue
					}
					id, _ := ol.Op.Identity()
					p.Reportf(ol.Pos, "reduction %s over %q folds onto unseeded elements: the operator identity is %g but unwritten elements hold 0; seed %q (e.g. an init loop) or the fold starts from the wrong value", ol.Op, ol.Array, id, ol.Array)
				}
			}
		},
	})

	register(&Analyzer{
		Name: "idempotent-reduction", Code: "IRL020", Severity: Info,
		Doc: "idempotent reduction operator: duplicate contributions are provably harmless",
		Run: func(p *Pass) {
			for _, lic := range p.Legality() {
				for _, ol := range lic.Ops {
					if ol.Props.Idem != algebra.Proven {
						continue
					}
					p.Reportf(ol.Pos, "reduction %s over %q is idempotent (f(a,a) = a proven): duplicated edges or replayed contributions cannot change the result, so at-least-once delivery is safe", ol.Op, ol.Array)
				}
			}
		},
	})
}
