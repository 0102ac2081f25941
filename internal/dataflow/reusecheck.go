package dataflow

import (
	"bytes"
	"fmt"

	"irred/internal/inspector"
	"irred/internal/lang"
)

// W8: the reuse model check. ProveReuse argues symbolically that two
// loops receive identical schedules; this check discharges the claim by
// brute force. For a family of concrete multi-loop programs it runs the
// prover, then for EVERY ownership strategy P <= maxP, k <= maxK and
// both iteration distributions it materializes the indirection contents
// as seen at each loop's inspection time (applying the program's
// intervening writes) and inspects per-loop from scratch:
//
//	W8 reuse soundness — every granted pair must produce byte-identical
//	                     schedules on every processor, and every
//	                     stale-refused pair whose contents the
//	                     intervening write actually changed must NOT.
//
// A prover bug that grants across a content change, or inspector
// nondeterminism that breaks content-addressed sharing, surfaces here
// as a violation naming the strategy and the loop pair.

// reuseScenario is one concrete program plus the ground-truth
// indirection contents visible to each loop's inspection. The mutation
// in indAt mirrors the program's own intervening writes; the prover
// sees only the source.
type reuseScenario struct {
	name string
	src  string
	// wantGrants and wantStale pin the prover's verdict per scenario so
	// the brute-force half cannot pass vacuously on an empty license.
	wantGrants int
	wantStale  int
	// indAt returns the indirection columns (signature order) a fresh
	// inspection of loop `loop` would consume, for ne iterations over n
	// elements.
	indAt func(loop, ne, n int) [][]int32
}

func baseRow(ne, n int) []int32 {
	row := make([]int32, ne)
	for i := range row {
		row[i] = int32((i*7 + 3) % n)
	}
	return row
}

func reuseScenarios() []reuseScenario {
	const rewired = 0 // the boundary loops pin row[j] to element 0
	return []reuseScenario{
		{
			// The CG shape: two sweeps over the same row column into
			// different accumulators. One inspection serves both.
			name: "cg-chain",
			src: `param ne, n
array row[ne] int
array y[ne]
array q[n]
array z[n]
loop i = 0, ne { q[row[i]] += y[i] }
loop i = 0, ne { z[row[i]] += y[i] }
loop i = 0, ne { q[row[i]] += z[row[i]] * y[i] }`,
			wantGrants: 2,
			indAt: func(loop, ne, n int) [][]int32 {
				return [][]int32{baseRow(ne, n)}
			},
		},
		{
			// The euler rewire shape: a boundary loop rewrites part of
			// the indirection between two otherwise identical sweeps.
			name: "rewire",
			src: `param ne, n, nb
array row[ne] int
array y[ne]
array q[n]
loop i = 0, ne { q[row[i]] += y[i] }
loop j = 0, nb { row[j] = 0 }
loop i = 0, ne { q[row[i]] += y[i] }`,
			wantStale: 1,
			indAt: func(loop, ne, n int) [][]int32 {
				row := baseRow(ne, n)
				if loop == 2 { // after `row[j] = 0` over [0, nb)
					for j := 0; j < ne/2; j++ {
						row[j] = rewired
					}
				}
				return [][]int32{row}
			},
		},
	}
}

// scenarioParams binds the scenario's symbolic extents: chosen so every
// portion of every strategy in the bounded space is non-empty.
func scenarioParams(maxP, maxK int) (ne, n int, params map[string]int) {
	n = maxP*maxK*3 + 1 // a few elements per portion, plus a remainder
	ne = 4 * n
	return ne, n, map[string]int{"ne": ne, "n": n, "nb": ne / 2}
}

// inspectAll runs the light inspector for every processor and serializes
// the result — the byte-level identity the runtime's content-addressed
// schedule sharing relies on.
func inspectAll(cfg inspector.Config, ind [][]int32) ([]byte, error) {
	scheds, err := inspector.LightAll(cfg, nil, ind...)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, s := range scheds {
		if _, err := s.WriteTo(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// CheckReuseStrategy brute-force checks one scenario under one
// (P, k, dist) strategy.
func CheckReuseStrategy(p, k int, dist inspector.Dist, sc reuseScenario) []Violation {
	const maxViolations = 32
	var out []Violation
	report := func(format string, args ...any) {
		if len(out) < maxViolations {
			out = append(out, Violation{P: p, K: k, Kind: "W8", Msg: fmt.Sprintf(format, args...)})
		}
	}

	prog, err := lang.Parse(sc.src)
	if err != nil {
		report("%s: scenario does not parse: %v", sc.name, err)
		return out
	}
	ne, n, params := scenarioParams(8, 4)
	rl := ProveReuse(prog, Options{Params: params})
	if err := rl.Verify(); err != nil {
		report("%s: license fails its own Verify: %v", sc.name, err)
		return out
	}
	if len(rl.Grants) != sc.wantGrants {
		report("%s: prover issued %d grant(s), scenario expects %d", sc.name, len(rl.Grants), sc.wantGrants)
	}
	stale := 0
	for _, r := range rl.Refusals {
		if r.Stale {
			stale++
		}
	}
	if stale != sc.wantStale {
		report("%s: prover issued %d stale refusal(s), scenario expects %d", sc.name, stale, sc.wantStale)
	}

	cfg := inspector.Config{P: p, K: k, NumIters: ne, NumElems: n, Dist: dist}
	sched := func(loop int) []byte {
		b, err := inspectAll(cfg, sc.indAt(loop, ne, n))
		if err != nil {
			report("%s: loop %d fails to inspect: %v", sc.name, loop, err)
			return nil
		}
		return b
	}
	for _, g := range rl.Grants {
		from, to := sched(g.From), sched(g.To)
		if from == nil || to == nil {
			continue
		}
		if !bytes.Equal(from, to) {
			report("%s: granted reuse %d→%d but brute-force schedules differ (%d vs %d bytes)",
				sc.name, g.From, g.To, len(from), len(to))
		}
	}
	for _, r := range rl.Refusals {
		if !r.Stale {
			continue
		}
		from, to := sched(r.From), sched(r.To)
		if from == nil || to == nil {
			continue
		}
		if bytes.Equal(from, to) {
			report("%s: stale refusal %d→%d but the intervening write left the schedules identical — scenario and program disagree",
				sc.name, r.From, r.To)
		}
	}
	return out
}

// ProveAllReuse exhausts every strategy with 1 <= P <= maxP and
// 1 <= k <= maxK under both distributions, for every scenario. Empty
// violations means every granted reuse in the bounded space is
// discharged against brute-force per-loop inspection.
func ProveAllReuse(maxP, maxK int) (checked int, violations []Violation) {
	for _, sc := range reuseScenarios() {
		for p := 1; p <= maxP; p++ {
			for k := 1; k <= maxK; k++ {
				for _, d := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
					violations = append(violations, CheckReuseStrategy(p, k, d, sc)...)
					checked++
				}
			}
		}
	}
	return checked, violations
}
