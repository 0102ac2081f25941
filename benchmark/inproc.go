package main

import (
	"fmt"
	"time"

	"irred/internal/codegen"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/obs"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// Sweeps per Run call, fixed so every run of a workload does the same work
// per operation: about 20-80 ms, long enough to time, short enough that a
// window holds hundreds of operations.
const (
	fineBatch     = 64
	coarseBatch   = 4
	compiledBatch = 2
)

// floatTol is the float oracle contract: relative 1e-9 (phase order
// reassociates the sums).
const floatTol = 1e-9

// seqSweep times the plain single-threaded loop of the same problem: the
// baseline a parallel engine has to beat.
func seqSweep(r *result, budget time.Duration, steps int, run func()) error {
	m, err := repeatTimed("kernels.seq_sweep_ms", "ms",
		func(d time.Duration) float64 { return ms(d) / float64(steps) },
		budget, 3, 1000, func() (time.Duration, error) {
			return timed(func() error { run(); return nil })
		})
	r.add(m)
	return err
}

func computedBytes(v int) metric {
	return metric{Name: "kernels.bytes_per_sweep", Value: float64(v), Unit: "B", Computed: true}
}

// runNativeFine: the hand-wired euler kernel on the paper's 2k mesh.
func runNativeFine(e *env, r *result) error {
	nodes, edges := mesh.Paper2K()
	var m *mesh.Mesh
	gen, _ := timed(func() error { m = mesh.Generate(nodes, edges, e.seed); return nil })
	r.detail(value("mesh.generate_ms", ms(gen), "ms"))

	// Set-up: kernel state plus NewNative, which runs the LightInspector
	// for every processor.
	build := func() (*kernels.Euler, *rts.Native, []float64, error) {
		eu := kernels.NewEuler(m, e.seed)
		n, q, err := eu.NewNative(e.P, strategyK, strategyDist)
		return eu, n, q, err
	}
	if err := e.setup(r, func() (time.Duration, error) {
		return timed(func() error { _, _, _, err := build(); return err })
	}); err != nil {
		return err
	}
	eu, n, q, err := build()
	if err != nil {
		return err
	}
	g := &engine{
		batch: fineBatch, tol: floatTol, oracle: eu.RunSequential(fineBatch),
		reset: func() { copy(q, eu.Q); clear(n.X) },
		run:   func() error { return n.Run(fineBatch) },
		state: func() []float64 { return q },
	}
	if !e.trace {
		return e.measure(r, g)
	}
	e.measureTraced(r, g, n.Loop.Cfg, func(tr *obs.Tracer) { n.Trace = tr })
	if err := seqSweep(r, e.share(0.05), fineBatch, func() { eu.RunSequential(fineBatch) }); err != nil {
		return err
	}
	// Edge endpoints and weight, node state read, residual read and written.
	r.add(computedBytes(edges*(4+4+8) + nodes*3*8*3))
	return inspectorLayers(r, n.Loop, e.seed, e.share(0.25))
}

// runNativeCoarse: mvm class A in gather mode.
func runNativeCoarse(e *env, r *result) error {
	var a *sparse.CSR
	gen, _ := timed(func() error { a = sparse.Generate(sparse.ClassA, uint64(e.seed)); return nil })
	r.detail(value("sparse.generate_ms", ms(gen), "ms"))

	build := func() (*kernels.MVM, *rts.Native, error) {
		mv := kernels.NewMVM(a)
		n, err := mv.NewNative(e.P, strategyK, strategyDist)
		return mv, n, err
	}
	if err := e.setup(r, func() (time.Duration, error) {
		return timed(func() error { _, _, err := build(); return err })
	}); err != nil {
		return err
	}
	mv, n, err := build()
	if err != nil {
		return err
	}
	g := &engine{
		batch: coarseBatch, tol: floatTol, oracle: mv.RunSequential(coarseBatch),
		reset: func() {
			for i := range n.X {
				n.X[i] = 1
			}
		},
		run:   func() error { return n.Run(coarseBatch) },
		state: func() []float64 { return n.X },
	}
	if !e.trace {
		return e.measure(r, g)
	}
	e.measureTraced(r, g, n.Loop.Cfg, func(tr *obs.Tracer) { n.Trace = tr })
	if err := seqSweep(r, e.share(0.05), coarseBatch, func() { mv.RunSequential(coarseBatch) }); err != nil {
		return err
	}
	// Val, Col and Rows streamed once; x read, y written.
	matrix := a.NNZ() * (8 + 4 + 4)
	r.add(computedBytes(matrix + a.N*8*2))
	r.detail(
		metric{Name: "kernels.matrix_bytes", Value: float64(matrix), Unit: "B", Computed: true},
		value("host.llc_bytes", float64(llcBytes()), "B"))
	return inspectorLayers(r, n.Loop, e.seed, e.share(0.25))
}

// eulerEnv binds the compiled program's arrays to the euler kernel's data:
// the edge list as one [edges,2] array, the interleaved state unpacked
// into three component arrays.
func eulerEnv(u *codegen.Unit, eu *kernels.Euler) (*interp.Env, error) {
	m := eu.Mesh
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("num_edges", m.NumEdges())
	env.SetParam("num_nodes", m.NumNodes)
	ia := make([]int32, 2*m.NumEdges())
	for i := range m.I1 {
		ia[2*i], ia[2*i+1] = m.I1[i], m.I2[i]
	}
	if err := env.BindInt("ia", ia); err != nil {
		return nil, err
	}
	if err := env.BindFloat("w", eu.W); err != nil {
		return nil, err
	}
	for _, name := range eulerQ {
		if err := env.BindFloat(name, make([]float64, m.NumNodes)); err != nil {
			return nil, err
		}
	}
	return env, env.Alloc()
}

var (
	eulerQ = []string{"q1", "q2", "q3"}
	eulerR = []string{"r1", "r2", "r3"}
)

// runCompiledEuler: the same kernel compiled from IRL, on the 10k mesh.
// EulerIRL is the flux sweep only, so the harness applies the node update
// (q += dt*r, r = 0: ~28k multiply-adds against ~60k interpreted
// iterations) between sweeps. That makes a batch the very computation
// kernels.Euler.RunSequential does, and the hand-written loop — never the
// compiler's own evaluator — the oracle.
func runCompiledEuler(e *env, r *result) error {
	nodes, edges := mesh.Paper10K()
	var m *mesh.Mesh
	gen, _ := timed(func() error { m = mesh.Generate(nodes, edges, e.seed); return nil })
	r.detail(value("mesh.generate_ms", ms(gen), "ms"))
	eu := kernels.NewEuler(m, e.seed)

	// Set-up: compile (lang, analysis, transform, dataflow, codegen), then
	// the runner build (bounds proof, bytecode, inspections).
	var compileT, runnerT time.Duration
	var env *interp.Env
	build := func() (*codegen.Unit, *codegen.Runner, error) {
		var u *codegen.Unit
		var err error
		if compileT, err = timed(func() (err error) { u, err = codegen.Compile(kernels.EulerIRL); return }); err != nil {
			return nil, nil, err
		}
		if env, err = eulerEnv(u, eu); err != nil {
			return nil, nil, err
		}
		var rn *codegen.Runner
		runnerT, err = timed(func() (err error) { rn, err = u.NewRunner(env, e.P, strategyK, strategyDist); return })
		return u, rn, err
	}
	if err := e.setup(r, func() (time.Duration, error) {
		_, _, err := build()
		return compileT + runnerT, err
	}); err != nil {
		return err
	}
	u, rn, err := build()
	if err != nil {
		return err
	}
	r.detail(
		value("codegen.compile_ms", ms(compileT), "ms"),
		value("codegen.runner_build_ms", ms(runnerT), "ms"),
		value("codegen.inspections", float64(rn.Inspections()), "count"),
		value("codegen.reuses", float64(rn.Reuses()), "count"))

	state := make([]float64, 3*nodes)
	step := rn.Step
	g := &engine{
		batch: compiledBatch, tol: floatTol, oracle: eu.RunSequential(compiledBatch),
		reset: func() {
			for c := range eulerQ {
				q, res := env.Floats[eulerQ[c]], env.Floats[eulerR[c]]
				for i := range q {
					q[i], res[i] = eu.Q[3*i+c], 0
				}
			}
		},
		run: func() error {
			for s := 0; s < compiledBatch; s++ {
				if err := step(); err != nil {
					return err
				}
				for c := range eulerQ {
					q, res := env.Floats[eulerQ[c]], env.Floats[eulerR[c]]
					for i := range q {
						q[i] += eu.Dt * res[i]
						res[i] = 0
					}
				}
			}
			return nil
		},
		state: func() []float64 {
			for c := range eulerQ {
				for i, v := range env.Floats[eulerQ[c]] {
					state[3*i+c] = v
				}
			}
			return state
		},
	}
	if !e.trace {
		// Where the allocator puts the per-processor interpreter state
		// decides how much the processors share cache lines: one build runs
		// 17 ms sweeps, the next 26 ms, on the same data. Every slice gets
		// its own build, so the metrics are medians over builds.
		g.rebuild = func() error {
			_, fresh, err := build()
			step = fresh.Step
			return err
		}
		return e.measure(r, g)
	}

	// The runner keeps its engine private, so the traced pass wires the
	// plan by hand — BuildLoop, Schedules, NewNativeFrom, then Pack / Run /
	// Scatter per sweep, the runner's own step — to reach rts.Native.Trace.
	if len(u.Plans) != 1 {
		return fmt.Errorf("EulerIRL compiled to %d plans, want 1", len(u.Plans))
	}
	plan := u.Plans[0]
	loop, contribs, err := plan.BuildLoop(env, e.P, strategyK, strategyDist)
	if err != nil {
		return err
	}
	scheds, err := loop.Schedules()
	if err != nil {
		return err
	}
	nat, err := rts.NewNativeFrom(loop, scheds)
	if err != nil {
		return err
	}
	nat.Contribs = contribs
	step = func() error {
		if err := plan.Pack(env, nat.X); err != nil {
			return err
		}
		if err := nat.Run(1); err != nil {
			return err
		}
		return plan.Scatter(env, nat.X)
	}
	e.measureTraced(r, g, loop.Cfg, func(tr *obs.Tracer) { nat.Trace = tr })

	// The plan's contribution function alone, single-threaded over all
	// iterations: the interpreter's cost per iteration.
	out := make([]float64, len(loop.Ind)*len(plan.ReductionArrays()))
	contrib, err := repeatTimed("interp.contrib_ns_per_iter", "ns",
		func(d time.Duration) float64 { return float64(d) / float64(loop.Cfg.NumIters) },
		e.share(0.05), 3, 1000, func() (time.Duration, error) {
			return timed(func() error {
				for i := 0; i < loop.Cfg.NumIters; i++ {
					contribs(0, i, out)
				}
				return plan.RuntimeErr()
			})
		})
	if err != nil {
		return err
	}
	r.detail(contrib)
	if err := seqSweep(r, e.share(0.05), compiledBatch, func() { eu.RunSequential(compiledBatch) }); err != nil {
		return err
	}
	r.add(computedBytes(edges*(4+4+8) + nodes*3*8*3))
	return inspectorLayers(r, loop, e.seed, e.share(0.2))
}
