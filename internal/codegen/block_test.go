package codegen

import (
	"math"
	"math/rand"
	"testing"

	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/obs"
	"irred/internal/rts"
)

// crossed is the shape one reference per section cannot serve: r2's
// second reduction goes through ia(*,1), whose reference comes first, so
// joining it would fold r2's contributions out of body order. Its last
// statement only keeps r1 and r2 in one reference group (same sections),
// and joins the ia(*,0) reference.
const crossed = `
param n, m
array ia[n, 2] int
array w[n]
array r1[m]
array r2[m]
loop i = 0, n {
    r1[ia[i, 1]] += w[i]
    r2[ia[i, 0]] += w[i] * 2
    r2[ia[i, 1]] -= w[i]
    r1[ia[i, 0]] -= w[i] * 3
}
`

// minCrossed mixes both cases under min=: lo's second reduction joins
// hi's ia(*,1) reference, hi's second opens a third reference.
const minCrossed = `
param n, m
array ia[n, 2] int
array w[n]
array lo[m]
array hi[m]
loop i = 0, n {
    lo[ia[i, 0]] min= w[i]
    hi[ia[i, 1]] min= 0 - w[i]
    lo[ia[i, 1]] min= w[i] * 2
    hi[ia[i, 0]] min= w[i] + 1
}
`

// TestReferencesPerSection counts the rts references of each body's
// reductions, taken from the source loop's analysis.
func TestReferencesPerSection(t *testing.T) {
	for _, tc := range []struct {
		name  string
		src   string
		stmts int // reductions considered: the body's first stmts
		want  int
	}{
		{"euler", kernels.EulerIRL, 6, 2},
		{"moldyn", kernels.MoldynIRL, 6, 2},
		{"mvm", kernels.MVMIRL, 1, 1},
		{"crossed", crossed, 3, 3},
		{"crossed-group", crossed, 4, 3},
		{"min-crossed", minCrossed, 4, 3},
	} {
		u, err := Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		info := *u.Analysis.Loops[0]
		info.Reductions = info.Reductions[:tc.stmts]
		if refs, _ := (&Plan{Info: &info}).references(); len(refs) != tc.want {
			t.Errorf("%s: %d references (%v), want %d", tc.name, len(refs), refs, tc.want)
		}
	}
}

// bindRandom binds the unit's two parameters, iterations then elements, to
// n and m and every array to seeded data: ints in [0, m), floats in
// [0.5, 2).
func bindRandom(t testing.TB, u *Unit, n, m int, seed int64) *interp.Env {
	t.Helper()
	env := interp.NewEnv(u.Fissioned)
	env.SetParam(u.Fissioned.Params[0], n)
	env.SetParam(u.Fissioned.Params[1], m)
	rng := rand.New(rand.NewSource(seed))
	for _, a := range u.Fissioned.Arrays {
		size, err := env.Size(a.Name)
		if err != nil {
			t.Fatal(err)
		}
		if a.Int {
			data := make([]int32, size)
			for i := range data {
				data[i] = int32(rng.Intn(m))
			}
			env.Ints[a.Name] = data
			continue
		}
		data := make([]float64, size)
		for i := range data {
			data[i] = 0.5 + 1.5*rng.Float64()
		}
		env.Floats[a.Name] = data
	}
	return env
}

// TestCoalescedMatchesPerReduction: the plan's coalesced loop, driven by
// its block form, is bitwise the one-reference-per-reduction layout rebuilt
// here from the same per-iteration ContribFunc — each reduction's column
// duplicated, every slot but its own component identity-filled.
func TestCoalescedMatchesPerReduction(t *testing.T) {
	const n, m = 500, 64
	for _, src := range []string{kernels.EulerIRL, crossed, minCrossed} {
		u, err := Compile(src)
		if err != nil {
			t.Fatal(err)
		}
		p := u.Plans[0]
		comp := len(p.ReductionArrays())
		_, lay := p.references()
		for procs := 1; procs <= 4; procs++ {
			for k := 1; k <= 2; k++ {
				for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
					env := bindRandom(t, u, n, m, 9)
					run := func(l *rts.Loop, set func(*rts.Native)) []float64 {
						nat, err := rts.NewNative(l)
						if err != nil {
							t.Fatal(err)
						}
						set(nat)
						if err := p.Pack(env, nat.X); err != nil {
							t.Fatal(err)
						}
						if err := nat.Run(2); err != nil {
							t.Fatal(err)
						}
						return nat.X
					}
					loop, block, err := p.BuildLoopOpts(env, procs, k, dist, BuildOpts{})
					if err != nil {
						t.Fatal(err)
					}
					got := run(loop, func(nat *rts.Native) { nat.ContribBlock = block })

					_, one, err := p.BuildLoop(env, procs, k, dist)
					if err != nil {
						t.Fatal(err)
					}
					wide := *loop
					wide.Ind = nil
					for _, s := range lay.slot {
						wide.Ind = append(wide.Ind, loop.Ind[s/comp])
					}
					ident, _ := p.Combine.Identity()
					want := run(&wide, func(nat *rts.Native) {
						tmp := make([][]float64, procs)
						for q := range tmp {
							tmp[q] = make([]float64, len(loop.Ind)*comp)
						}
						nat.Contribs = func(q, i int, out []float64) {
							one(q, i, tmp[q])
							for r, s := range lay.slot {
								for c := 0; c < comp; c++ {
									out[r*comp+c] = ident
								}
								out[r*comp+s%comp] = tmp[q][s]
							}
						}
					})
					for e := range want {
						if math.Float64bits(got[e]) != math.Float64bits(want[e]) {
							t.Fatalf("%s P=%d k=%d %v: X[%d] coalesced %v, per-reduction %v", p.Name, procs, k, dist, e, got[e], want[e])
						}
					}
				}
			}
		}
	}
}

// eulerEnv compiles kernels.EulerIRL and binds it to the paper's 10k mesh
// and the hand-written kernel's data, which it also returns.
func eulerEnv(tb testing.TB) (*Unit, *interp.Env, *kernels.Euler) {
	tb.Helper()
	nodes, edges := mesh.Paper10K()
	m := mesh.Generate(nodes, edges, 1)
	eu := kernels.NewEuler(m, 1)
	u, err := Compile(kernels.EulerIRL)
	if err != nil {
		tb.Fatal(err)
	}
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("num_edges", edges)
	env.SetParam("num_nodes", nodes)
	ia := make([]int32, 2*edges)
	for i := range m.I1 {
		ia[2*i], ia[2*i+1] = m.I1[i], m.I2[i]
	}
	env.Ints["ia"], env.Floats["w"] = ia, eu.W
	for c, name := range []string{"q1", "q2", "q3"} {
		q := make([]float64, nodes)
		for i := range q {
			q[i] = eu.Q[3*i+c]
		}
		env.Floats[name] = q
	}
	if err := env.Alloc(); err != nil {
		tb.Fatal(err)
	}
	return u, env, eu
}

// eulerRunner is eulerEnv's program on a Runner at P processors (k = 2,
// cyclic).
func eulerRunner(tb testing.TB, procs int) (*Runner, *kernels.Euler) {
	tb.Helper()
	u, env, eu := eulerEnv(tb)
	r, err := u.NewRunner(env, procs, 2, inspector.Cyclic)
	if err != nil {
		tb.Fatal(err)
	}
	return r, eu
}

// BenchmarkRunnerStep is one compiled euler-10k sweep at P = 2 — pack,
// phase engine, scatter. traced attaches an obs tracer to the runner's
// engine and reports the rts compute, copy and wait time per sweep, summed
// over processors; kernel is the ceiling: the hand-written kernels.Euler
// block form on the same mesh, engine and shape, flux sweep only.
func BenchmarkRunnerStep(b *testing.B) {
	for _, mode := range []string{"plain", "traced", "kernel"} {
		b.Run(mode, func(b *testing.B) {
			r, eu := eulerRunner(b, 2)
			step := r.Step
			var tr *obs.Tracer
			switch mode {
			case "traced":
				tr = obs.New(1 << 16)
				r.plans[0].native.Trace = tr
			case "kernel":
				n, _, err := eu.NewNative(2, 2, inspector.Cyclic)
				if err != nil {
					b.Fatal(err)
				}
				n.Update = nil
				step = func() error { return n.Run(1) }
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			spans, total := tr.Snapshot()
			if uint64(len(spans)) < total {
				return // the ring wrapped: the sums would be partial
			}
			for _, a := range obs.Aggregate(spans, false) {
				switch a.Name {
				case obs.SpanCompute, obs.SpanCopy, obs.SpanWait:
					b.ReportMetric(float64(a.TotalNS)/1e6/float64(b.N), a.Name+"-ms/op")
				}
			}
		})
	}
}

// BenchmarkEngines times one sweep of a compiled irregular plan at P = 2 on
// rts.Native over its LightInspector schedules, driving the plan's block
// form: native is the k = 1 block shape, native-k2-cyclic the shape
// compiled.euler runs. euler-10k folds with +=; minred-10k folds with min=
// over the same extents (euler's edges and nodes, seeded data), a non-Add
// combine the rotation runs through Op.Fold.
func BenchmarkEngines(b *testing.B) {
	const procs = 2
	nodes, edges := mesh.Paper10K()
	eu, euEnv, _ := eulerEnv(b)
	mr, err := Compile(kernels.MinredIRL)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []struct {
		name string
		u    *Unit
		env  *interp.Env
	}{
		{"euler-10k", eu, euEnv},
		{"minred-10k", mr, bindRandom(b, mr, edges, nodes, 1)},
	} {
		var p *Plan
		for _, q := range w.u.Plans {
			if q.Kind == Irregular {
				p = q
				break
			}
		}
		for _, eng := range []string{"native", "native-k2-cyclic"} {
			b.Run(w.name+"/"+eng, func(b *testing.B) {
				k, dist := 1, inspector.Block
				if eng == "native-k2-cyclic" {
					k, dist = 2, inspector.Cyclic
				}
				loop, block, err := p.BuildLoopOpts(w.env, procs, k, dist, BuildOpts{})
				if err != nil {
					b.Fatal(err)
				}
				nat, err := rts.NewNative(loop)
				if err != nil {
					b.Fatal(err)
				}
				nat.ContribBlock = block
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := nat.Run(1); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
