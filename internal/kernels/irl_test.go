package kernels

import (
	"math"
	"testing"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/mesh"
	"irred/internal/sparse"
)

func TestEulerIRLCompilesToOneGroup(t *testing.T) {
	u, err := codegen.Compile(EulerIRL)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 {
		t.Fatalf("plans = %d, want 1 (r1,r2,r3 share one reference group)", len(u.Plans))
	}
	p := u.Plans[0]
	if got := p.ReductionArrays(); len(got) != 3 {
		t.Fatalf("reduction arrays = %v, want r1,r2,r3", got)
	}
	if p.Info.NeedsFission() {
		t.Fatal("one group must not need fission")
	}
}

// TestEulerIRLMatchesGoKernel runs the compiled IRL euler flux sweep on the
// phase runtime and compares the residuals against the hand-written Go
// kernel's flux accumulation on the same mesh and state.
func TestEulerIRLMatchesGoKernel(t *testing.T) {
	m := mesh.Generate(300, 1800, 5)
	eu := NewEuler(m, 6)

	u, err := codegen.Compile(EulerIRL)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("num_edges", m.NumEdges())
	env.SetParam("num_nodes", m.NumNodes)
	ia := make([]int32, 2*m.NumEdges())
	for i := 0; i < m.NumEdges(); i++ {
		ia[2*i] = m.I1[i]
		ia[2*i+1] = m.I2[i]
	}
	if err := env.BindInt("ia", ia); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("w", eu.W); err != nil {
		t.Fatal(err)
	}
	// Unpack the interleaved state into per-component arrays.
	for c, name := range []string{"q1", "q2", "q3"} {
		q := make([]float64, m.NumNodes)
		for e := 0; e < m.NumNodes; e++ {
			q[e] = eu.Q[3*e+c]
		}
		if err := env.BindFloat(name, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	r, err := u.NewRunner(env, 4, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}

	// Reference: the Go kernel's flux accumulation (no update step).
	want := make([]float64, 3*m.NumNodes)
	var f [3]float64
	for i := 0; i < m.NumEdges(); i++ {
		a, b := int(m.I1[i]), int(m.I2[i])
		flux(eu.W[i], eu.Q[3*a:3*a+3], eu.Q[3*b:3*b+3], f[:])
		for c := 0; c < 3; c++ {
			want[3*a+c] += f[c]
			want[3*b+c] -= f[c]
		}
	}
	for c, name := range []string{"r1", "r2", "r3"} {
		got := env.Floats[name]
		for e := 0; e < m.NumNodes; e++ {
			if math.Abs(got[e]-want[3*e+c]) > 1e-9 {
				t.Fatalf("%s[%d] = %v, Go kernel %v", name, e, got[e], want[3*e+c])
			}
		}
	}
}

// TestMVMIRLMatchesCSR compiles the reduction formulation of mvm and
// checks y = A*x against the CSR reference.
func TestMVMIRLMatchesCSR(t *testing.T) {
	a := sparse.Generate(sparse.Class{Name: "t", N: 200, NNZ: 1600}, 3)
	u, err := codegen.Compile(MVMIRL)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 || u.Plans[0].Kind != codegen.Irregular {
		t.Fatalf("mvm IRL plans wrong: %d", len(u.Plans))
	}
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("nnz", a.NNZ())
	env.SetParam("n", a.N)
	rows := a.RowOfNZ()
	if err := env.BindInt("row", rows); err != nil {
		t.Fatal(err)
	}
	if err := env.BindInt("col", a.Col); err != nil {
		t.Fatal(err)
	}
	if err := env.BindFloat("a", a.Val); err != nil {
		t.Fatal(err)
	}
	x := make([]float64, a.N)
	for i := range x {
		x[i] = float64(i%9) + 0.5
	}
	if err := env.BindFloat("x", x); err != nil {
		t.Fatal(err)
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	r, err := u.NewRunner(env, 4, 2, inspector.Block)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}
	want := make([]float64, a.N)
	a.MulVec(x, want)
	got := env.Floats["y"]
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMoldynIRLCompiles(t *testing.T) {
	u, err := codegen.Compile(MoldynIRL)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Plans) != 1 {
		t.Fatalf("plans = %d, want 1", len(u.Plans))
	}
	if got := u.Plans[0].ReductionArrays(); len(got) != 3 {
		t.Fatalf("reduction arrays = %v", got)
	}
	// The three position reads through each column repeat; the analysis
	// must still see one reference group.
	if u.Plans[0].Info.NeedsFission() {
		t.Fatal("moldyn IRL must be a single group")
	}
}

// TestMoldynIRLMatchesDirect evaluates the compiled open-boundary LJ sweep
// against a direct Go evaluation of the same force law.
func TestMoldynIRLMatchesDirect(t *testing.T) {
	const nMol, nInt = 60, 200
	u, err := codegen.Compile(MoldynIRL)
	if err != nil {
		t.Fatal(err)
	}
	env := interp.NewEnv(u.Fissioned)
	env.SetParam("num_inter", nInt)
	env.SetParam("num_mol", nMol)
	ia := make([]int32, 2*nInt)
	px := make([]float64, nMol)
	py := make([]float64, nMol)
	pz := make([]float64, nMol)
	for i := 0; i < nMol; i++ {
		px[i] = float64(i%5) + 0.9
		py[i] = float64(i%7) * 0.8
		pz[i] = float64(i%3) * 1.1
	}
	for i := 0; i < nInt; i++ {
		a := i % nMol
		b := (i*7 + 1) % nMol
		if a == b {
			b = (b + 1) % nMol
		}
		ia[2*i], ia[2*i+1] = int32(a), int32(b)
	}
	if err := env.BindInt("ia", ia); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]float64{"px": px, "py": py, "pz": pz} {
		if err := env.BindFloat(name, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := env.Alloc(); err != nil {
		t.Fatal(err)
	}
	r, err := u.NewRunner(env, 3, 2, inspector.Cyclic)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Step(); err != nil {
		t.Fatal(err)
	}

	wantX := make([]float64, nMol)
	wantY := make([]float64, nMol)
	wantZ := make([]float64, nMol)
	for i := 0; i < nInt; i++ {
		a, b := int(ia[2*i]), int(ia[2*i+1])
		dx, dy, dz := px[a]-px[b], py[a]-py[b], pz[a]-pz[b]
		r2 := dx*dx + dy*dy + dz*dz
		inv2 := 1 / r2
		inv6 := inv2 * inv2 * inv2
		s := 24 * inv2 * inv6 * (2*inv6 - 1)
		wantX[a] += s * dx
		wantX[b] -= s * dx
		wantY[a] += s * dy
		wantY[b] -= s * dy
		wantZ[a] += s * dz
		wantZ[b] -= s * dz
	}
	for name, want := range map[string][]float64{"fx": wantX, "fy": wantY, "fz": wantZ} {
		got := env.Floats[name]
		for e := range want {
			if math.Abs(got[e]-want[e]) > 1e-9*(1+math.Abs(want[e])) {
				t.Fatalf("%s[%d] = %v, want %v", name, e, got[e], want[e])
			}
		}
	}
}
