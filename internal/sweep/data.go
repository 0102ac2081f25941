package sweep

import (
	"fmt"
	"math/rand"
	"sync"

	"irred/internal/codegen"
	"irred/internal/dataflow"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// Dataset construction is deterministic in (kernel, class, seed) and
// cached for the life of the process: a sweep visits the same workload
// dozens of times across engines and strategies, and the generators
// (ClassW is half a million nonzeros) dominate cell setup otherwise.
// Cached objects are treated as immutable — every engine constructor in
// this package copies the state it mutates.
var (
	dataMu      sync.Mutex
	csrCache    = map[string]*sparse.CSR{}
	eulerCache  = map[string]*kernels.Euler{}
	moldynCache = map[string]*moldyn.System{}
	rawCache    = map[string]*rawSpec{}
	unitCache   = map[string]*unitEntry{}
)

type unitEntry struct {
	unit *codegen.Unit
	err  error
}

func mvmData(class string, seed int64) (*sparse.CSR, error) {
	var cl sparse.Class
	switch class {
	case "S":
		cl = sparse.ClassS
	case "W":
		cl = sparse.ClassW
	case "A":
		cl = sparse.ClassA
	case "B":
		cl = sparse.ClassB
	default:
		return nil, fmt.Errorf("sweep: mvm class %q (S | W | A | B)", class)
	}
	key := fmt.Sprintf("%s/%d", class, seed)
	dataMu.Lock()
	defer dataMu.Unlock()
	if m, ok := csrCache[key]; ok {
		return m, nil
	}
	m := sparse.Generate(cl, uint64(seed))
	csrCache[key] = m
	return m, nil
}

func eulerData(class string, seed int64) (*kernels.Euler, error) {
	var nodes, edges int
	switch class {
	case "2k":
		nodes, edges = mesh.Paper2K()
	case "10k":
		nodes, edges = mesh.Paper10K()
	default:
		return nil, fmt.Errorf("sweep: euler class %q (2k | 10k)", class)
	}
	key := fmt.Sprintf("%s/%d", class, seed)
	dataMu.Lock()
	defer dataMu.Unlock()
	if e, ok := eulerCache[key]; ok {
		return e, nil
	}
	e := kernels.NewEuler(mesh.Generate(nodes, edges, seed), seed)
	eulerCache[key] = e
	return e, nil
}

func moldynData(class string, seed int64) (*moldyn.System, error) {
	key := fmt.Sprintf("%s/%d", class, seed)
	dataMu.Lock()
	defer dataMu.Unlock()
	if s, ok := moldynCache[key]; ok {
		return s, nil
	}
	var sys *moldyn.System
	switch class {
	case "2k":
		sys = moldyn.Paper2K(seed)
	case "10k":
		sys = moldyn.Paper10K(seed)
	default:
		return nil, fmt.Errorf("sweep: moldyn class %q (2k | 10k)", class)
	}
	moldynCache[key] = sys
	return sys, nil
}

// rawSpec is a deterministic synthetic pair reduction (x[i1] += w,
// x[i2] -= w), the same shape the service's raw job path executes. The
// integral weights keep partial sums exactly representable.
type rawSpec struct {
	iters, elems int
	ind          [][]int32
	w            []float64
}

// rawSizes maps raw classes to (iterations, elements). "tiny" exists for
// tests and the CI short sweep.
var rawSizes = map[string][2]int{
	"tiny":  {240, 64},
	"small": {4096, 512},
	"large": {32768, 4096},
}

func rawData(class string, seed int64) (*rawSpec, error) {
	size, ok := rawSizes[class]
	if !ok {
		return nil, fmt.Errorf("sweep: raw class %q (tiny | small | large)", class)
	}
	key := fmt.Sprintf("%s/%d", class, seed)
	dataMu.Lock()
	defer dataMu.Unlock()
	if r, ok := rawCache[key]; ok {
		return r, nil
	}
	rng := rand.New(rand.NewSource(seed*2654435761 + 131))
	r := &rawSpec{iters: size[0], elems: size[1], ind: make([][]int32, 2)}
	for ref := range r.ind {
		r.ind[ref] = make([]int32, r.iters)
		for i := range r.ind[ref] {
			r.ind[ref][i] = int32(rng.Intn(r.elems))
		}
	}
	r.w = make([]float64, r.iters)
	for i := range r.w {
		r.w[i] = float64(1 + rng.Intn(9))
	}
	rawCache[key] = r
	return r, nil
}

// loop describes the raw reduction to the rts engines, carrying a scanned
// bounds proof so the unchecked dimension is available.
func (r *rawSpec) loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Proof: dataflow.IndirectionFacts("sweep raw pair reduction", r.elems, r.ind...),
		Cfg: inspector.Config{
			P: p, K: k,
			NumIters: r.iters,
			NumElems: r.elems,
			Dist:     dist,
		},
		Mode: rts.Reduce,
		Ind:  r.ind,
		Cost: rts.KernelCost{Flops: 2, IntOps: 4, IterArrays: 1},
	}
}

func (r *rawSpec) contribs(_, i int, out []float64) {
	out[0] = r.w[i]
	out[1] = -r.w[i]
}

// unit compiles (once per process) the IRL source of a named kernel for
// the interp engine, caching failures too so a broken source is reported
// per cell, not retried per cell.
func unit(kernel string) (*codegen.Unit, error) {
	def, ok := kernelRegistry[kernel]
	if !ok || def.irl == "" {
		return nil, fmt.Errorf("sweep: kernel %q has no compiled (IRL) form", kernel)
	}
	dataMu.Lock()
	defer dataMu.Unlock()
	if e, ok := unitCache[kernel]; ok {
		return e.unit, e.err
	}
	u, err := codegen.Compile(def.irl)
	unitCache[kernel] = &unitEntry{unit: u, err: err}
	return u, err
}

// newEnv binds class-sized kernel data onto a fresh interpreter
// environment over the unit's fissioned program — the same datasets the
// native cells run, so engines are compared on identical inputs.
func newEnv(kernel, class string, seed int64, u *codegen.Unit) (*interp.Env, error) {
	env := interp.NewEnv(u.Fissioned)
	switch kernel {
	case "mvm":
		m, err := mvmData(class, seed)
		if err != nil {
			return nil, err
		}
		env.SetParam("nnz", m.NNZ())
		env.SetParam("n", m.N)
		if err := env.BindInt("row", m.RowOfNZ()); err != nil {
			return nil, err
		}
		if err := env.BindInt("col", m.Col); err != nil {
			return nil, err
		}
		if err := env.BindFloat("a", m.Val); err != nil {
			return nil, err
		}
		x := make([]float64, m.N)
		for i := range x {
			x[i] = 1
		}
		if err := env.BindFloat("x", x); err != nil {
			return nil, err
		}
	case "euler":
		e, err := eulerData(class, seed)
		if err != nil {
			return nil, err
		}
		edges, nodes := e.Mesh.NumEdges(), e.Mesh.NumNodes
		ia := make([]int32, 2*edges)
		for i := 0; i < edges; i++ {
			ia[2*i], ia[2*i+1] = e.Mesh.I1[i], e.Mesh.I2[i]
		}
		env.SetParam("num_edges", edges)
		env.SetParam("num_nodes", nodes)
		if err := env.BindInt("ia", ia); err != nil {
			return nil, err
		}
		if err := env.BindFloat("w", e.W); err != nil {
			return nil, err
		}
		for c, name := range []string{"q1", "q2", "q3"} {
			q := make([]float64, nodes)
			for i := range q {
				q[i] = e.Q[3*i+c]
			}
			if err := env.BindFloat(name, q); err != nil {
				return nil, err
			}
		}
	case "moldyn":
		sys, err := moldynData(class, seed)
		if err != nil {
			return nil, err
		}
		inter, mol := sys.NumInteractions(), sys.N
		ia := make([]int32, 2*inter)
		for i := 0; i < inter; i++ {
			ia[2*i], ia[2*i+1] = sys.I1[i], sys.I2[i]
		}
		env.SetParam("num_inter", inter)
		env.SetParam("num_mol", mol)
		if err := env.BindInt("ia", ia); err != nil {
			return nil, err
		}
		for c, name := range []string{"px", "py", "pz"} {
			p := make([]float64, mol)
			for i := range p {
				p[i] = sys.Pos[3*i+c]
			}
			if err := env.BindFloat(name, p); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("sweep: kernel %q has no interpreter binding", kernel)
	}
	if err := env.Alloc(); err != nil {
		return nil, err
	}
	return env, nil
}
