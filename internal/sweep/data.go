package sweep

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"irred/internal/codegen"
	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/kernels"
	"irred/internal/rts"
)

// Dataset construction is deterministic in (kernel, class, seed) and
// cached for the life of the process: a sweep visits the same workload
// dozens of times across engines and strategies, and the generators
// (ClassW is half a million nonzeros) dominate cell setup otherwise.
// Cached objects are treated as immutable — every engine constructor
// copies the state it mutates.
var (
	dataMu    sync.Mutex
	openCache = map[string]kernels.Workload{}
	rawCache  = map[string]*rawSpec{}
	unitCache = map[string]*unitEntry{}
)

type unitEntry struct {
	unit *codegen.Unit
	err  error
}

// open returns the named kernel's class built from seed.
func open(kernel, class string, seed int64) (kernels.Workload, error) {
	key := fmt.Sprintf("%s/%s/%d", kernel, class, seed)
	dataMu.Lock()
	defer dataMu.Unlock()
	if w, ok := openCache[key]; ok {
		return w, nil
	}
	w, err := kernels.Open(kernel, class, seed)
	if err != nil {
		return nil, err
	}
	openCache[key] = w
	return w, nil
}

// rawSpec is a deterministic synthetic pair reduction (x[i1] += w,
// x[i2] -= w), the same shape the service's raw job path executes, run in
// the same data form (weights w, coefficients {1, -1}). The integral
// weights keep partial sums exactly representable.
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

// loop describes the raw reduction to the rts engines.
func (r *rawSpec) loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
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
	w, err := open(kernel, class, seed)
	if err != nil {
		return nil, err
	}
	env := interp.NewEnv(u.Fissioned)
	var errs []error
	bindInt := func(name string, v []int32) { errs = append(errs, env.BindInt(name, v)) }
	bindFloat := func(name string, v []float64) { errs = append(errs, env.BindFloat(name, v)) }
	switch w := w.(type) {
	case *kernels.MVM:
		env.SetParam("nnz", w.A.NNZ())
		env.SetParam("n", w.A.N)
		bindInt("row", w.Rows)
		bindInt("col", w.A.Col)
		bindFloat("a", w.A.Val)
		x := make([]float64, w.A.N)
		for i := range x {
			x[i] = 1
		}
		bindFloat("x", x)
	case *kernels.Euler:
		env.SetParam("num_edges", w.Mesh.NumEdges())
		env.SetParam("num_nodes", w.Mesh.NumNodes)
		bindInt("ia", interleave(w.Mesh.I1, w.Mesh.I2))
		bindFloat("w", w.W)
		for c, name := range []string{"q1", "q2", "q3"} {
			bindFloat(name, component(w.Q, c))
		}
	case *kernels.Moldyn:
		env.SetParam("num_inter", w.Sys.NumInteractions())
		env.SetParam("num_mol", w.Sys.N)
		bindInt("ia", interleave(w.Sys.I1, w.Sys.I2))
		for c, name := range []string{"px", "py", "pz"} {
			bindFloat(name, component(w.Sys.Pos, c))
		}
	default:
		return nil, fmt.Errorf("sweep: kernel %q has no interpreter binding", kernel)
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := env.Alloc(); err != nil {
		return nil, err
	}
	return env, nil
}

// interleave lays two indirection arrays out as the IRL kernels' ia: the
// pair of iteration i at 2i and 2i+1.
func interleave(i1, i2 []int32) []int32 {
	ia := make([]int32, 0, 2*len(i1))
	for i := range i1 {
		ia = append(ia, i1[i], i2[i])
	}
	return ia
}

// component copies component c out of a 3-component interleaved array.
func component(x []float64, c int) []float64 {
	out := make([]float64, len(x)/3)
	for i := range out {
		out[i] = x[3*i+c]
	}
	return out
}
