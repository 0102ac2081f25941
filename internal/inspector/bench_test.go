package inspector

import (
	"math/rand"
	"testing"

	"irred/internal/mesh"
	"irred/internal/sparse"
)

// BenchmarkLight times the LightInspector at P = 2, k = 2, cyclic — the
// strategy of the repo benchmark — on four shapes:
//
//	euler-10k     the paper's 10k mesh: two references, mesh locality
//	serve-cold    the serve.cold raw job: 32,768 iterations × 2 random
//	              references over 4,096 elements
//	mvm-A         NAS CG class A: 1,853,104 nonzeros, one reference, so no
//	              buffer slots
//	sparse-touch  two random references over 128 × NumIters elements: few
//	              references per element, many slots
//
// and three ways each: one processor (proc0), both processors one after the
// other (serial), and both through LightAll (all). ns/iter is wall time per
// inspected iteration: per local iteration for proc0, per loop iteration
// otherwise, so serial and all compare directly.
func BenchmarkLight(b *testing.B) {
	const P, K = 2, 2
	random := func(iters, elems int) (Config, [][]int32) {
		rng := rand.New(rand.NewSource(1))
		ind := [][]int32{make([]int32, iters), make([]int32, iters)}
		for i := 0; i < iters; i++ {
			ind[0][i], ind[1][i] = int32(rng.Intn(elems)), int32(rng.Intn(elems))
		}
		return Config{P: P, K: K, NumIters: iters, NumElems: elems, Dist: Cyclic}, ind
	}
	shapes := []struct {
		name  string
		input func() (Config, [][]int32)
	}{
		{"euler-10k", func() (Config, [][]int32) {
			m := mesh.Generate(9428, 59863, 1)
			return Config{P: P, K: K, NumIters: m.NumEdges(), NumElems: m.NumNodes, Dist: Cyclic}, [][]int32{m.I1, m.I2}
		}},
		{"serve-cold", func() (Config, [][]int32) { return random(32768, 4096) }},
		{"mvm-A", func() (Config, [][]int32) {
			a := sparse.Generate(sparse.ClassA, 1)
			return Config{P: P, K: K, NumIters: a.NNZ(), NumElems: a.N, Dist: Cyclic}, [][]int32{a.Col}
		}},
		{"sparse-touch", func() (Config, [][]int32) { return random(32768, 128*32768) }},
	}
	for _, sh := range shapes {
		var cfg Config
		var ind [][]int32
		setup := func(b *testing.B) {
			if ind == nil {
				cfg, ind = sh.input()
			}
			b.ReportAllocs()
			b.ResetTimer()
		}
		perIter := func(b *testing.B, iters int) {
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters), "ns/iter")
		}
		b.Run(sh.name+"/proc0", func(b *testing.B) {
			setup(b)
			for n := 0; n < b.N; n++ {
				if _, err := Light(cfg, 0, ind...); err != nil {
					b.Fatal(err)
				}
			}
			perIter(b, cfg.IterCount(0))
		})
		b.Run(sh.name+"/serial", func(b *testing.B) {
			setup(b)
			for n := 0; n < b.N; n++ {
				for p := 0; p < P; p++ {
					if _, err := Light(cfg, p, ind...); err != nil {
						b.Fatal(err)
					}
				}
			}
			perIter(b, cfg.NumIters)
		})
		b.Run(sh.name+"/all", func(b *testing.B) {
			setup(b)
			for n := 0; n < b.N; n++ {
				if _, err := LightAll(cfg, nil, ind...); err != nil {
					b.Fatal(err)
				}
			}
			perIter(b, cfg.NumIters)
		})
	}
}
