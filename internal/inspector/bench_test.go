package inspector

import (
	"bytes"
	"math/rand"
	"testing"

	"irred/internal/mesh"
	"irred/internal/sparse"
)

// benchP and benchK are the strategy of the repo benchmark: P = 2, k = 2,
// cyclic.
const benchP, benchK = 2, 2

// benchShapes are the loops the inspector benchmarks run on:
//
//	euler-10k     the paper's 10k mesh: two references, mesh locality
//	serve-cold    the serve.cold raw job: 32,768 iterations × 2 random
//	              references over 4,096 elements
//	mvm-A         NAS CG class A: 1,853,104 nonzeros, one reference, so no
//	              buffer slots
//	sparse-touch  two random references over 128 × NumIters elements: few
//	              references per element, many slots
var benchShapes = []struct {
	name  string
	input func() (Config, [][]int32)
}{
	{"euler-10k", func() (Config, [][]int32) {
		m := mesh.Generate(9428, 59863, 1)
		return Config{P: benchP, K: benchK, NumIters: m.NumEdges(), NumElems: m.NumNodes, Dist: Cyclic}, [][]int32{m.I1, m.I2}
	}},
	{"serve-cold", func() (Config, [][]int32) { return benchRandom(32768, 4096) }},
	{"mvm-A", func() (Config, [][]int32) {
		a := sparse.Generate(sparse.ClassA, 1)
		return Config{P: benchP, K: benchK, NumIters: a.NNZ(), NumElems: a.N, Dist: Cyclic}, [][]int32{a.Col}
	}},
	{"sparse-touch", func() (Config, [][]int32) { return benchRandom(32768, 128*32768) }},
}

func benchRandom(iters, elems int) (Config, [][]int32) {
	rng := rand.New(rand.NewSource(1))
	ind := [][]int32{make([]int32, iters), make([]int32, iters)}
	for i := 0; i < iters; i++ {
		ind[0][i], ind[1][i] = int32(rng.Intn(elems)), int32(rng.Intn(elems))
	}
	return Config{P: benchP, K: benchK, NumIters: iters, NumElems: elems, Dist: Cyclic}, ind
}

// perIter reports wall time per iteration of a loop of iters iterations.
func perIter(b *testing.B, iters int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(iters), "ns/iter")
}

// BenchmarkLight times the LightInspector on benchShapes three ways each:
// one processor (proc0), both processors one after the other (serial), and
// both through LightAll (all). ns/iter is wall time per inspected
// iteration: per local iteration for proc0, per loop iteration otherwise,
// so serial and all compare directly. Two more rows time what a streaming
// session does with the set instead of re-inspecting: incremental clones
// it and indexes both clones for Update (a session's open), update-1pct
// rewires 1 % of the iterations through Update on both processors (one
// delta) — ns/iter per loop iteration and per rewired one respectively.
func BenchmarkLight(b *testing.B) {
	for _, sh := range benchShapes {
		var cfg Config
		var ind [][]int32
		setup := func(b *testing.B) {
			if ind == nil {
				cfg, ind = sh.input()
			}
			b.ReportAllocs()
			b.ResetTimer()
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
				for p := 0; p < benchP; p++ {
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
		b.Run(sh.name+"/incremental", func(b *testing.B) {
			setup(b)
			scheds, err := LightAll(cfg, nil, ind...)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, s := range CloneSchedules(scheds) {
					s.BeginIncremental()
				}
			}
			perIter(b, cfg.NumIters)
		})
		b.Run(sh.name+"/update-1pct", func(b *testing.B) {
			setup(b)
			scheds, err := LightAll(cfg, nil, ind...)
			if err != nil {
				b.Fatal(err)
			}
			// Each op moves the changed iterations between the loop's own
			// references and a rewired copy, so every op is one delta of
			// the same size and the schedules do not drift.
			rng := rand.New(rand.NewSource(2))
			changed := make([]int32, max(1, cfg.NumIters/100))
			rewired := make([][]int32, len(ind))
			for r := range ind {
				rewired[r] = append([]int32(nil), ind[r]...)
			}
			for i := range changed {
				it := rng.Intn(cfg.NumIters)
				changed[i] = int32(it)
				for r := range rewired {
					rewired[r][it] = int32(rng.Intn(cfg.NumElems))
				}
			}
			for _, s := range scheds {
				s.BeginIncremental()
			}
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				next := rewired
				if n%2 == 1 {
					next = ind
				}
				for _, s := range scheds {
					if err := s.Update(changed, next...); err != nil {
						b.Fatal(err)
					}
				}
			}
			perIter(b, len(changed))
		})
	}
}

// BenchmarkReadSchedule times the read path a schedule cache takes on a
// hit: ReadSchedule decodes and checks both processors' serialized
// schedules of each of benchShapes, one after the other. ns/iter is wall
// time per loop iteration.
func BenchmarkReadSchedule(b *testing.B) {
	for _, sh := range benchShapes {
		b.Run(sh.name, func(b *testing.B) {
			cfg, ind := sh.input()
			scheds, err := LightAll(cfg, nil, ind...)
			if err != nil {
				b.Fatal(err)
			}
			enc := make([][]byte, len(scheds))
			for p, s := range scheds {
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil {
					b.Fatal(err)
				}
				enc[p] = buf.Bytes()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for _, e := range enc {
					if _, err := ReadSchedule(bytes.NewReader(e)); err != nil {
						b.Fatal(err)
					}
				}
			}
			perIter(b, cfg.NumIters)
		})
	}
}
