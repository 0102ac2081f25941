// Quickstart: the paper's worked example shape (Figure 3) through the
// packages that implement it — a 20-edge, 8-node mesh reduced on 2
// processors with k = 2.
//
// It shows the three things the library does:
//  1. LightInspector: partition each processor's iterations into k*P
//     phases and set up remote buffers + copy loops, with no
//     interprocessor communication;
//  2. native execution: run the reduction on goroutines with rotating
//     portion ownership and verify against the sequential loop;
//  3. simulation: time the same program on the modelled EARTH machine.
package main

import (
	"fmt"
	"log"
	"math"

	"irred/internal/inspector"
	"irred/internal/rts"
)

func main() {
	// A tiny mesh: 20 edges over 8 nodes (the paper's Figure 3 example
	// runs the LightInspector on exactly this shape).
	ia1 := []int32{0, 1, 2, 3, 4, 5, 6, 7, 0, 2, 4, 6, 1, 3, 5, 0, 2, 7, 3, 6}
	ia2 := []int32{1, 2, 3, 4, 5, 6, 7, 4, 2, 4, 6, 0, 3, 5, 7, 4, 6, 1, 7, 2}
	edgeWeight := func(i int) float64 { return float64(i%5) + 1 }

	loop := &rts.Loop{
		// The paper's best strategy, 2c: k=2, cyclic.
		Cfg:  inspector.Config{P: 2, K: 2, NumIters: len(ia1), NumElems: 8, Dist: inspector.Cyclic},
		Mode: rts.Reduce,
		Ind:  [][]int32{ia1, ia2},
		// Per-iteration work, for the simulator.
		Cost: rts.KernelCost{Flops: 10, IntOps: 4, IterArrays: 1},
	}

	// 1. Inspect: the per-processor phase programs.
	scheds, err := loop.Schedules()
	if err != nil {
		log.Fatal(err)
	}
	for p, s := range scheds {
		fmt.Printf("processor %d: %d phases, remote buffer of %d slots\n",
			p, len(s.Phases), s.BufLen)
		for ph := range s.Phases {
			prog := &s.Phases[ph]
			fmt.Printf("  phase %d: iterations %v", ph, prog.Iters)
			if len(prog.Copies) > 0 {
				fmt.Printf(", copy loop %v", prog.Copies)
			}
			fmt.Println()
		}
	}

	// 2. Run natively: each edge adds its weight to both endpoints.
	nat, err := rts.NewNativeFrom(loop, scheds)
	if err != nil {
		log.Fatal(err)
	}
	nat.Contribs = func(_, i int, out []float64) {
		out[0] = edgeWeight(i) // through ia1[i]
		out[1] = edgeWeight(i) // through ia2[i]
	}
	if err := nat.Run(1); err != nil {
		log.Fatal(err)
	}
	x := nat.X

	// Verify against the sequential loop of Figure 1.
	want := make([]float64, 8)
	for i := range ia1 {
		want[ia1[i]] += edgeWeight(i)
		want[ia2[i]] += edgeWeight(i)
	}
	for e := range want {
		if math.Abs(x[e]-want[e]) > 1e-12 {
			log.Fatalf("mismatch at node %d: %v != %v", e, x[e], want[e])
		}
	}
	fmt.Printf("\nnative result matches the sequential reduction: %v\n", x)

	// 3. Simulate on the modelled EARTH machine, against one processor.
	opt := rts.SimOptions{Steps: 100}
	rep, err := rts.RunSim(loop, opt)
	if err != nil {
		log.Fatal(err)
	}
	seq, _ := rts.RunSequentialSim(loop, opt)
	fmt.Printf("\nsimulated on EARTH (%dc@%d): %.6fs for %d steps, speedup %.2fx, %.0f msgs/step\n",
		rep.K, rep.P, rep.Seconds, opt.Steps, float64(seq)/float64(rep.Cycles), rep.MsgsPerStep)
	fmt.Println("(a 20-edge toy is all overhead — phase and message costs dwarf 20 additions;")
	fmt.Println(" see examples/cfd and examples/moldyn for the paper-sized runs)")
	fmt.Println("communication volume is independent of the indirection contents —")
	fmt.Println("the same machine shape always moves the same bytes.")
}
