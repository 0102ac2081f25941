// Adaptive irregular reduction: the scenario the paper names as its
// motivation and future work. The interaction structure changes every few
// timesteps (here: molecules move and the neighbour list is rebuilt), so
// runtime preprocessing must be repeated at each adaptation.
//
// The paper's strategy re-runs only the LightInspector — a purely local,
// communication-free pass — while the classic inspector/executor must
// rebuild its communication schedule with an interprocessor exchange.
// This example runs a real adaptive moldyn simulation natively (rebuilding
// the neighbour list and re-inspecting), then prints the modelled
// amortized-cost comparison.
package main

import (
	"context"
	"fmt"
	"log"

	"irred/internal/bench"
	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/service"
)

func main() {
	// A small adaptive run: 5 epochs of 4 timesteps; after each epoch the
	// molecules have moved, the neighbour list is rebuilt, and the
	// LightInspector re-runs on the new indirection arrays.
	sys := moldyn.Generate(6, 1, 0.02, 1)
	fmt.Printf("adaptive moldyn: %d molecules, initially %d interactions\n",
		sys.N, sys.NumInteractions())

	const procs, k, epochs, stepsPerEpoch = 4, 2, 5, 4
	for epoch := 0; epoch < epochs; epoch++ {
		md := kernels.NewMoldyn(sys)
		nat, pos, vel, err := md.NewNative(procs, k, inspector.Cyclic)
		if err != nil {
			log.Fatal(err)
		}
		if err := nat.Run(stepsPerEpoch); err != nil {
			log.Fatal(err)
		}
		// Fold the evolved state back and adapt: rebuild the neighbour
		// list from the new positions.
		copy(sys.Pos, pos)
		copy(sys.Vel, vel)
		before := sys.NumInteractions()
		sys.BuildNeighbors()
		fmt.Printf("epoch %d: %d -> %d interactions after motion; LightInspector re-run (local only)\n",
			epoch, before, sys.NumInteractions())

		// The re-run is this cheap: one pass over the processor's pairs.
		l := kernels.NewMoldyn(sys).Loop(procs, k, inspector.Cyclic)
		scheds, err := l.Schedules()
		if err != nil {
			log.Fatal(err)
		}
		if err := inspector.CheckSet(l.Cfg, scheds, l.Ind...); err != nil {
			log.Fatal(err)
		}
	}

	// The incremental LightInspector (the paper's stated future work,
	// implemented here): when only a few interactions change, update the
	// existing schedule in O(changed) instead of re-inspecting everything.
	l := kernels.NewMoldyn(sys).Loop(procs, k, inspector.Cyclic)
	scheds, err := l.Schedules()
	if err != nil {
		log.Fatal(err)
	}
	// Rewire 50 interactions and update in place.
	changed := make([]int32, 0, 50)
	for j := 0; j < 50; j++ {
		i := (j * 97) % len(sys.I1)
		sys.I2[i] = int32((int(sys.I2[i]) + 1 + j) % sys.N)
		if sys.I2[i] == sys.I1[i] {
			sys.I2[i] = int32((int(sys.I2[i]) + 1) % sys.N)
		}
		changed = append(changed, int32(i))
	}
	for _, s := range scheds {
		if err := s.Update(changed, sys.I1, sys.I2); err != nil {
			log.Fatal(err)
		}
	}
	if err := inspector.CheckSet(l.Cfg, scheds, sys.I1, sys.I2); err != nil {
		log.Fatalf("after incremental update: %v", err)
	}
	fmt.Printf("\nincremental LightInspector: %d changed interactions folded into the\n", len(changed))
	fmt.Println("existing schedules in O(changed) time; all invariants re-verified.")

	// Modelled amortized comparison against the classic inspector/executor
	// on the euler mesh (the paper's Section 5.4.3 discussion).
	fmt.Println()
	_, txt, err := bench.AblationAdaptive(bench.Options{Steps: 30, Seed: 1}, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(txt)

	// And the headline property, measured: the phase strategy's traffic
	// does not change when the indirection arrays do.
	l1 := kernels.NewMoldyn(moldyn.Generate(6, 1, 0.02, 1)).Loop(8, 2, inspector.Cyclic)
	l2 := kernels.NewMoldyn(moldyn.Generate(6, 1, 0.02, 99)).Loop(8, 2, inspector.Cyclic)
	r1, err := rts.RunSim(l1, rts.SimOptions{Steps: 10})
	if err != nil {
		log.Fatal(err)
	}
	r2, err := rts.RunSim(l2, rts.SimOptions{Steps: 10})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraffic with dataset A: %.0f bytes/step; with dataset B: %.0f bytes/step\n",
		r1.BytesPerStep, r2.BytesPerStep)
	if r1.BytesPerStep == r2.BytesPerStep {
		fmt.Println("identical — communication is independent of the indirection contents.")
	}

	streamingSession()
}

// streamingSession is the service-level version of the same adaptivity:
// instead of re-submitting the whole workload each time the mesh refines,
// the client opens one session and streams sparse deltas. The daemon keeps
// the schedules resident and revises them with Schedule.Update; only a
// delta past the fallback fraction pays for a full re-inspection.
func streamingSession() {
	fmt.Println("\nstreaming session over an adapting mesh (in-process daemon):")

	svc, err := service.New(service.Options{Workers: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer svc.Close()

	m := mesh.Generate(300, 1400, 7)
	w := make([]float64, m.NumEdges())
	for i := range w {
		w[i] = float64(1 + i%7) // integral weights: results compare bitwise
	}
	spec := service.JobSpec{
		NumIters: m.NumEdges(), NumElems: m.NumNodes,
		Ind:     [][]int32{m.I1, m.I2},
		Contrib: &service.ContribSpec{Kind: "weights", Weights: w},
		P:       4, K: 2, Dist: "cyclic", Steps: 2,
	}
	ctx := context.Background()
	st, err := svc.OpenSession(ctx, spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  opened %s: %d edges inspected once (%.2fms), result %s\n",
		st.ID, m.NumEdges(), st.InspectMS, st.ResultSHA256[:12])

	// Refine the mesh for a few steps at 2% per step: each Adapt returns
	// the changed edge list, which ships as a sparse delta — no
	// re-inspection, no re-upload of the other 98%.
	for step := 0; step < 4; step++ {
		changed := m.Adapt(step, 0.02, 7)
		d := &service.Delta{Changed: changed, Values: make([][]int32, 2)}
		for r, col := range [][]int32{m.I1, m.I2} {
			d.Values[r] = make([]int32, len(changed))
			for j, it := range changed {
				d.Values[r][j] = col[it]
			}
		}
		if st, err = svc.ApplyDelta(ctx, st.ID, d, false); err != nil {
			log.Fatal(err)
		}
		path := "full re-inspection"
		if st.LastIncremental {
			path = "incremental update"
		}
		fmt.Printf("  delta %d: %4d edges rewired (%.1f%%) -> %s in %.2fms, result %s\n",
			st.Deltas, len(changed), st.LastFrac*100, path, st.InspectMS, st.ResultSHA256[:12])
	}

	// The same schedules absorbed every delta: the session never paid the
	// open-time inspection again.
	fmt.Printf("  session totals: %d deltas, %d incremental, %d full re-inspections\n",
		st.Deltas, st.Incremental, st.Full)
	if err := svc.CloseSession(st.ID); err != nil {
		log.Fatal(err)
	}
}
