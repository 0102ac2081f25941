package rts

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irred/internal/algebra"
	"irred/internal/inspector"
)

// blockContrib is a contribution whose sums depend on the fold order: any
// reordering of two additions into one element shows in the low bits.
func blockContrib(i, slot int) float64 {
	return math.Sin(float64(i)*0.37+float64(slot)) * (1 + float64(i%11)*1e-3)
}

// runReduce runs l for two sweeps with the contributions supplied the way
// wire installs them and returns the reduction array.
func runReduce(t *testing.T, l *Loop, scheds []*inspector.Schedule, wire func(n *Native)) []float64 {
	t.Helper()
	n, err := NewNativeFrom(l, scheds)
	if err != nil {
		t.Fatal(err)
	}
	wire(n)
	if err := n.Run(2); err != nil {
		t.Fatal(err)
	}
	return n.X
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestBlockPathsBitwiseEqual: a kernel-supplied block function, the
// adapter over the per-iteration Contribs, and the guarded loop (forced on)
// fold every element in the same order, on random shapes, for float add
// and for a combine that only the guarded bodies execute. Fixed rows come
// first so that every fast reduce body is run whatever the random trials
// draw: two references of one and of three components, and the general
// body's one and three references and four components.
func TestBlockPathsBitwiseEqual(t *testing.T) {
	rows := rand.New(rand.NewSource(40)) // the trials keep seed 41 to themselves
	for _, shape := range [][2]int{{2, 1}, {2, 3}, {1, 1}, {3, 1}, {1, 3}, {2, 4}} {
		for _, dist := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
			refs, comp := shape[0], shape[1]
			checkBlockPaths(t, rows, fmt.Sprintf("row refs=%d comp=%d %v", refs, comp, dist), 3, 2, 1100, 150, refs, comp, dist)
		}
	}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		p, k := 1+rng.Intn(8), 1+rng.Intn(3)
		refs, comp := 1+rng.Intn(3), 1+rng.Intn(4)
		iters, elems := 1+rng.Intn(1500), 1+rng.Intn(200)
		dist := inspector.Block
		if rng.Intn(2) == 0 {
			dist = inspector.Cyclic
		}
		checkBlockPaths(t, rng, fmt.Sprintf("trial %d", trial), p, k, iters, elems, refs, comp, dist)
	}
}

// checkBlockPaths is one shape of TestBlockPathsBitwiseEqual, under float
// add and under max.
func checkBlockPaths(t *testing.T, rng *rand.Rand, name string, p, k, iters, elems, refs, comp int, dist inspector.Dist) {
	t.Helper()
	for _, kind := range []algebra.Kind{algebra.Add, algebra.Max} {
		l := randLoop(rng, p, k, iters, elems, refs, dist, comp)
		l.Combine = algebra.Op{Kind: kind}
		scheds, err := l.Schedules()
		if err != nil {
			t.Fatal(err)
		}
		stride := refs * comp
		perIter := func(_, i int, out []float64) {
			for s := range out {
				out[s] = blockContrib(i, s)
			}
		}
		var tooLong atomic.Bool
		block := func(_ int, its []int32, out []float64) {
			if len(out) != len(its)*stride {
				t.Errorf("block of %d iterations got %d slots, want %d", len(its), len(out), len(its)*stride)
			}
			if len(its) > blockIters {
				tooLong.Store(true)
			}
			for j, it := range its {
				for s := 0; s < stride; s++ {
					out[j*stride+s] = blockContrib(int(it), s)
				}
			}
		}
		native := runReduce(t, l, scheds, func(n *Native) { n.ContribBlock = block })
		adapter := runReduce(t, l, scheds, func(n *Native) { n.Contribs = perIter })
		guarded := runReduce(t, l, scheds, func(n *Native) { n.Contribs = perIter; n.guarded = true })
		shape := fmt.Sprintf("%s (%v %v P=%d k=%d refs=%d comp=%d)", name, l.Combine, dist, p, k, refs, comp)
		if i := sameBits(native, adapter); i >= 0 {
			t.Fatalf("%s: x[%d] block %v, adapter %v", shape, i, native[i], adapter[i])
		}
		if i := sameBits(native, guarded); i >= 0 {
			t.Fatalf("%s: x[%d] block %v, guarded %v", shape, i, native[i], guarded[i])
		}
		if tooLong.Load() {
			t.Fatalf("engine asked for more than %d iterations at once", blockIters)
		}
	}
}

// TestGatherPathsEqual: a ConsumeBlock is handed each phase's iteration
// list whole, at its schedule position, and sees the values the adapter
// over a per-iteration Consume sees, in the same order.
func TestGatherPathsEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	l := randLoop(rng, 3, 2, 700, 90, 1, inspector.Cyclic, 2)
	l.Mode = Gather
	scheds, err := l.Schedules()
	if err != nil {
		t.Fatal(err)
	}
	// phases[p] is p's phases as [position, length], over two sweeps.
	phases := make([][][2]int, l.Cfg.P)
	for p, s := range scheds {
		for sweep := 0; sweep < 2; sweep++ {
			pos := 0
			for ph := range s.Phases {
				phases[p] = append(phases[p], [2]int{pos, len(s.Phases[ph].Iters)})
				pos += len(s.Phases[ph].Iters)
			}
		}
	}
	run := func(block bool) []float64 {
		n, err := NewNativeFrom(l, scheds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range n.X {
			n.X[i] = blockContrib(i, 0)
		}
		acc := make([]float64, l.Cfg.P)
		consume := func(p, i int, vals []float64) {
			acc[p] = acc[p]*0.999 + vals[0]*float64(i%5) - vals[1]
		}
		seen := make([][][2]int, l.Cfg.P)
		if block {
			n.ConsumeBlock = func(p, pos int, iters, targets []int32) {
				if len(targets) != len(iters) {
					t.Errorf("block of %d iterations with %d targets", len(iters), len(targets))
				}
				seen[p] = append(seen[p], [2]int{pos, len(iters)})
				for j, it := range iters {
					tb := int(targets[j]) * 2
					consume(p, int(it), n.X[tb:tb+2])
				}
			}
		} else {
			n.Consume = consume
		}
		if err := n.Run(2); err != nil {
			t.Fatal(err)
		}
		if block {
			for p := range phases {
				if fmt.Sprint(seen[p]) != fmt.Sprint(phases[p]) {
					t.Fatalf("processor %d: blocks [position length] %v, phases %v", p, seen[p], phases[p])
				}
			}
		}
		return acc
	}
	if i := sameBits(run(true), run(false)); i >= 0 {
		t.Fatalf("processor %d consumed differently through the block form", i)
	}
}

// TestRunClearsStaleViolations: a violation recorded by one run must not
// be reported by the next, run over a replaced, repaired set.
func TestRunClearsStaleViolations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	l := randLoop(rng, 4, 2, 200, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	good := n.Scheds
	n.Scheds = inspector.CloneSchedules(good)
	corruptScheduleTarget(t, n.Scheds, 1<<20)
	n.Contribs = func(_, _ int, out []float64) { out[0], out[1] = 1, 1 }
	if err := n.Run(1); err == nil || !strings.Contains(err.Error(), "target check") {
		t.Fatalf("corrupted run: err = %v, want a target check violation", err)
	}
	n.Scheds = good
	if err := n.Run(1); err != nil {
		t.Fatalf("run over the repaired set reported a stale violation: %v", err)
	}
}

// TestCheckTargetsTruncatedTargets: a target list shorter than its
// iteration list cannot be indexed by any loop; the scan reports it
// instead of letting a worker fault.
func TestCheckTargetsTruncatedTargets(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	l := randLoop(rng, 4, 2, 200, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	prog := &n.Scheds[1].Phases[0]
	prog.Ind[1] = prog.Ind[1][:len(prog.Ind[1])-1]
	n.Contribs = func(_, _ int, out []float64) { out[0], out[1] = 1, 1 }
	err = n.Run(1)
	if err == nil || !strings.Contains(err.Error(), "target check") {
		t.Fatalf("err = %v, want a target check violation", err)
	}
}

// TestBarrierRounds drives the barrier itself: no worker may leave round r
// before every worker has entered it, with workers slow enough, at more
// workers than threads, that waiters go all the way to parking.
func TestBarrierRounds(t *testing.T) {
	const workers, rounds = 8, 300
	b := newBarrier(workers)
	var entered [rounds]atomic.Int32
	var wg sync.WaitGroup
	wg.Add(workers)
	for p := 0; p < workers; p++ {
		go func(p int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if (r+p)%17 == 0 {
					time.Sleep(200 * time.Microsecond) // a straggler: the others park
				}
				entered[r].Add(1)
				if !b.wait(p, nil) {
					t.Errorf("worker %d round %d: barrier reported cancellation", p, r)
					return
				}
				if got := entered[r].Load(); got != workers {
					t.Errorf("worker %d left round %d after %d arrivals", p, r, got)
					return
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestBarrierCancelReleasesWaiters: waiters parked at a barrier that can
// never complete return false as soon as done is closed.
func TestBarrierCancelReleasesWaiters(t *testing.T) {
	const workers = 4
	b := newBarrier(workers)
	done := make(chan struct{})
	results := make(chan bool, workers-1)
	for p := 1; p < workers; p++ { // worker 0 never arrives
		go func(p int) { results <- b.wait(p, done) }(p)
	}
	time.Sleep(20 * time.Millisecond) // past the spin budget: they are parked
	close(done)
	for p := 1; p < workers; p++ {
		select {
		case ok := <-results:
			if ok {
				t.Fatal("waiter passed a barrier that never filled")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled waiter still parked")
		}
	}
}

// TestRunContextCancelInBarrier: one processor's Update outlasts the
// others', so they sit in the barrier when ctx is cancelled; the run
// returns ctx.Err() promptly and leaves no goroutine behind.
func TestRunContextCancelInBarrier(t *testing.T) {
	before := runtime.NumGoroutine()
	n, err := NewNative(ctxTestLoop(8, 4, 2, 500, 64))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n.Contribs = onesContrib(nil)
	inUpdate := make(chan struct{})
	n.Update = func(p, step int) {
		if p == 0 && step == 3 {
			close(inUpdate)
			<-ctx.Done() // an update that honours cancellation, late
			time.Sleep(20 * time.Millisecond)
		}
	}
	errc := make(chan error, 1)
	go func() { errc <- n.RunContext(ctx, 1_000_000) }()
	<-inUpdate
	time.Sleep(20 * time.Millisecond) // the other three reach the barrier and park
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled run did not return; workers stuck in the barrier")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the run, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunAllocatesNothingPerSweep: what a Run allocates does not grow with
// its sweeps, on the barrier path or the pipelined one.
func TestRunAllocatesNothingPerSweep(t *testing.T) {
	for _, update := range []bool{true, false} {
		rng := rand.New(rand.NewSource(46))
		l := randLoop(rng, 2, 2, 2000, 128, 2, inspector.Cyclic, 3)
		n, err := NewNative(l)
		if err != nil {
			t.Fatal(err)
		}
		n.Contribs = func(_, i int, out []float64) {
			for s := range out {
				out[s] = float64(i + s)
			}
		}
		if update {
			n.Update = func(p, step int) {}
		}
		run := func(steps int) float64 {
			return testing.AllocsPerRun(10, func() {
				if err := n.Run(steps); err != nil {
					t.Fatal(err)
				}
			})
		}
		// The runtime may allocate a goroutine or a wait record of its own
		// now and then; a per-sweep allocation would add 56 or more.
		if short, long := run(8), run(64); long > short+2 {
			t.Fatalf("update=%v: Run(8) allocates %v, Run(64) %v", update, short, long)
		}
	}
}
