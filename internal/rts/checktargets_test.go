package rts

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"irred/internal/algebra"
	"irred/internal/inspector"
)

// corruptScheduleTarget rewrites the first main-loop target in the schedule
// set to an index outside the local image, simulating a truncated or
// mis-deserialized schedule cache entry. Raw indirection arrays are
// validated by the inspector, so only post-inspection corruption can
// produce such a schedule.
func corruptScheduleTarget(t *testing.T, scheds []*inspector.Schedule, to int32) {
	t.Helper()
	for _, s := range scheds {
		for ph := range s.Phases {
			prog := &s.Phases[ph]
			for r := range prog.Ind {
				if len(prog.Ind[r]) > 0 {
					prog.Ind[r][0] = to
					return
				}
			}
		}
	}
	t.Fatal("no schedule target to corrupt")
}

func TestCheckTargetsCatchesCorruptedSchedule(t *testing.T) {
	for _, to := range []int32{-3, 1 << 20} {
		rng := rand.New(rand.NewSource(11))
		l := randLoop(rng, 4, 2, 200, 64, 2, inspector.Cyclic, 1)
		n, err := NewNative(l)
		if err != nil {
			t.Fatal(err)
		}
		corruptScheduleTarget(t, n.Scheds, to)
		n.Contribs = func(_, i int, out []float64) {
			for r := range out {
				out[r] = 1
			}
		}
		err = n.Run(1) // must complete, not panic
		if err == nil {
			t.Fatalf("target %d: corrupted schedule ran without a recorded violation", to)
		}
		if !strings.Contains(err.Error(), "target check") {
			t.Fatalf("target %d: unexpected error: %v", to, err)
		}
	}
}

func TestCheckTargetsCatchesCorruptedDrain(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := randLoop(rng, 4, 2, 300, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := false
	for _, s := range n.Scheds {
		for ph := range s.Phases {
			if len(s.Phases[ph].Copies) > 0 {
				s.Phases[ph].Copies[0].Elem = int32(l.Cfg.NumElems + 7)
				corrupted = true
				break
			}
		}
		if corrupted {
			break
		}
	}
	if !corrupted {
		t.Skip("schedule has no copy pairs to corrupt")
	}
	n.Contribs = func(_, i int, out []float64) {
		for r := range out {
			out[r] = 1
		}
	}
	err = n.Run(1)
	if err == nil {
		t.Fatal("corrupted drain ran without a recorded violation")
	}
	if !strings.Contains(err.Error(), "drain") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCheckTargetsCatchesCorruptedGather(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	l := randLoop(rng, 4, 2, 200, 64, 1, inspector.Cyclic, 1)
	l.Mode = Gather
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	corruptScheduleTarget(t, n.Scheds, int32(l.Cfg.NumElems+1))
	n.Consume = func(_, _ int, _ []float64) {}
	err = n.Run(1)
	if err == nil {
		t.Fatal("corrupted gather schedule ran without a recorded violation")
	}
	if !strings.Contains(err.Error(), "gathers") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplacedSetShapeErrors: a set that replaces the clean one between
// Runs and that the loops cannot index — too few schedules, a nil one, a
// schedule wanting more buffer slots than the Native holds — fails Run
// with a target check error, and the clean set runs again afterwards.
func TestReplacedSetShapeErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	l := randLoop(rng, 4, 2, 300, 64, 2, inspector.Cyclic, 1)
	n, err := NewNative(l)
	if err != nil {
		t.Fatal(err)
	}
	n.Contribs = func(_, _ int, out []float64) { out[0], out[1] = 1, 1 }
	good := n.Scheds
	bad := map[string]func() []*inspector.Schedule{
		"short": func() []*inspector.Schedule { return good[:len(good)-1] },
		"nil": func() []*inspector.Schedule {
			s := slices.Clone(good)
			s[2] = nil
			return s
		},
		"buffer": func() []*inspector.Schedule {
			s := inspector.CloneSchedules(good)
			s[1].BufLen++
			return s
		},
	}
	for name, set := range bad {
		n.Scheds = set()
		if err := n.Run(1); err == nil || !strings.Contains(err.Error(), "target check") {
			t.Fatalf("%s: err = %v, want a target check error", name, err)
		}
		n.Scheds = good
		if err := n.Run(1); err != nil {
			t.Fatalf("%s: clean set after the bad one: %v", name, err)
		}
	}
}

// badTarget is a copy of scheds whose processor 1 reads or writes element
// to at the middle of its first non-empty phase, with the error Run must
// return for it.
func badTarget(t *testing.T, l *Loop, scheds []*inspector.Schedule, to int32) ([]*inspector.Schedule, string) {
	t.Helper()
	bad := inspector.CloneSchedules(scheds)
	for ph := range bad[1].Phases {
		prog := &bad[1].Phases[ph]
		if len(prog.Iters) == 0 {
			continue
		}
		j := len(prog.Iters) / 2
		prog.Ind[0][j] = to
		if l.Mode == Gather {
			return bad, fmt.Sprintf("rts: target check: proc 1 phase %d: iteration %d gathers %d outside the rotated array [0,%d)",
				ph, prog.Iters[j], to, l.Cfg.NumElems)
		}
		return bad, fmt.Sprintf("rts: target check: proc 1 phase %d: iteration %d writes %d outside the local image [0,%d)",
			ph, prog.Iters[j], to, bad[1].LocalLen())
	}
	t.Fatal("processor 1 has no iterations")
	return nil, ""
}

// badCopy is a copy of scheds whose processor 1 drains a buffer slot into
// element to in its first phase with a copy loop, with the error Run must
// return for it.
func badCopy(t *testing.T, l *Loop, scheds []*inspector.Schedule, to int32) ([]*inspector.Schedule, string) {
	t.Helper()
	bad := inspector.CloneSchedules(scheds)
	for ph := range bad[1].Phases {
		if cps := bad[1].Phases[ph].Copies; len(cps) > 0 {
			cps[0].Elem = to
			return bad, fmt.Sprintf("rts: target check: proc 1 phase %d: drain %d -> %d outside image (elems %d, local %d)",
				ph, cps[0].Buf, to, l.Cfg.NumElems, bad[1].LocalLen())
		}
	}
	t.Fatal("processor 1 has no copy pairs")
	return nil, ""
}

// TestBadSetIsRefusedUntouched: a set with one target or copy pair outside
// the image, replacing a clean set between Runs, is refused before any
// worker starts — for reduce in block form, in data form and under min,
// and for gather. Run returns the fault in the scan's words; X and the
// remote buffers keep their bits; no contribution or consume hook is
// called; and the clean set, put back, gives the bits of a Native that
// never saw the bad one.
func TestBadSetIsRefusedUntouched(t *testing.T) {
	type row struct {
		name string
		mode Mode
		kind algebra.Kind
		refs int
		// wire installs the row's hooks, counting their calls, and returns
		// what a run leaves: the reduction array, or the consumed values.
		wire func(n *Native, calls *atomic.Int64) func() []float64
	}
	reduceWith := func(wire func(n *Native, calls *atomic.Int64)) func(*Native, *atomic.Int64) func() []float64 {
		return func(n *Native, calls *atomic.Int64) func() []float64 {
			wire(n, calls)
			return func() []float64 { return n.X }
		}
	}
	rows := []row{
		{"block", Reduce, algebra.Add, 2, reduceWith(func(n *Native, calls *atomic.Int64) {
			n.ContribBlock = func(_ int, iters []int32, out []float64) {
				calls.Add(1)
				for j, it := range iters {
					out[2*j], out[2*j+1] = blockContrib(int(it), 0), blockContrib(int(it), 1)
				}
			}
		})},
		{"data", Reduce, algebra.Add, 2, reduceWith(func(n *Native, _ *atomic.Int64) {
			n.Weights, n.Coef = linearWeights(n.Loop.Cfg.NumIters), []float64{1, -1}
		})},
		{"min", Reduce, algebra.Min, 2, reduceWith(func(n *Native, calls *atomic.Int64) {
			n.Contribs = func(_, i int, out []float64) {
				calls.Add(1)
				out[0], out[1] = blockContrib(i, 0), blockContrib(i, 1)
			}
		})},
		{"gather", Gather, algebra.Add, 1, func(n *Native, calls *atomic.Int64) func() []float64 {
			acc := make([]float64, n.Loop.Cfg.P)
			n.ConsumeBlock = func(p, _ int, iters, targets []int32) {
				calls.Add(1)
				for j, it := range iters {
					acc[p] = acc[p]*0.999 + n.X[targets[j]]*float64(it%5)
				}
			}
			return func() []float64 { return acc }
		}},
	}
	for _, rw := range rows {
		l := randLoop(rand.New(rand.NewSource(50)), 3, 2, 400, 64, rw.refs, inspector.Cyclic, 1)
		l.Mode, l.Combine = rw.mode, algebra.Op{Kind: rw.kind}
		scheds, err := l.Schedules()
		if err != nil {
			t.Fatal(err)
		}
		// fresh is a Native over the clean set, X seeded, with its result.
		fresh := func() (*Native, *atomic.Int64, func() []float64) {
			n, err := NewNativeFrom(l, scheds)
			if err != nil {
				t.Fatal(err)
			}
			for i := range n.X {
				n.X[i] = blockContrib(i, 2)
			}
			calls := new(atomic.Int64)
			return n, calls, rw.wire(n, calls)
		}
		faults := map[string]func() ([]*inspector.Schedule, string){
			"target": func() ([]*inspector.Schedule, string) {
				if l.Mode == Gather {
					return badTarget(t, l, scheds, int32(l.Cfg.NumElems+5))
				}
				return badTarget(t, l, scheds, int32(scheds[1].LocalLen()))
			},
		}
		if l.Mode == Reduce {
			faults["copy"] = func() ([]*inspector.Schedule, string) {
				return badCopy(t, l, scheds, int32(l.Cfg.NumElems+7))
			}
		}
		for fault, build := range faults {
			name := rw.name + "/" + fault
			bad, want := build()
			n, calls, result := fresh()
			if err := n.Run(1); err != nil {
				t.Fatalf("%s: clean Run: %v", name, err)
			}
			x := slices.Clone(n.X)
			bufs := make([][]float64, len(n.bufs))
			for p, b := range n.bufs {
				bufs[p] = slices.Clone(b)
			}
			calls.Store(0)
			n.Scheds = bad
			if err := n.Run(1); err == nil || err.Error() != want {
				t.Fatalf("%s: err = %v, want %s", name, err, want)
			}
			if i := sameBits(n.X, x); i >= 0 {
				t.Fatalf("%s: the refused Run changed x[%d] from %v to %v", name, i, x[i], n.X[i])
			}
			for p := range bufs {
				if i := sameBits(n.bufs[p], bufs[p]); i >= 0 {
					t.Fatalf("%s: the refused Run changed processor %d's buffer slot %d", name, p, i)
				}
			}
			if c := calls.Load(); c != 0 {
				t.Fatalf("%s: the refused Run called its hook %d times", name, c)
			}
			n.Scheds = scheds
			if err := n.Run(1); err != nil {
				t.Fatalf("%s: clean set after the bad one: %v", name, err)
			}
			ref, _, refResult := fresh()
			for i := 0; i < 2; i++ {
				if err := ref.Run(1); err != nil {
					t.Fatal(err)
				}
			}
			if got, want := result(), refResult(); len(got) != len(want) || sameBits(got, want) >= 0 {
				t.Fatalf("%s: after the refused set %v, never refused %v", name, got, want)
			}
		}
	}
}
