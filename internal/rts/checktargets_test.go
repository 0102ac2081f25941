package rts

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

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
