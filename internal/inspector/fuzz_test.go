package inspector

import (
	"bytes"
	"math/rand"
	"testing"
)

// fuzzScheduleBytes serializes a real LightInspector schedule, giving the
// fuzzer structurally valid seeds to mutate. corrupt, when given, edits the
// schedule before it is written.
func fuzzScheduleBytes(seed int64, p, k, iters, elems int, corrupt ...func(*Schedule)) []byte {
	rng := rand.New(rand.NewSource(seed))
	ind := make([][]int32, 2)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	cfg := Config{P: p, K: k, NumIters: iters, NumElems: elems, Dist: Cyclic}
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		panic(err)
	}
	for _, c := range corrupt {
		c(s)
	}
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzSerializeRoundTrip hammers the schedule codec with arbitrary bytes.
// Properties:
//
//  1. ReadSchedule never panics and never allocates proportionally to
//     claimed (attacker-controlled) counts — only to bytes actually
//     present in the stream.
//  2. Anything ReadSchedule accepts passes the Check() invariants (the
//     reader enforces this itself; the fuzz target re-checks).
//  3. Accepted schedules survive a write/reread round trip into identical
//     canonical bytes — the format has one encoding per schedule.
func FuzzSerializeRoundTrip(f *testing.F) {
	f.Add(fuzzScheduleBytes(1, 2, 2, 300, 64))
	f.Add(fuzzScheduleBytes(2, 1, 1, 50, 8))
	f.Add(fuzzScheduleBytes(3, 4, 2, 800, 128))
	f.Add([]byte("IRSC"))
	f.Add([]byte("IRSC\x01"))
	f.Add([]byte{})
	// Two corruptions only Check's local-position and image bounds reject:
	// an iteration past the end with a valid residue, and a negative
	// target.
	f.Add(fuzzScheduleBytes(4, 4, 2, 200, 64, func(s *Schedule) {
		for ph := range s.Phases {
			for j, it := range s.Phases[ph].Iters {
				if it == 196 {
					s.Phases[ph].Iters[j] = 200
				}
			}
		}
	}))
	f.Add(fuzzScheduleBytes(5, 4, 2, 200, 64, func(s *Schedule) {
		for ph := range s.Phases {
			if ind := s.Phases[ph].Ind[0]; len(ind) > 0 && int(ind[0]) < s.Cfg.NumElems {
				ind[0] = -3
				return
			}
		}
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSchedule(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := s.Check(); err != nil {
			t.Fatalf("accepted schedule fails Check: %v", err)
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("rewriting accepted schedule: %v", err)
		}
		s2, err := ReadSchedule(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("rereading rewritten schedule: %v", err)
		}
		var out2 bytes.Buffer
		if _, err := s2.WriteTo(&out2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatal("canonical encoding not stable across a round trip")
		}
	})
}
