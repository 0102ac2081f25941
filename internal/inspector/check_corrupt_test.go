package inspector

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

// freshSchedule builds a schedule with both owned writes and buffered
// (deferred) writes, so every Check invariant has something to trip over.
func freshSchedule(t *testing.T) (Config, *Schedule, [][]int32) {
	t.Helper()
	cfg := Config{P: 4, K: 2, NumIters: 200, NumElems: 64, Dist: Cyclic}
	rng := rand.New(rand.NewSource(21))
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	s, err := Light(cfg, 0, ind...)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Check(ind...); err != nil {
		t.Fatalf("fresh schedule fails Check: %v", err)
	}
	if s.BufLen == 0 || s.NumCopies() == 0 {
		t.Fatal("fresh schedule has no buffered references to corrupt")
	}
	return cfg, s, ind
}

// findOwned locates an owned (non-buffered) reference: phase ph, ref r,
// slot j with Ind[r][j] < NumElems.
func findOwned(t *testing.T, cfg Config, s *Schedule) (ph, r, j int) {
	t.Helper()
	for ph := range s.Phases {
		p := &s.Phases[ph]
		for r := range p.Ind {
			for j, x := range p.Ind[r] {
				if int(x) < cfg.NumElems {
					return ph, r, j
				}
			}
		}
	}
	t.Fatal("no owned reference found")
	return 0, 0, 0
}

// findBuffered locates a deferred reference (Ind entry >= NumElems).
func findBuffered(t *testing.T, cfg Config, s *Schedule) (ph, r, j int) {
	t.Helper()
	for ph := range s.Phases {
		p := &s.Phases[ph]
		for r := range p.Ind {
			for j, x := range p.Ind[r] {
				if int(x) >= cfg.NumElems {
					return ph, r, j
				}
			}
		}
	}
	t.Fatal("no buffered reference found")
	return 0, 0, 0
}

// findCopy locates a phase with a copy-loop entry.
func findCopy(t *testing.T, s *Schedule) int {
	t.Helper()
	for ph := range s.Phases {
		if len(s.Phases[ph].Copies) > 0 {
			return ph
		}
	}
	t.Fatal("no copy entries found")
	return 0
}

// TestCheckRejectsCorruptedSchedules hand-corrupts a valid LightInspector
// schedule in every way Check guards against and asserts each corruption is
// caught with the right complaint.
func TestCheckRejectsCorruptedSchedules(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, cfg Config, s *Schedule, ind [][]int32)
		code    string
		// reread: the schedule is also written and read back, and
		// ReadSchedule, which checks without the indirection arrays, must
		// reject it with the same code.
		reread bool
	}{
		{
			// The systolic invariant: every write lands in a portion owned
			// during the write's phase. Redirect an owned write to an element
			// whose portion arrives in a different phase.
			name: "write in non-owning phase",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, r, j := findOwned(t, cfg, s)
				x := s.Phases[ph].Ind[r][j]
				s.Phases[ph].Ind[r][j] = (x + int32(cfg.PortionSize())) % int32(cfg.NumElems)
			},
			code: "IRV004",
		},
		{
			name: "iteration duplicated across phases",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				src, dst := -1, -1
				for ph := range s.Phases {
					if len(s.Phases[ph].Iters) > 0 {
						if src < 0 {
							src = ph
						} else {
							dst = ph
							break
						}
					}
				}
				if dst < 0 {
					t.Fatal("need two non-empty phases")
				}
				p, q := &s.Phases[src], &s.Phases[dst]
				q.Iters = append(q.Iters, p.Iters[0])
				for r := range q.Ind {
					q.Ind[r] = append(q.Ind[r], p.Ind[r][0])
				}
			},
			code: "IRV002",
		},
		{
			name: "iteration dropped",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, _, _ := findOwned(t, cfg, s)
				p := &s.Phases[ph]
				p.Iters = p.Iters[1:]
				for r := range p.Ind {
					p.Ind[r] = p.Ind[r][1:]
				}
			},
			code: "IRV002",
		},
		{
			name: "iteration owned by another processor",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, _, j := findOwned(t, cfg, s)
				it := s.Phases[ph].Iters[j]
				for i := 0; i < cfg.NumIters; i++ {
					if cfg.OwnerOfIter(i) != s.Proc && int32(i) != it {
						s.Phases[ph].Iters[j] = int32(i)
						return
					}
				}
				t.Fatal("no foreign iteration found")
			},
			code: "IRV002",
		},
		{
			name: "index outside the local image",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, r, j := findOwned(t, cfg, s)
				s.Phases[ph].Ind[r][j] = int32(s.LocalLen())
			},
			code: "IRV004",
		},
		{
			name: "owned write redirected within the portion",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				// Same phase, same portion, wrong element: only the original
				// indirection array can expose this.
				ph, r, j := findOwned(t, cfg, s)
				x := int(s.Phases[ph].Ind[r][j])
				for e := 0; e < cfg.NumElems; e++ {
					if e != x && cfg.PhaseOf(s.Proc, e) == ph {
						s.Phases[ph].Ind[r][j] = int32(e)
						return
					}
				}
				t.Skip("portion has a single element")
			},
			code: "IRV004",
		},
		{
			name: "two elements share a buffer slot",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph1, r1, j1 := findBuffered(t, cfg, s)
				a := s.Phases[ph1].Ind[r1][j1]
				e1 := ind[r1][s.Phases[ph1].Iters[j1]]
				for ph := range s.Phases {
					p := &s.Phases[ph]
					for r := range p.Ind {
						for j, x := range p.Ind[r] {
							if int(x) >= cfg.NumElems && x != a && ind[r][p.Iters[j]] != e1 {
								p.Ind[r][j] = a
								return
							}
						}
					}
				}
				t.Skip("only one buffered element")
			},
			code: "IRV004",
		},
		{
			name: "copy entry in a non-owning phase",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				src := findCopy(t, s)
				cp := s.Phases[src].Copies[0]
				dst := (src + 1) % len(s.Phases)
				if cfg.PhaseOf(s.Proc, int(cp.Elem)) == dst {
					t.Fatalf("destination phase %d also owns element %d", dst, cp.Elem)
				}
				s.Phases[src].Copies = s.Phases[src].Copies[1:]
				s.Phases[dst].Copies = append(s.Phases[dst].Copies, cp)
			},
			code: "IRV005",
		},
		{
			name: "copy source outside the buffer",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph := findCopy(t, s)
				s.Phases[ph].Copies[0].Buf = int32(s.LocalLen())
			},
			code: "IRV005",
		},
		{
			name: "referenced slot never drained",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph := findCopy(t, s)
				s.Phases[ph].Copies = s.Phases[ph].Copies[1:]
			},
			code: "IRV005",
		},
		{
			name: "slot drained twice",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph := findCopy(t, s)
				p := &s.Phases[ph]
				p.Copies = append(p.Copies, p.Copies[0])
			},
			code: "IRV005",
		},
		{
			name: "ragged indirection data",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, r, _ := findOwned(t, cfg, s)
				p := &s.Phases[ph]
				p.Ind[r] = p.Ind[r][:len(p.Ind[r])-1]
			},
			code: "IRV001",
		},
		{
			// The last iteration replaced by the first: the count still
			// matches, so only the duplicate shows the missing one.
			name: "iteration replaced by another of its own",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				var first, last *int32
				for ph := range s.Phases {
					for j := range s.Phases[ph].Iters {
						if first == nil {
							first = &s.Phases[ph].Iters[j]
						}
						last = &s.Phases[ph].Iters[j]
					}
				}
				*last = *first
			},
			code: "IRV002",
		},
		{
			// One of two owned writes of an iteration moved to another
			// portion: the other keeps the phase legal, and without the
			// indirection arrays only ownership tells.
			name: "second owned write in a non-owning phase",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				for ph := range s.Phases {
					p := &s.Phases[ph]
					for j := range p.Iters {
						if int(p.Ind[0][j]) < cfg.NumElems && int(p.Ind[1][j]) < cfg.NumElems {
							p.Ind[1][j] = (p.Ind[1][j] + int32(cfg.PortionSize())) % int32(cfg.NumElems)
							return
						}
					}
				}
				t.Fatal("no iteration with two owned writes")
			},
			code: "IRV004", reread: true,
		},
		{
			// A fresh slot drained into an owned element but never written.
			name: "copy pair for an unwritten slot",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph := findCopy(t, s)
				p := &s.Phases[ph]
				p.Copies = append(p.Copies, CopyPair{Elem: p.Copies[0].Elem, Buf: int32(s.LocalLen())})
				s.BufLen++
			},
			code: "IRV005",
		},
		{
			// Cyclic at P = 4: 200 has 196's residue, so only the range
			// check tells them apart.
			name: "iteration past the end",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				for ph := range s.Phases {
					for j, it := range s.Phases[ph].Iters {
						if it == 196 {
							s.Phases[ph].Iters[j] = 200
							return
						}
					}
				}
				t.Fatal("iteration 196 not on proc 0")
			},
			code: "IRV002", reread: true,
		},
		{
			// Element -3 is in portion 0 by integer division.
			name: "negative target",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				ph, r, j := findOwned(t, cfg, s)
				s.Phases[ph].Ind[r][j] = -3
			},
			code: "IRV004", reread: true,
		},
		{
			// An owned write moved to the slot that buffers the same
			// element: the slot is drained at the start of this phase, so
			// the contribution would wait a sweep.
			name: "buffered write after its drain",
			corrupt: func(t *testing.T, cfg Config, s *Schedule, ind [][]int32) {
				for ph := range s.Phases {
					p := &s.Phases[ph]
					for _, cp := range p.Copies {
						for r := range p.Ind {
							for j, x := range p.Ind[r] {
								if x == cp.Elem {
									p.Ind[r][j] = cp.Buf
									return
								}
							}
						}
					}
				}
				t.Fatal("no owned write to a buffered element")
			},
			code: "IRV004",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg, s, ind := freshSchedule(t)
			tc.corrupt(t, cfg, s, ind)
			wantCode(t, s.Check(ind...), tc.code)
			scheds, err := LightAll(cfg, nil, ind...)
			if err != nil {
				t.Fatal(err)
			}
			scheds[0] = s
			wantCode(t, CheckSet(cfg, scheds, ind...), tc.code)
			if tc.reread {
				var buf bytes.Buffer
				if _, err := s.WriteTo(&buf); err != nil {
					t.Fatal(err)
				}
				_, err := ReadSchedule(&buf)
				wantCode(t, err, tc.code)
			}
		})
	}
}

// wantCode fails unless err is a *Violation with the given code.
func wantCode(t *testing.T, err error, code string) {
	t.Helper()
	var v *Violation
	if !errors.As(err, &v) || v.Code != code {
		t.Fatalf("got %v, want a %s violation", err, code)
	}
}

// TestCheckBoundsClaimedSizes: a few bytes whose header claims 2^24
// iterations or buffer slots are rejected without Check allocating for
// the claim. (The reader accepts claims up to 2^31; a smaller one keeps a
// regression from allocating gigabytes.)
func TestCheckBoundsClaimedSizes(t *testing.T) {
	for _, c := range []struct {
		name string
		s    Schedule
		code string
	}{
		{"iterations", Schedule{Cfg: Config{P: 1, K: 1, NumIters: 1 << 24, NumElems: 1}, NumRef: 1}, "IRV002"},
		{"buffer slots", Schedule{Cfg: Config{P: 1, K: 1, NumIters: 0, NumElems: 1}, NumRef: 2, BufLen: 1 << 24}, "IRV001"},
	} {
		c.s.Phases = []PhaseProgram{{Ind: make([][]int32, c.s.NumRef)}}
		var buf bytes.Buffer
		if _, err := c.s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadSchedule(&buf)
		runtime.ReadMemStats(&after)
		wantCode(t, err, c.code)
		if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
			t.Fatalf("%s: reading a %d-byte schedule allocated %d bytes", c.name, buf.Len(), n)
		}
	}
}
