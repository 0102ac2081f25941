package lint

import (
	"errors"
	"math/rand"
	"testing"

	"irred/internal/inspector"
	"irred/internal/kernels"
	"irred/internal/mesh"
	"irred/internal/moldyn"
	"irred/internal/rts"
	"irred/internal/sparse"
)

// These are the acceptance tests of the IRV codes irredlint -codes lists:
// inspector.CheckSet, the one schedule checker, must pass every schedule
// the LightInspector builds and reject every planted fault with its code.

func mustClean(t *testing.T, name string, l *rts.Loop) {
	t.Helper()
	scheds, err := l.Schedules()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if err := inspector.CheckSet(l.Cfg, scheds, l.Ind...); err != nil {
		t.Fatalf("%s: CheckSet rejected a LightInspector schedule set: %v", name, err)
	}
}

// TestVerifyKernelSchedules is the acceptance sweep: every LightInspector
// schedule set produced for the mvm/euler/moldyn kernels across
// P ∈ {2,4,8}, k ∈ {1,2,4} and both distributions must check clean.
func TestVerifyKernelSchedules(t *testing.T) {
	msh := mesh.Generate(400, 2400, 1)
	euler := kernels.NewEuler(msh, 2)
	sys := moldyn.Generate(4, 1, 0.02, 3)
	md := kernels.NewMoldyn(sys)
	mvm := kernels.NewMVM(sparse.Generate(sparse.Class{Name: "t", N: 300, NNZ: 3000}, 0))

	for _, p := range []int{2, 4, 8} {
		for _, k := range []int{1, 2, 4} {
			for _, d := range []inspector.Dist{inspector.Block, inspector.Cyclic} {
				mustClean(t, "euler", euler.Loop(p, k, d))
				mustClean(t, "moldyn", md.Loop(p, k, d))
				mustClean(t, "mvm", mvm.Loop(p, k, d))
			}
		}
	}
}

// corruptCase builds fresh schedules for a random loop — smallLoop unless
// gather says the one-reference gatherLoop — applies one corruption, and
// asserts CheckSet reports the expected code.
type corruptCase struct {
	name    string
	code    string
	gather  bool
	corrupt func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule
}

func smallLoop() (inspector.Config, [][]int32) {
	return randomLoop(inspector.Config{P: 4, K: 2, NumIters: 96, NumElems: 64, Dist: inspector.Cyclic}, 2, 11)
}

// gatherLoop is the shape of a gather-mode loop: one reference, so no
// buffer slots.
func gatherLoop() (inspector.Config, [][]int32) {
	return randomLoop(inspector.Config{P: 3, K: 2, NumIters: 400, NumElems: 60, Dist: inspector.Cyclic}, 1, 47)
}

func randomLoop(cfg inspector.Config, refs int, seed int64) (inspector.Config, [][]int32) {
	rng := rand.New(rand.NewSource(seed))
	ind := make([][]int32, refs)
	for r := range ind {
		ind[r] = make([]int32, cfg.NumIters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(cfg.NumElems))
		}
	}
	return cfg, ind
}

func buildScheds(t *testing.T, cfg inspector.Config, ind [][]int32) []*inspector.Schedule {
	t.Helper()
	scheds := make([]*inspector.Schedule, cfg.P)
	for p := 0; p < cfg.P; p++ {
		s, err := inspector.Light(cfg, p, ind...)
		if err != nil {
			t.Fatal(err)
		}
		scheds[p] = s
	}
	return scheds
}

// findBufferRef locates a phase entry rewritten to a buffer slot on proc p.
func findBufferRef(cfg inspector.Config, s *inspector.Schedule) (ph, r, j int, ok bool) {
	for ph := range s.Phases {
		prog := &s.Phases[ph]
		for r := range prog.Ind {
			for j, x := range prog.Ind[r] {
				if int(x) >= cfg.NumElems {
					return ph, r, j, true
				}
			}
		}
	}
	return 0, 0, 0, false
}

func TestVerifyRejectsCorruptedSchedules(t *testing.T) {
	cases := []corruptCase{
		{
			// An iteration moved to a phase in which it owns none of its
			// reduction elements.
			name: "iteration in unowned phase", code: "IRV003",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				s := scheds[0]
				from := -1
				for ph := range s.Phases {
					if len(s.Phases[ph].Iters) > 0 {
						from = ph
						break
					}
				}
				if from < 0 {
					t.Fatal("no scheduled iterations")
				}
				to := (from + 1) % len(s.Phases)
				fp, tp := &s.Phases[from], &s.Phases[to]
				tp.Iters = append(tp.Iters, fp.Iters[0])
				fp.Iters = fp.Iters[1:]
				for r := range fp.Ind {
					tp.Ind[r] = append(tp.Ind[r], fp.Ind[r][0])
					fp.Ind[r] = fp.Ind[r][1:]
				}
				return scheds
			},
		},
		{
			// The same iteration executed twice.
			name: "duplicated iteration", code: "IRV002",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				s := scheds[1]
				for ph := range s.Phases {
					p := &s.Phases[ph]
					if len(p.Iters) > 0 {
						p.Iters = append(p.Iters, p.Iters[0])
						for r := range p.Ind {
							p.Ind[r] = append(p.Ind[r], p.Ind[r][0])
						}
						return scheds
					}
				}
				t.Fatal("no scheduled iterations")
				return nil
			},
		},
		{
			// An iteration dropped entirely.
			name: "missing iteration", code: "IRV002",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				s := scheds[2]
				for ph := range s.Phases {
					p := &s.Phases[ph]
					if len(p.Iters) > 0 {
						p.Iters = p.Iters[1:]
						for r := range p.Ind {
							p.Ind[r] = p.Ind[r][1:]
						}
						return scheds
					}
				}
				t.Fatal("no scheduled iterations")
				return nil
			},
		},
		{
			// A direct write redirected to an element owned in another phase.
			name: "write to non-owned element", code: "IRV004",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				s := scheds[0]
				for ph := range s.Phases {
					prog := &s.Phases[ph]
					for r := range prog.Ind {
						for j, x := range prog.Ind[r] {
							if int(x) < cfg.NumElems {
								prog.Ind[r][j] = (x + int32(cfg.PortionSize())) % int32(cfg.NumElems)
								return scheds
							}
						}
					}
				}
				t.Fatal("no owned write found")
				return nil
			},
		},
		{
			// Two different elements funnelled into one buffer slot.
			name: "duplicate buffer slot use", code: "IRV004",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				for _, s := range scheds {
					if s.BufLen < 2 {
						continue
					}
					ph, r, j, ok := findBufferRef(cfg, s)
					if !ok {
						continue
					}
					// Redirect this reference to a different slot, which
					// buffers a different element.
					slot := s.Phases[ph].Ind[r][j]
					other := int32(cfg.NumElems) + (slot-int32(cfg.NumElems)+1)%int32(s.BufLen)
					s.Phases[ph].Ind[r][j] = other
					return scheds
				}
				t.Skip("no processor with two buffer slots")
				return nil
			},
		},
		{
			// A copy-loop entry moved to a phase where the element's portion
			// has not arrived.
			name: "copy entry in unowned phase", code: "IRV005",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				for _, s := range scheds {
					for ph := range s.Phases {
						p := &s.Phases[ph]
						if len(p.Copies) == 0 {
							continue
						}
						to := (ph + 1) % len(s.Phases)
						s.Phases[to].Copies = append(s.Phases[to].Copies, p.Copies[0])
						p.Copies = p.Copies[1:]
						return scheds
					}
				}
				t.Fatal("no copy entries found")
				return nil
			},
		},
		{
			// A referenced buffer slot never drained.
			name: "missing drain", code: "IRV005",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				for _, s := range scheds {
					for ph := range s.Phases {
						p := &s.Phases[ph]
						if len(p.Copies) > 0 {
							p.Copies = p.Copies[1:]
							return scheds
						}
					}
				}
				t.Fatal("no copy entries found")
				return nil
			},
		},
		{
			// A buffer slot drained twice in one sweep.
			name: "duplicate drain", code: "IRV005",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				for _, s := range scheds {
					for ph := range s.Phases {
						p := &s.Phases[ph]
						if len(p.Copies) > 0 {
							p.Copies = append(p.Copies, p.Copies[0])
							return scheds
						}
					}
				}
				t.Fatal("no copy entries found")
				return nil
			},
		},
		{
			// Two processors writing one element in the same phase: the
			// second writes outside the portion it owns.
			name: "cross-processor write conflict", code: "IRV004",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				// Find an owned write on proc 0 and redirect a same-phase
				// write on another proc to the same element.
				s0 := scheds[0]
				for ph := range s0.Phases {
					prog := &s0.Phases[ph]
					for r := range prog.Ind {
						for _, x := range prog.Ind[r] {
							if int(x) >= cfg.NumElems {
								continue
							}
							for _, s := range scheds[1:] {
								q := &s.Phases[ph]
								for rr := range q.Ind {
									for jj, y := range q.Ind[rr] {
										if int(y) < cfg.NumElems {
											q.Ind[rr][jj] = x
											return scheds
										}
									}
								}
							}
						}
					}
				}
				t.Fatal("no conflicting pair found")
				return nil
			},
		},
		{
			// Schedule set shorter than the machine.
			name: "missing processor", code: "IRV001",
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				return scheds[:len(scheds)-1]
			},
		},
		{
			// A gather read moved to an element whose portion is owned in
			// another phase.
			name: "gather from non-owned element", code: "IRV004", gather: true,
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				prog := &scheds[1].Phases[1]
				j := len(prog.Iters) / 2
				prog.Ind[0][j] = (prog.Ind[0][j] + int32(cfg.PortionSize())) % int32(cfg.NumElems)
				return scheds
			},
		},
		{
			// A gather read one past the rotated array.
			name: "gather outside the rotated array", code: "IRV004", gather: true,
			corrupt: func(t *testing.T, cfg inspector.Config, scheds []*inspector.Schedule) []*inspector.Schedule {
				prog := &scheds[1].Phases[1]
				prog.Ind[0][len(prog.Iters)/2] = int32(cfg.NumElems)
				return scheds
			},
		},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			loop := smallLoop
			if tc.gather {
				loop = gatherLoop
			}
			cfg, ind := loop()
			scheds := buildScheds(t, cfg, ind)
			if err := inspector.CheckSet(cfg, scheds, ind...); err != nil {
				t.Fatalf("pristine schedules rejected: %v", err)
			}
			err := inspector.CheckSet(cfg, tc.corrupt(t, cfg, scheds), ind...)
			var v *inspector.Violation
			if !errors.As(err, &v) || v.Code != tc.code {
				t.Fatalf("CheckSet = %v, want a %s violation", err, tc.code)
			}
		})
	}
}

// TestVerifyWithoutOriginals: CheckSet still works without the original
// indirection arrays (origin checks are skipped, structure still checked).
func TestVerifyWithoutOriginals(t *testing.T) {
	cfg, ind := smallLoop()
	if err := inspector.CheckSet(cfg, buildScheds(t, cfg, ind)); err != nil {
		t.Fatalf("structural check failed: %v", err)
	}
}
