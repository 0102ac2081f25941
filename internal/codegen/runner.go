package codegen

import (
	"fmt"

	"irred/internal/inspector"
	"irred/internal/interp"
	"irred/internal/rts"
)

// Runner executes a whole compiled program — prologues, irregular reduction
// loops on the phase runtime, and regular loops — repeatedly against one
// environment, the way a timestep loop drives the paper's kernels. The
// LightInspector schedules and the bytecode for every irregular plan are
// built once and reused across steps, matching the paper's methodology
// (inspector executed once per run).
type Runner struct {
	Unit  *Unit
	Env   *interp.Env
	procs int

	plans       []runnerPlan
	inspections int
	reuses      int
}

type runnerPlan struct {
	plan   *Plan
	native *rts.Native
}

// RunnerOpts controls schedule sharing across the program's plans.
type RunnerOpts struct {
	// NoReuse disables the reuse license: every irregular plan runs its
	// own inspection, PR-6-era behavior. The difftest oracle flips this
	// to prove reuse-on and reuse-off agree bitwise.
	NoReuse bool
	// VerifyReuse hard-errors when a granted plan's content key misses
	// the shared slot — evidence of a stale or forged grant — instead of
	// soundly falling back to a fresh inspection.
	VerifyReuse bool
}

// NewRunner prepares every plan for repeated execution at the given
// machine shape, sharing inspector schedules across plans the unit's
// reuse license proves equivalent. The environment must already have
// all source arrays bound (Alloc'd).
func (u *Unit) NewRunner(env *interp.Env, procs, k int, dist inspector.Dist) (*Runner, error) {
	return u.NewRunnerOpts(env, procs, k, dist, RunnerOpts{})
}

// NewRunnerOpts is NewRunner with explicit reuse control.
//
// Reuse is consumed proof-first, applied content-addressed: only plans
// the verified license grants consult the shared slots, and a slot is
// keyed by inspector.ScheduleKey over the plan's concrete Config and
// indirection columns — so even a license that somehow survived Verify
// while wrong cannot attach a foreign schedule to a loop; the key
// mismatch surfaces as a fresh inspection (or a hard error under
// VerifyReuse).
func (u *Unit) NewRunnerOpts(env *interp.Env, procs, k int, dist inspector.Dist, opts RunnerOpts) (*Runner, error) {
	if procs <= 0 || k <= 0 {
		return nil, fmt.Errorf("codegen: runner needs procs >= 1 and k >= 1")
	}
	reuse := u.Reuse
	if opts.NoReuse {
		reuse = nil
	}
	if reuse != nil {
		if err := reuse.Verify(); err != nil {
			return nil, fmt.Errorf("codegen: refusing schedule reuse: %w", err)
		}
	}
	r := &Runner{Unit: u, Env: env, procs: procs}
	slots := map[string][]*inspector.Schedule{}
	for i, p := range u.Plans {
		rp := runnerPlan{plan: p}
		if p.Kind == Irregular {
			loop, block, err := p.BuildLoopOpts(env, procs, k, dist, BuildOpts{})
			if err != nil {
				return nil, err
			}
			key := inspector.ScheduleKey(loop.Cfg, loop.Ind...)
			var scheds []*inspector.Schedule
			if reuse != nil && reuse.ReuseOf(i) >= 0 {
				if shared, ok := slots[key]; ok {
					scheds = shared
					r.reuses++
				} else if opts.VerifyReuse {
					return nil, fmt.Errorf("codegen: %s: reuse license grants loop %d the schedules of loop %d, but the content key matches no inspected slot — the grant is stale or forged",
						p.Name, i, reuse.ReuseOf(i))
				}
			}
			if scheds == nil {
				scheds, err = loop.Schedules()
				if err != nil {
					return nil, err
				}
				r.inspections++
			}
			slots[key] = scheds
			nat, err := rts.NewNativeFrom(loop, scheds)
			if err != nil {
				return nil, err
			}
			nat.ContribBlock = block
			rp.native = nat
		}
		r.plans = append(r.plans, rp)
	}
	return r, nil
}

// Inspections reports how many LightInspector passes the runner paid
// across all irregular plans; Reuses reports how many plans executed
// against a shared schedule slot instead. Their sum is the number of
// irregular plans.
func (r *Runner) Inspections() int { return r.inspections }

// Reuses reports the number of irregular plans served from a shared
// schedule slot under the unit's reuse license.
func (r *Runner) Reuses() int { return r.reuses }

// Step executes the whole program once: each plan in order, irregular
// loops on the phase runtime (accumulating into the environment's
// reduction arrays), regular loops via the interpreter.
func (r *Runner) Step() error {
	for _, rp := range r.plans {
		if rp.native == nil {
			if err := r.Env.RunLoop(rp.plan.Loop); err != nil {
				return err
			}
			continue
		}
		// Load current reduction-array contents, sweep, write back.
		if err := rp.plan.Pack(r.Env, rp.native.X); err != nil {
			return err
		}
		if err := rp.native.Run(1); err != nil {
			return err
		}
		if err := rp.plan.Scatter(r.Env, rp.native.X); err != nil {
			return err
		}
	}
	return nil
}

// Run executes steps timesteps.
func (r *Runner) Run(steps int) error {
	for s := 0; s < steps; s++ {
		if err := r.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Pack loads the environment's reduction arrays into the runtime's rotated
// array (the inverse of Scatter), so a sweep accumulates on top of the
// current values.
func (p *Plan) Pack(env *interp.Env, x []float64) error {
	arrays := p.ReductionArrays()
	comp := len(arrays)
	for c, a := range arrays {
		data, ok := env.Floats[a]
		if !ok {
			return fmt.Errorf("codegen: array %q unbound", a)
		}
		for e := range data {
			x[e*comp+c] = data[e]
		}
	}
	return nil
}
