package rts

import (
	"fmt"

	"irred/internal/earth"
	"irred/internal/inspector"
	"irred/internal/machine"
	"irred/internal/sim"
)

// SimOptions controls a simulated run.
type SimOptions struct {
	// Steps is the number of timesteps to report (the paper uses 100).
	Steps int
	// WarmSteps timesteps are simulated but excluded from the steady-state
	// rate; MeasureSteps are simulated and measured. Totals for Steps are
	// extrapolated from the steady-state rate, which is exact for static
	// indirection arrays since every steady timestep is identical.
	WarmSteps    int
	MeasureSteps int

	Cost machine.CostModel
	Net  machine.Network

	// Trace, when non-nil, records fiber spans and messages of the
	// simulated run (phase fibers are labelled "t<step>/ph<phase>", update
	// fibers "t<step>/upd") for Gantt rendering.
	Trace *earth.Trace

	// Exec, when non-nil, attaches real computation to the simulated
	// fibers; the run then both times the program and produces data,
	// validating the fiber graph's dataflow. Note that extrapolated steps
	// beyond the simulated window are not computed: use Steps <=
	// WarmSteps+MeasureSteps for exact multi-step results.
	Exec *SimExec
}

func (o *SimOptions) fill() {
	if o.Steps <= 0 {
		o.Steps = 100
	}
	if o.WarmSteps <= 0 {
		o.WarmSteps = 2
	}
	if o.MeasureSteps <= 0 {
		o.MeasureSteps = 3
	}
	if o.Cost.ClockHz == 0 {
		o.Cost = machine.MANNA()
	}
	if o.Net.CyclesPerByte == 0 && o.Net.Latency == 0 {
		o.Net = machine.MANNANet()
	}
}

// SimResult reports a simulated parallel execution.
type SimResult struct {
	P, K  int
	Dist  inspector.Dist
	Steps int

	Cycles          sim.Time // total for Steps timesteps, inspector included once
	Seconds         float64  // Cycles under the machine clock
	PerStep         sim.Time // steady-state cycles per timestep
	InspectorCycles sim.Time // one-time runtime preprocessing (max over procs)

	MsgsPerStep  float64 // network messages per timestep, whole machine
	BytesPerStep float64 // network bytes per timestep, whole machine

	MaxPhaseIters int     // worst per-phase iteration count (load imbalance)
	AvgPhaseIters float64 // mean per-phase iteration count
	EUUtilization float64 // busy fraction of the busiest execution unit
	SUUtilization float64 // busy fraction of the busiest synchronization unit
}

// RunSim executes the loop's phase program on a simulated EARTH machine and
// returns timing and traffic statistics.
func RunSim(l *Loop, opt SimOptions) (*SimResult, error) {
	opt.fill()
	scheds, err := l.Schedules()
	if err != nil {
		return nil, err
	}
	return runSimScheds(l, scheds, opt)
}

func runSimScheds(l *Loop, scheds []*inspector.Schedule, opt SimOptions) (*SimResult, error) {
	cfg := l.Cfg
	P, kp := cfg.P, cfg.NumPhases()
	tsim := opt.WarmSteps + opt.MeasureSteps
	if opt.Steps < tsim {
		tsim = opt.Steps
		if opt.WarmSteps >= tsim {
			opt.WarmSteps = tsim - 1
			if opt.WarmSteps < 0 {
				opt.WarmSteps = 0
			}
		}
		opt.MeasureSteps = tsim - opt.WarmSteps
	}

	// Per-processor phase and update costs, plus inspector cost.
	phaseCost := make([][]sim.Time, P)
	updCost := make([]sim.Time, P)
	var inspCycles sim.Time
	for p := 0; p < P; p++ {
		phaseCost[p], updCost[p] = PhaseCosts(opt.Cost, l, scheds[p])
		if c := InspectorCost(opt.Cost, l, scheds[p]); c > inspCycles {
			inspCycles = c
		}
	}

	m := earth.New(P, opt.Cost, opt.Net)
	if opt.Trace != nil {
		m.SetTrace(opt.Trace)
	}
	if opt.Exec != nil {
		opt.Exec.prepare(l, scheds)
	}
	portionBytes := l.PortionBytes()
	bcast := l.Cost.BcastComp > 0 && P > 1

	homeBytes := make([]int, P)
	for p := 0; p < P; p++ {
		lo, _ := cfg.PortionBounds(cfg.PortionAt(p, 0))
		_, hi := cfg.PortionBounds(cfg.PortionAt(p, cfg.K-1))
		homeBytes[p] = (hi - lo) * l.Cost.BcastComp * 8
	}

	// Build the fiber program: F[t][p][ph] phase fibers, U[t][p] update
	// fibers, with dataflow slots wiring chains, portion arrivals, home
	// returns and broadcasts.
	type cell struct {
		fiber *earth.Fiber
		slot  *earth.Slot
	}
	F := make([][][]cell, tsim)
	U := make([][]cell, tsim)
	stepEnd := make([]sim.Time, tsim)

	for t := 0; t < tsim; t++ {
		F[t] = make([][]cell, P)
		U[t] = make([]cell, P)
		for p := 0; p < P; p++ {
			F[t][p] = make([]cell, kp)
		}
	}

	// Create fibers and slots top-down so bodies can close over them; bodies
	// only dereference cells at run time, when everything exists.
	for t := 0; t < tsim; t++ {
		for p := 0; p < P; p++ {
			node := m.Node(p)
			for ph := 0; ph < kp; ph++ {
				t, p, ph := t, p, ph
				body := func(ctx *earth.Ctx) {
					if opt.Exec != nil {
						opt.Exec.runPhase(l, scheds[p], p, ph)
					}
					// Chain to the next fiber on this node.
					if ph+1 < kp {
						ctx.Sync(F[t][p][ph+1].slot)
					} else {
						ctx.Sync(U[t][p].slot)
					}
					// Rotate the just-owned portion to processor p-1. The
					// last k phases carry p-1's home portions, which join
					// p-1's update instead of a phase fiber.
					dst := (p - 1 + P) % P
					if ph+cfg.K < kp {
						ctx.Send(m.Node(dst), portionBytes, F[t][dst][ph+cfg.K].slot, nil)
					} else {
						ctx.Send(m.Node(dst), portionBytes, U[t][dst].slot, nil)
					}
				}
				f := node.NewFiber(phaseCost[p][ph], body)
				f.Label = fmt.Sprintf("t%d/ph%d", t, ph)
				// Slot count: chain (except the very first fiber of t=0)
				// + portion arrival for phases >= k + broadcast arrivals
				// into phase 0 of steps > 0.
				count := 1
				if t == 0 && ph == 0 {
					count = 0
				}
				if ph >= cfg.K {
					count++
				}
				if ph == 0 && t > 0 && bcast {
					count += P - 1
				}
				F[t][p][ph] = cell{fiber: f, slot: node.NewSlot(count, f)}
			}
			// Update fiber.
			t, p := t, p
			ubody := func(ctx *earth.Ctx) {
				if opt.Exec != nil && opt.Exec.Update != nil {
					opt.Exec.Update(p, t)
				}
				if at := ctx.Time(); at > stepEnd[t] {
					stepEnd[t] = at
				}
				if t+1 < tsim {
					ctx.Sync(F[t+1][p][0].slot)
					if bcast {
						for q := 0; q < P; q++ {
							if q != p {
								ctx.Send(m.Node(q), homeBytes[p], F[t+1][q][0].slot, nil)
							}
						}
					}
				}
			}
			uf := m.Node(p).NewFiber(updCost[p], ubody)
			uf.Label = fmt.Sprintf("t%d/upd", t)
			U[t][p] = cell{fiber: uf, slot: m.Node(p).NewSlot(1+cfg.K, uf)}
		}
	}

	m.Run()
	for t := 0; t < tsim; t++ {
		// Every update fiber must have run; a zero here means deadlock.
		if stepEnd[t] == 0 {
			return nil, fmt.Errorf("rts: simulation deadlocked at timestep %d", t)
		}
	}

	res := &SimResult{P: P, K: cfg.K, Dist: cfg.Dist, Steps: opt.Steps, InspectorCycles: inspCycles}
	warmEnd := sim.Time(0)
	if opt.WarmSteps > 0 {
		warmEnd = stepEnd[opt.WarmSteps-1]
	}
	res.PerStep = (stepEnd[tsim-1] - warmEnd) / sim.Time(opt.MeasureSteps)
	res.Cycles = warmEnd + res.PerStep*sim.Time(opt.Steps-opt.WarmSteps) + inspCycles
	res.Seconds = opt.Cost.Seconds(res.Cycles)

	var msgs, bytes uint64
	var euBusy, suBusy sim.Time
	for p := 0; p < P; p++ {
		n := m.Node(p)
		msgs += n.MsgsSent
		bytes += n.BytesSent
		if n.EU.Busy > euBusy {
			euBusy = n.EU.Busy
		}
		if n.SU.Busy > suBusy {
			suBusy = n.SU.Busy
		}
	}
	res.MsgsPerStep = float64(msgs) / float64(tsim)
	res.BytesPerStep = float64(bytes) / float64(tsim)
	if end := stepEnd[tsim-1]; end > 0 {
		res.EUUtilization = float64(euBusy) / float64(end)
		res.SUUtilization = float64(suBusy) / float64(end)
	}

	totIters := 0
	for p := 0; p < P; p++ {
		if n := scheds[p].MaxPhaseIters(); n > res.MaxPhaseIters {
			res.MaxPhaseIters = n
		}
		totIters += scheds[p].NumIters()
	}
	res.AvgPhaseIters = float64(totIters) / float64(P*kp)
	return res, nil
}

// RunSequentialSim reports the simulated sequential execution of the loop
// for opt.Steps timesteps on one processor, the baseline the paper divides
// by for absolute speedups.
func RunSequentialSim(l *Loop, opt SimOptions) (sim.Time, float64) {
	opt.fill()
	per := SequentialCost(opt.Cost, l)
	total := per * sim.Time(opt.Steps)
	return total, opt.Cost.Seconds(total)
}
