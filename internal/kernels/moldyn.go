package kernels

import (
	"irred/internal/inspector"
	"irred/internal/moldyn"
	"irred/internal/rts"
)

// Moldyn is the molecular-dynamics kernel (derived from the paper's
// reference [14]): the non-bonded force loop sweeps the interaction list,
// computes a Lennard-Jones-style force from the two molecules' positions,
// and accumulates equal and opposite contributions into both molecules'
// force vectors. A regular per-molecule loop integrates velocities and
// positions.
type Moldyn struct {
	Sys *moldyn.System
	Dt  float64
}

// moldynCost: the LJ force evaluation (~45 flops with the minimum-image
// logic), two 3-component position reads, a 3-component force reduction,
// the leapfrog update, and a per-step position refresh.
var moldynCost = rts.KernelCost{
	Flops:               45,
	IntOps:              8,
	IterArrays:          0,
	NodeArrays:          3,
	Comp:                3,
	UpdateFlopsPerElem:  12,
	UpdateArraysPerElem: 9,
	BcastComp:           3,
}

// NewMoldyn wraps a generated system.
func NewMoldyn(sys *moldyn.System) *Moldyn {
	return &Moldyn{Sys: sys, Dt: 1e-4}
}

// ljForce computes the pair force on molecule a due to b (minimum image)
// into out[0:3]. Shared by the sequential and parallel paths.
func ljForce(pos []float64, box float64, a, b int, out []float64) {
	var d [3]float64
	var r2 float64
	for c := 0; c < 3; c++ {
		dd := pos[3*a+c] - pos[3*b+c]
		if dd > box/2 {
			dd -= box
		} else if dd < -box/2 {
			dd += box
		}
		d[c] = dd
		r2 += dd * dd
	}
	if r2 < 1e-12 {
		out[0], out[1], out[2] = 0, 0, 0
		return
	}
	inv2 := 1.0 / r2
	inv6 := inv2 * inv2 * inv2
	f := 24 * inv2 * inv6 * (2*inv6 - 1) // LJ with sigma = epsilon = 1
	for c := 0; c < 3; c++ {
		out[c] = f * d[c]
	}
}

// Loop describes the force sweep to the runtime.
func (m *Moldyn) Loop(p, k int, dist inspector.Dist) *rts.Loop {
	return &rts.Loop{
		Cfg: inspector.Config{
			P: p, K: k,
			NumIters: m.Sys.NumInteractions(),
			NumElems: m.Sys.N,
			Dist:     dist,
		},
		Mode: rts.Reduce,
		Ind:  [][]int32{m.Sys.I1, m.Sys.I2},
		Cost: moldynCost,
	}
}

// SequentialStep runs one reference timestep over pos/vel with force
// accumulator f (zeroed on entry and exit).
func (m *Moldyn) SequentialStep(pos, vel, f []float64) {
	var fv [3]float64
	for i := range m.Sys.I1 {
		a, b := int(m.Sys.I1[i]), int(m.Sys.I2[i])
		ljForce(pos, m.Sys.Box, a, b, fv[:])
		for c := 0; c < 3; c++ {
			f[3*a+c] += fv[c]
			f[3*b+c] -= fv[c]
		}
	}
	for j := range pos {
		vel[j] += m.Dt * f[j]
		pos[j] += m.Dt * vel[j]
		f[j] = 0
	}
}

// RunSequential advances copies of the system state for steps timesteps
// and returns final positions and velocities.
func (m *Moldyn) RunSequential(steps int) (pos, vel []float64) {
	pos = append([]float64(nil), m.Sys.Pos...)
	vel = append([]float64(nil), m.Sys.Vel...)
	f := make([]float64, len(pos))
	for s := 0; s < steps; s++ {
		m.SequentialStep(pos, vel, f)
	}
	return pos, vel
}

// Oracle is RunSequential's positions.
func (m *Moldyn) Oracle(steps int) []float64 {
	pos, _ := m.RunSequential(steps)
	return pos
}

// NewNative wires the kernel onto the native engine. The Native's X is the
// force array; positions and velocities live in the returned slices.
func (m *Moldyn) NewNative(p, k int, dist inspector.Dist) (*rts.Native, []float64, []float64, error) {
	return m.native(nil, p, k, dist)
}

// NewNativeFrom is NewNative over pre-built schedules (e.g. served from a
// schedule cache); a nil scheds runs the LightInspector as NewNative does.
// The returned slice is the positions.
func (m *Moldyn) NewNativeFrom(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, []float64, error) {
	n, pos, _, err := m.native(scheds, p, k, dist)
	return n, pos, err
}

// native is NewNative over scheds, nil for none.
func (m *Moldyn) native(scheds []*inspector.Schedule, p, k int, dist inspector.Dist) (*rts.Native, []float64, []float64, error) {
	l := m.Loop(p, k, dist)
	n, err := newNative(l, scheds)
	if err != nil {
		return nil, nil, nil, err
	}
	pos := append([]float64(nil), m.Sys.Pos...)
	vel := append([]float64(nil), m.Sys.Vel...)
	n.Contribs = func(_, i int, out []float64) {
		a, b := int(m.Sys.I1[i]), int(m.Sys.I2[i])
		var fv [3]float64
		ljForce(pos, m.Sys.Box, a, b, fv[:])
		for c := 0; c < 3; c++ {
			out[c] = fv[c]
			out[3+c] = -fv[c]
		}
	}
	// The block form the engine drives: the pair force goes straight into
	// the block, no closure call or copy per interaction.
	n.ContribBlock = func(_ int, iters []int32, out []float64) {
		i1, i2, box := m.Sys.I1, m.Sys.I2, m.Sys.Box
		for j, it := range iters {
			o := out[6*j : 6*j+6 : 6*j+6]
			ljForce(pos, box, int(i1[it]), int(i2[it]), o[:3])
			o[3], o[4], o[5] = -o[0], -o[1], -o[2]
		}
	}
	n.Update = func(proc, step int) {
		lo, _ := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, 0))
		_, hi := l.Cfg.PortionBounds(l.Cfg.PortionAt(proc, l.Cfg.K-1))
		for mol := lo; mol < hi; mol++ {
			for c := 0; c < 3; c++ {
				j := 3*mol + c
				vel[j] += m.Dt * n.X[j]
				pos[j] += m.Dt * vel[j]
				n.X[j] = 0
			}
		}
	}
	return n, pos, vel, nil
}
