package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// numSlices is how many wall-clock slices a measured window is cut into.
// Every throughput and latency metric is the median over the slices, so
// slices stolen by a neighbour on a shared host move nothing.
const numSlices = 32

// metric is one reported number. Slices, Q1, Q3 and N back the value in
// the -out file; stdout and the contract line carry only value and unit.
type metric struct {
	Name     string    `json:"name"`
	Value    float64   `json:"value"`
	Unit     string    `json:"unit"`
	Q1       float64   `json:"q1,omitempty"`
	Q3       float64   `json:"q3,omitempty"`
	N        int       `json:"n,omitempty"` // samples behind the value
	Slices   []float64 `json:"slices,omitempty"`
	Computed bool      `json:"computed,omitempty"` // derived from sizes or shape, not timed
}

// sample is one completed operation of a closed-loop client, timed from
// the start of its window.
type sample struct {
	start, end time.Duration
	units      int // sweeps, jobs or deltas the operation completed; 0 when it failed
	err        error
}

// window is what one closed-loop measurement produced. cuts are the
// numSlices+1 slice boundaries.
type window struct {
	cuts    []time.Duration
	samples []sample
}

// equalCuts slices dur into numSlices equal parts.
func equalCuts(dur time.Duration) []time.Duration {
	cuts := make([]time.Duration, numSlices+1)
	for i := range cuts {
		cuts[i] = dur * time.Duration(i) / numSlices
	}
	return cuts
}

// drive runs `clients` closed-loop clients for dur: each issues its next
// operation only after the previous one returned. op reports how many
// units of work it completed and verified. Operations in flight at the
// deadline run to completion; only their share inside the window counts.
func drive(clients int, dur time.Duration, op func(client, seq int) (units int, err error)) *window {
	per := make([][]sample, clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for seq := 0; ; seq++ {
				start := time.Since(t0)
				if start >= dur {
					return
				}
				units, err := op(c, seq)
				if err != nil {
					units = 0
				}
				per[c] = append(per[c], sample{start: start, end: time.Since(t0), units: units, err: err})
			}
		}(c)
	}
	wg.Wait()
	w := &window{cuts: equalCuts(dur)}
	for _, s := range per {
		w.samples = append(w.samples, s...)
	}
	return w
}

// counts reports operations attempted and failed, and the first failure.
func (w *window) counts() (attempted, failed int, first error) {
	for _, s := range w.samples {
		attempted++
		if s.err != nil {
			failed++
			if first == nil {
				first = s.err
			}
		}
	}
	return
}

// throughput is units per second, median over slices. An operation's units
// are credited to each slice by the share of its run time that falls
// inside it, so a long operation straddling a cut does not make one slice
// look idle and the next one fast.
func (w *window) throughput(name string) metric {
	vals := make([]float64, numSlices)
	units := 0
	for _, s := range w.samples {
		if s.units == 0 || s.end <= s.start {
			continue
		}
		units += s.units
		perNS := float64(s.units) / float64(s.end-s.start)
		for i := range vals {
			lo, hi := w.cuts[i], w.cuts[i+1]
			if s.start > lo {
				lo = s.start
			}
			if s.end < hi {
				hi = s.end
			}
			if hi > lo {
				vals[i] += perNS * float64(hi-lo)
			}
		}
	}
	for i := range vals {
		vals[i] /= (w.cuts[i+1] - w.cuts[i]).Seconds()
	}
	m := summarize(name, "1/s", vals)
	m.N = units
	return m
}

// latency is the time per unit of successful operations in milliseconds:
// the given quantile within each slice (by completion time), then the
// median over slices.
func (w *window) latency(name string, q float64) metric {
	per := make([][]float64, numSlices)
	n := 0
	for _, s := range w.samples {
		if s.units == 0 {
			continue
		}
		i := sort.Search(numSlices-1, func(i int) bool { return s.end < w.cuts[i+1] })
		per[i] = append(per[i], ms(s.end-s.start)/float64(s.units))
		n++
	}
	var vals []float64
	for _, p := range per {
		if len(p) > 0 {
			vals = append(vals, quantile(p, q))
		}
	}
	m := summarize(name, "ms", vals)
	m.N = n
	return m
}

// summarize reports the median of vals with its quartiles.
func summarize(name, unit string, vals []float64) metric {
	return metric{
		Name: name, Unit: unit,
		Value: quantile(vals, 0.5), Q1: quantile(vals, 0.25), Q3: quantile(vals, 0.75),
		N: len(vals), Slices: vals,
	}
}

// quantile interpolates linearly between order statistics; NaN when empty.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// repeatTimed calls rep until it has run at least minReps times and used
// budget of wall time (at most maxReps times), and summarizes the
// durations rep reports, converted by conv. rep times only the part that
// counts, so per-repetition preparation and teardown stay outside.
func repeatTimed(name, unit string, conv func(time.Duration) float64, budget time.Duration, minReps, maxReps int, rep func() (time.Duration, error)) (metric, error) {
	var vals []float64
	t0 := time.Now()
	for len(vals) < minReps || (time.Since(t0) < budget && len(vals) < maxReps) {
		d, err := rep()
		if err != nil {
			return metric{}, fmt.Errorf("%s: %w", name, err)
		}
		vals = append(vals, conv(d))
	}
	return summarize(name, unit, vals), nil
}

// setup measures a workload's set-up path for the untraced pass: at least
// five rebuilds and at least the set-up budget, the median in seconds. The
// traced pass reports no set-up time and skips it.
func (e *env) setup(r *result, rep func() (time.Duration, error)) error {
	if e.trace {
		return nil
	}
	m, err := repeatTimed("setup_s", "s", time.Duration.Seconds, e.setupBudget, 5, 200, rep)
	r.add(m)
	return err
}

// timed runs fn and reports its wall time.
func timed(fn func() error) (time.Duration, error) {
	t := time.Now()
	err := fn()
	return time.Since(t), err
}

// timeLayer measures one layer primitive in milliseconds (median of at
// least three calls within budget).
func timeLayer(name string, budget time.Duration, fn func() error) (metric, error) {
	return repeatTimed(name, "ms", ms, budget, 3, 1000, func() (time.Duration, error) { return timed(fn) })
}

// closeTo reports whether got matches want within a relative tolerance
// (absolute below magnitude 1), the float oracle contract.
func closeTo(got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("result has %d values, oracle %d", len(got), len(want))
	}
	for i := range want {
		d := math.Abs(got[i] - want[i])
		if !(d <= tol*math.Max(1, math.Abs(want[i]))) {
			return fmt.Errorf("value %d = %v, oracle %v", i, got[i], want[i])
		}
	}
	return nil
}
