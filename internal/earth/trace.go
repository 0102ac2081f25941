package earth

import (
	"fmt"
	"sort"
	"strings"

	"irred/internal/sim"
)

// Trace records machine-level events (fiber execution intervals and
// message sends) for inspection and visualization. Attach one with
// Machine.SetTrace before building the program; rendering produces a
// text Gantt chart of EU occupancy — the tool one reaches for when asking
// "did the transfer actually overlap the computation?".
type Trace struct {
	Fibers []FiberSpan
	Msgs   []MsgEvent
}

// FiberSpan is one fiber's EU occupancy.
type FiberSpan struct {
	Node       int
	Start, End sim.Time
	Label      string
}

// MsgEvent is one network message.
type MsgEvent struct {
	From, To int
	At       sim.Time
	Bytes    int
}

// SetTrace enables event recording on the machine.
func (m *Machine) SetTrace(t *Trace) { m.trace = t }

// recordFiber appends a fiber span if tracing is on.
func (m *Machine) recordFiber(node int, start, end sim.Time, label string) {
	if m.trace != nil {
		m.trace.Fibers = append(m.trace.Fibers, FiberSpan{Node: node, Start: start, End: end, Label: label})
	}
}

// recordMsg appends a message event if tracing is on.
func (m *Machine) recordMsg(from, to int, at sim.Time, bytes int) {
	if m.trace != nil {
		m.trace.Msgs = append(m.trace.Msgs, MsgEvent{From: from, To: to, At: at, Bytes: bytes})
	}
}

// Busy reports total EU-busy cycles per node over the trace.
func (t *Trace) Busy(p int) sim.Time {
	var total sim.Time
	for _, f := range t.Fibers {
		if f.Node == p {
			total += f.End - f.Start
		}
	}
	return total
}

// Gantt renders EU occupancy as one text row per node over [0, end),
// using `width` character cells: '#' busy, '.' idle. Useful in tests and
// for eyeballing overlap.
func (t *Trace) Gantt(nodes int, end sim.Time, width int) string {
	if width <= 0 || end <= 0 {
		return ""
	}
	rows := make([][]byte, nodes)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", width))
	}
	for _, f := range t.Fibers {
		if f.Node < 0 || f.Node >= nodes {
			continue
		}
		lo := int(int64(f.Start) * int64(width) / int64(end))
		hi := int(int64(f.End)*int64(width)/int64(end)) + 1
		if hi > width {
			hi = width
		}
		for c := lo; c < hi; c++ {
			rows[f.Node][c] = '#'
		}
	}
	var b strings.Builder
	for i, r := range rows {
		fmt.Fprintf(&b, "node%-3d |%s|\n", i, r)
	}
	return b.String()
}

// SortedFibers returns fiber spans ordered by start time (stable across
// nodes), for deterministic inspection.
func (t *Trace) SortedFibers() []FiberSpan {
	out := append([]FiberSpan(nil), t.Fibers...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Node < out[j].Node
	})
	return out
}
