// Package fault is the runtime's deterministic chaos injector. It supplies
// the faults the serving stack must detect and survive: failed checkpoint
// writes (a lost resume point, never a lost job) and dropped, delayed or
// partitioned inter-node hops (the cluster's retry, failover and gossip
// paths).
//
// Every decision is a pure function of (seed, fault class, coordinates):
// an injected run is bit-reproducible regardless of goroutine
// interleaving, so a failing chaos seed is a replayable bug report. A nil
// *Injector is fully inert — every method is nil-safe and returns the
// no-fault answer after a single nil check, so production builds thread
// the injector through hot paths at effectively zero cost.
package fault

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Class enumerates the injectable fault classes. The values are written
// out because Target.Class is an integer that older job specs and IRCJ
// checkpoints carried; a class number is never reused (5 was the kernel
// panic).
type Class int

const (
	// DiskFail makes a cache/checkpoint disk write fail.
	DiskFail Class = 7
	// NetDrop loses an inter-node cluster hop (forward, gossip, replica
	// push): the HTTP request errors before it is sent, so retry/backoff
	// on the sender is the only recovery path.
	NetDrop Class = 8
	// NetDelay delivers an inter-node hop late by NetDelayMS.
	NetDelay Class = 9
	// Partition blocks every hop between two named nodes until healed —
	// the structural network fault; it is configured by pair, not rolled.
	Partition Class = 10

	numClasses = 11 // one past the largest class value
)

var classNames = map[Class]string{
	DiskFail: "disk", NetDrop: "net_drop", NetDelay: "net_delay", Partition: "partition",
}

func (c Class) String() string {
	if name, ok := classNames[c]; ok {
		return name
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Target is a one-shot fault pinned to exact coordinates: it fires the
// first time the runtime reaches (Proc, Phase, Sweep) — Phase and Sweep
// may be -1 to match any — and never again. Targets are how tests stage
// exactly one fault per run.
type Target struct {
	Class Class `json:"class"`
	Proc  int   `json:"proc"`
	Phase int   `json:"phase"` // -1 matches any phase
	Sweep int   `json:"sweep"` // -1 matches any sweep
}

// Spec configures an Injector. Rates are per-decision probabilities in
// [0,1]; Targets are precise one-shot faults. The zero Spec injects
// nothing.
type Spec struct {
	Seed int64 `json:"seed"`

	// Per-write disk failure probability.
	DiskRate float64 `json:"disk,omitempty"`

	// Per-hop inter-node network fault probabilities (cluster transport).
	NetDropRate  float64 `json:"net_drop,omitempty"`
	NetDelayRate float64 `json:"net_delay,omitempty"`
	// NetDelayMS is how late a delayed hop is delivered (default 10).
	NetDelayMS int64 `json:"net_delay_ms,omitempty"`

	// Partitions are node pairs whose hops fail in both directions until
	// healed (Injector.Heal). Pairs may also be installed and removed at
	// runtime with Injector.Partition/Heal — the deterministic way a test
	// stages a split-brain and then lets it mend.
	Partitions []PartitionPair `json:"partitions,omitempty"`

	// Targets are precise one-shot faults (fired at most once each).
	Targets []Target `json:"targets,omitempty"`
}

// PartitionPair names two nodes that cannot reach each other.
type PartitionPair struct {
	A string `json:"a"`
	B string `json:"b"`
}

// Enabled reports whether the spec injects anything at all.
func (s Spec) Enabled() bool {
	return s.DiskRate > 0 || s.NetDropRate > 0 ||
		s.NetDelayRate > 0 || len(s.Partitions) > 0 || len(s.Targets) > 0
}

// Validate rejects out-of-range rates (an injector is a test instrument;
// a malformed one should fail loudly, not quietly misfire).
func (s Spec) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"disk", s.DiskRate},
		{"net_drop", s.NetDropRate}, {"net_delay", s.NetDelayRate},
	} {
		if r.v < 0 || r.v > 1 || math.IsNaN(r.v) {
			return fmt.Errorf("fault: %s rate %v outside [0,1]", r.name, r.v)
		}
	}
	if s.NetDelayMS < 0 {
		return fmt.Errorf("fault: negative duration")
	}
	for i, p := range s.Partitions {
		if p.A == "" || p.B == "" {
			return fmt.Errorf("fault: partition %d names an empty node", i)
		}
	}
	for i, t := range s.Targets {
		if _, ok := classNames[t.Class]; !ok {
			return fmt.Errorf("fault: target %d has unknown class %d", i, int(t.Class))
		}
	}
	return nil
}

// String renders the spec in the -chaos flag syntax accepted by ParseSpec
// (targets are omitted; they are a programmatic-use feature).
func (s Spec) String() string {
	parts := []string{fmt.Sprintf("seed=%d", s.Seed)}
	add := func(k string, v float64) {
		if v > 0 {
			parts = append(parts, fmt.Sprintf("%s=%g", k, v))
		}
	}
	add("disk", s.DiskRate)
	add("net_drop", s.NetDropRate)
	add("net_delay", s.NetDelayRate)
	if s.NetDelayMS > 0 {
		parts = append(parts, fmt.Sprintf("net_delay_ms=%d", s.NetDelayMS))
	}
	for _, p := range s.Partitions {
		parts = append(parts, fmt.Sprintf("partition=%s~%s", p.A, p.B))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses the -chaos flag syntax: comma-separated key=value
// pairs, e.g. "seed=7,disk=0.05,net_drop=0.02".
func ParseSpec(s string) (Spec, error) {
	var spec Spec
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, found := strings.Cut(part, "=")
		if !found {
			return Spec{}, fmt.Errorf("fault: %q is not key=value", part)
		}
		switch key {
		case "seed", "net_delay_ms":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad %s %q", key, val)
			}
			if key == "seed" {
				spec.Seed = n
			} else {
				spec.NetDelayMS = n
			}
		case "partition":
			a, b, found := strings.Cut(val, "~")
			if !found || a == "" || b == "" {
				return Spec{}, fmt.Errorf("fault: partition %q is not a~b", val)
			}
			spec.Partitions = append(spec.Partitions, PartitionPair{A: a, B: b})
		default:
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("fault: bad rate %q for %s", val, key)
			}
			switch key {
			case "disk":
				spec.DiskRate = f
			case "net_drop":
				spec.NetDropRate = f
			case "net_delay":
				spec.NetDelayRate = f
			default:
				return Spec{}, fmt.Errorf("fault: unknown key %q", key)
			}
		}
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, err
	}
	return spec, nil
}

// Counters is a snapshot of how many faults of each class actually fired.
type Counters struct {
	DiskFails  int64 `json:"disk_fails"`
	NetDrops   int64 `json:"net_drops"`
	NetDelays  int64 `json:"net_delays"`
	Partitions int64 `json:"partition_blocks"` // hops blocked by a live partition
}

// Total sums the injected-fault counters.
func (c Counters) Total() int64 {
	return c.DiskFails + c.NetDrops + c.NetDelays + c.Partitions
}

// Injector makes deterministic fault decisions. All methods are safe on a
// nil receiver (and inject nothing), so callers hold a possibly-nil
// *Injector without guards.
// The zero Injector is valid and injects nothing, but — unlike a nil one
// — still accepts runtime Partition/Heal calls, so a harness can build an
// inert injector first and install structural network chaos later.
type Injector struct {
	spec Spec

	mu    sync.Mutex
	fired []bool // one-shot targets already fired

	netMu sync.Mutex
	parts map[[2]string]bool // live partitions, key = sorted pair

	counts [numClasses]atomic.Int64
	hopSeq atomic.Int64 // per-process hop counter, a rolling coordinate
}

// New builds an injector for the spec; it returns nil when the spec
// injects nothing, so "chaos off" and "no injector" are the same state.
func New(spec Spec) *Injector {
	if !spec.Enabled() {
		return nil
	}
	in := &Injector{spec: spec, fired: make([]bool, len(spec.Targets))}
	for _, p := range spec.Partitions {
		in.Partition(p.A, p.B)
	}
	return in
}

// Spec returns the injector's configuration (zero Spec when nil).
func (in *Injector) Spec() Spec {
	if in == nil {
		return Spec{}
	}
	return in.spec
}

// splitmix64 is the SplitMix64 finalizer: a strong 64-bit mixer, so the
// per-coordinate streams below are independent and uniform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// roll draws a deterministic uniform in [0,1) for (class, a, b, c, d) and
// reports whether it falls under rate. The decision depends only on the
// seed and the coordinates — never on timing or interleaving.
func (in *Injector) roll(class Class, rate float64, a, b, c, d int) bool {
	if rate <= 0 {
		return false
	}
	h := splitmix64(uint64(in.spec.Seed) ^ splitmix64(uint64(class)+1))
	h = splitmix64(h ^ uint64(int64(a)))
	h = splitmix64(h ^ uint64(int64(b))<<1)
	h = splitmix64(h ^ uint64(int64(c))<<2)
	h = splitmix64(h ^ uint64(int64(d))<<3)
	return float64(h>>11)/float64(1<<53) < rate
}

// target fires a matching one-shot target at most once. Phase/Sweep
// wildcards (-1) match anything.
func (in *Injector) target(class Class, proc, phase, sweep int) bool {
	if len(in.spec.Targets) == 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for i, t := range in.spec.Targets {
		if in.fired[i] || t.Class != class || t.Proc != proc {
			continue
		}
		if (t.Phase >= 0 && t.Phase != phase) ||
			(t.Sweep >= 0 && t.Sweep != sweep) {
			continue
		}
		in.fired[i] = true
		return true
	}
	return false
}

func (in *Injector) count(class Class) {
	in.counts[class].Add(1)
}

// DiskWrite returns an injected error for a disk write of name, or nil.
// The decision hashes the name so a given file either fails or succeeds
// consistently within one attempt stream.
func (in *Injector) DiskWrite(name string, attempt int) error {
	if in == nil {
		return nil
	}
	h := 0
	for _, b := range []byte(name) {
		h = h*131 + int(b)
	}
	if in.target(DiskFail, attempt, -1, -1) || in.roll(DiskFail, in.spec.DiskRate, h, attempt, 0, 2) {
		in.count(DiskFail)
		return fmt.Errorf("fault: injected disk write failure (%s, attempt %d)", name, attempt)
	}
	return nil
}

// partKey normalizes a node pair so partitions are bidirectional.
func partKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// Partition blocks every hop between nodes a and b (both directions)
// until Heal — the deterministic split-brain a cluster test stages.
func (in *Injector) Partition(a, b string) {
	if in == nil {
		return
	}
	in.netMu.Lock()
	if in.parts == nil {
		in.parts = make(map[[2]string]bool)
	}
	in.parts[partKey(a, b)] = true
	in.netMu.Unlock()
}

// Heal removes a partition installed by Partition (or the spec).
func (in *Injector) Heal(a, b string) {
	if in == nil {
		return
	}
	in.netMu.Lock()
	delete(in.parts, partKey(a, b))
	in.netMu.Unlock()
}

// Partitioned reports whether a and b currently cannot reach each other.
func (in *Injector) Partitioned(a, b string) bool {
	if in == nil {
		return false
	}
	in.netMu.Lock()
	defer in.netMu.Unlock()
	return in.parts[partKey(a, b)]
}

// HopFault describes what happens to one inter-node cluster hop.
type HopFault struct {
	Drop  bool // the request errors before it is sent
	Delay time.Duration
}

// strHash folds a node name into a coordinate for the deterministic roll.
func strHash(s string) int {
	h := uint32(2166136261)
	for _, b := range []byte(s) {
		h = (h ^ uint32(b)) * 16777619
	}
	return int(int32(h))
}

// Hop decides the fate of attempt number attempt of a hop from node
// `from` to node `to`. A live partition between the pair always drops
// (counted separately from rolled drops); otherwise NetDropRate and
// NetDelayRate are rolled on (from, to, attempt, seq) coordinates, where
// seq is a per-process hop counter: unlike a disk write's file name, the
// node-pair coordinates alone are nearly constant in a small fleet, so
// without seq a 10% drop rate would either always or never fire for a
// given pair. With seq the rate holds per hop; a run is still
// reproducible when its hop order is (seed fixed, one client).
func (in *Injector) Hop(from, to string, attempt int) HopFault {
	if in == nil {
		return HopFault{}
	}
	if in.Partitioned(from, to) {
		in.count(Partition)
		return HopFault{Drop: true}
	}
	seq := int(in.hopSeq.Add(1))
	var f HopFault
	if in.roll(NetDrop, in.spec.NetDropRate, strHash(from), strHash(to), attempt, seq) {
		f.Drop = true
		in.count(NetDrop)
		return f
	}
	if in.roll(NetDelay, in.spec.NetDelayRate, strHash(from), strHash(to), attempt, ^seq) {
		ms := in.spec.NetDelayMS
		if ms <= 0 {
			ms = 10
		}
		f.Delay = time.Duration(ms) * time.Millisecond
		in.count(NetDelay)
	}
	return f
}

// Counters snapshots the fired-fault counts (zero value when nil).
func (in *Injector) Counters() Counters {
	if in == nil {
		return Counters{}
	}
	return Counters{
		DiskFails:  in.counts[DiskFail].Load(),
		NetDrops:   in.counts[NetDrop].Load(),
		NetDelays:  in.counts[NetDelay].Load(),
		Partitions: in.counts[Partition].Load(),
	}
}
