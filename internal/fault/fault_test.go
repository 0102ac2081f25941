package fault

import (
	"testing"
	"time"
)

// TestNilInjectorIsInert pins the zero-cost-when-disabled contract: every
// method on a nil *Injector returns the no-fault answer.
func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if err := in.DiskWrite("x", 0); err != nil {
		t.Fatalf("nil injector failed a write: %v", err)
	}
	if c := in.Counters(); c.Total() != 0 {
		t.Fatalf("nil injector counted faults: %+v", c)
	}
	if in.Spec().Enabled() {
		t.Fatal("nil injector reports an enabled spec")
	}
}

// TestNewDisabledSpecReturnsNil: an empty spec and a nil injector are the
// same state.
func TestNewDisabledSpecReturnsNil(t *testing.T) {
	if New(Spec{Seed: 42}) != nil {
		t.Fatal("New returned a live injector for a no-fault spec")
	}
	if New(Spec{DiskRate: 0.1}) == nil {
		t.Fatal("New returned nil for an enabled spec")
	}
}

// TestDeterminism: the same seed and coordinates yield the same decisions
// across injector instances; a different seed yields a different stream.
func TestDeterminism(t *testing.T) {
	spec := Spec{Seed: 7, DiskRate: 0.3}
	a, b := New(spec), New(spec)
	other := New(Spec{Seed: 8, DiskRate: 0.3})
	diff := 0
	for proc := 0; proc < 4; proc++ {
		for iter := 0; iter < 64; iter++ {
			name := string(rune('a' + proc))
			fa := a.DiskWrite(name, iter) == nil
			if fa != (b.DiskWrite(name, iter) == nil) {
				t.Fatalf("disk decisions diverged at (%s,%d)", name, iter)
			}
			if fa != (other.DiskWrite(name, iter) == nil) {
				diff++
			}
		}
	}
	if diff == 0 {
		t.Fatal("different seeds produced identical fault streams")
	}
}

// TestRatesApproximatelyHold: with rate r over N independent coordinates
// about r*N faults fire — the hash stream is uniform enough to trust.
func TestRatesApproximatelyHold(t *testing.T) {
	in := New(Spec{Seed: 3, DiskRate: 0.25})
	n, fails := 20000, 0
	for i := 0; i < n; i++ {
		if in.DiskWrite("ck", i) != nil {
			fails++
		}
	}
	got := float64(fails) / float64(n)
	if got < 0.22 || got > 0.28 {
		t.Fatalf("disk rate 0.25 realized as %.3f", got)
	}
}

// TestTargetsFireExactlyOnce: a one-shot target matches its coordinates
// once and never again, wildcards included.
func TestTargetsFireExactlyOnce(t *testing.T) {
	in := New(Spec{Targets: []Target{
		{Class: DiskFail, Proc: 2, Phase: -1, Sweep: -1},
		{Class: DiskFail, Proc: 4, Phase: -1, Sweep: -1},
	}})
	if in.DiskWrite("x", 1) != nil {
		t.Fatal("disk target fired at the wrong attempt")
	}
	if in.DiskWrite("x", 2) == nil {
		t.Fatal("disk target did not fire at its attempt")
	}
	if in.DiskWrite("x", 2) != nil {
		t.Fatal("disk target fired twice")
	}
	if in.DiskWrite("y", 4) == nil {
		t.Fatal("second disk target did not fire at its attempt")
	}
	c := in.Counters()
	if c.DiskFails != 2 || c.Total() != 2 {
		t.Fatalf("counters %+v, want exactly two disk failures", c)
	}
}

// TestTargetClassValues pins the wire values of the classes: Target.Class
// is an integer, so a class keeps its number and a removed one (the kernel
// panic was 5) is never reused.
func TestTargetClassValues(t *testing.T) {
	for c, want := range map[Class]int{DiskFail: 7, NetDrop: 8, NetDelay: 9, Partition: 10} {
		if int(c) != want {
			t.Fatalf("%s = %d, want %d", c, int(c), want)
		}
	}
	for _, gone := range []Class{0, 1, 2, 3, 4, 5, 6} {
		spec := Spec{Targets: []Target{{Class: gone}}}
		if err := spec.Validate(); err == nil {
			t.Fatalf("target class %d accepted", int(gone))
		}
	}
}

// TestParseSpecRoundTrip: flag syntax -> Spec -> String -> Spec is stable.
func TestParseSpecRoundTrip(t *testing.T) {
	spec, err := ParseSpec("seed=9,disk=0.5,net_drop=0.02,net_delay=0.03,net_delay_ms=7")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Seed != 9 || spec.DiskRate != 0.5 || spec.NetDelayMS != 7 {
		t.Fatalf("parsed %+v", spec)
	}
	again, err := ParseSpec(spec.String())
	if err != nil {
		t.Fatal(err)
	}
	if again.String() != spec.String() {
		t.Fatalf("round trip changed the spec: %+v vs %+v", again, spec)
	}
}

// TestParseSpecAll: "all" once expanded to a dose of every job-level
// class; with the kernel panic gone it is a bare word like any other and
// is refused, as is the panic key.
func TestParseSpecAll(t *testing.T) {
	for _, bad := range []string{"seed=4,all", "all", "seed=4,panic=0.002"} {
		if spec, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) = %+v, want an error", bad, spec)
		}
	}
}

// TestParseSpecRejects: bad keys, bad values, out-of-range rates, and the
// keys of the rotation-payload classes, which no longer exist.
func TestParseSpecRejects(t *testing.T) {
	for _, bad := range []string{
		"frobnicate=1", "disk=banana", "disk", "disk=1.5", "seed=x",
		"drop=0.1", "delay=0.1", "dup=0.1", "corrupt=0.1", "stall=0.1", "stall_ms=5", "delay_ms=5",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
}

// TestNetDelayDurations: the configured hop delay is honored and
// defaulted.
func TestNetDelayDurations(t *testing.T) {
	in := New(Spec{Seed: 2, NetDelayRate: 1, NetDelayMS: 4})
	if f := in.Hop("n1", "n2", 0); f.Delay != 4*time.Millisecond {
		t.Fatalf("delay = %v, want 4ms", f.Delay)
	}
	def := New(Spec{Seed: 2, NetDelayRate: 1})
	if f := def.Hop("n1", "n2", 0); f.Delay != 10*time.Millisecond {
		t.Fatalf("default delay = %v, want 10ms", f.Delay)
	}
}

// TestDiskWriteDeterminism: same name+attempt always answers the same
// way, and a full rate fails everything.
func TestDiskWriteDeterminism(t *testing.T) {
	in := New(Spec{Seed: 5, DiskRate: 0.5})
	for i := 0; i < 50; i++ {
		a := in.DiskWrite("cache/abc.irs", i)
		b := in.DiskWrite("cache/abc.irs", i)
		if (a == nil) != (b == nil) {
			t.Fatal("disk decision not deterministic")
		}
	}
	always := New(Spec{Seed: 5, DiskRate: 1})
	if err := always.DiskWrite("x", 0); err == nil {
		t.Fatal("rate-1 disk injector let a write through")
	}
}
