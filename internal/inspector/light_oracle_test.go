package inspector

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"irred/internal/obs"
)

// lightOracle is the LightInspector as it was first written: two walks over
// the processor's iterations through Config.Iters, the earliest owning phase
// recomputed per reference in both, and buffer slots allocated through a
// map. It is the reference the production inspector is held to, byte for
// byte under WriteTo and string for string on errors.
func lightOracle(cfg Config, proc int, ind ...[]int32) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if proc < 0 || proc >= cfg.P {
		return nil, fmt.Errorf("inspector: proc %d out of range [0,%d)", proc, cfg.P)
	}
	if len(ind) == 0 {
		return nil, fmt.Errorf("inspector: need at least one indirection array")
	}
	for r, a := range ind {
		if len(a) != cfg.NumIters {
			return nil, fmt.Errorf("inspector: indirection array %d has %d entries, want %d", r, len(a), cfg.NumIters)
		}
	}

	nph := cfg.NumPhases()
	s := &Schedule{Cfg: cfg, Proc: proc, NumRef: len(ind), Phases: make([]PhaseProgram, nph)}

	// Step 1: count iterations per phase so slices can be sized exactly,
	// validating indirection values along the way.
	counts := make([]int, nph)
	var badRef, badIter int = -1, -1
	cfg.Iters(proc, func(i int) {
		for r := range ind {
			if e := ind[r][i]; int(e) < 0 || int(e) >= cfg.NumElems {
				if badRef < 0 {
					badRef, badIter = r, i
				}
				return
			}
		}
		counts[oraclePhaseOfIter(s, ind, i)]++
	})
	if badRef >= 0 {
		return nil, fmt.Errorf("inspector: indirection %d value %d at iteration %d out of range [0,%d)",
			badRef, ind[badRef][badIter], badIter, cfg.NumElems)
	}
	for ph := range s.Phases {
		p := &s.Phases[ph]
		p.Iters = make([]int32, 0, counts[ph])
		p.Ind = make([][]int32, len(ind))
		for r := range p.Ind {
			p.Ind[r] = make([]int32, 0, counts[ph])
		}
	}

	// Steps 2 and 3: place iterations, allocate buffer slots for deferred
	// references, and emit copy-loop pairs. bufOf maps a deferred element to
	// its buffer slot so all references to it share one slot.
	bufOf := make(map[int32]int32)
	cfg.Iters(proc, func(i int) {
		ph := oraclePhaseOfIter(s, ind, i)
		p := &s.Phases[ph]
		p.Iters = append(p.Iters, int32(i))
		for r := range ind {
			e := ind[r][i]
			rph := cfg.PhaseOf(proc, int(e))
			if rph == ph {
				p.Ind[r] = append(p.Ind[r], e)
				continue
			}
			slot, ok := bufOf[e]
			if !ok {
				slot = int32(cfg.NumElems + s.BufLen)
				s.BufLen++
				bufOf[e] = slot
				fp := &s.Phases[rph]
				fp.Copies = append(fp.Copies, CopyPair{Elem: e, Buf: slot})
			}
			p.Ind[r] = append(p.Ind[r], slot)
		}
	})
	return s, nil
}

// oraclePhaseOfIter implements step 1: the earliest phase among the
// iteration's reduction references.
func oraclePhaseOfIter(s *Schedule, ind [][]int32, i int) int {
	best := s.Cfg.NumPhases()
	for r := range ind {
		if ph := s.Cfg.PhaseOf(s.Proc, int(ind[r][i])); ph < best {
			best = ph
		}
	}
	return best
}

// scheduleBytes is a schedule's WriteTo encoding — the form the disk cache,
// replica replay and the reuse checker compare.
func scheduleBytes(t *testing.T, s *Schedule) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleCase is one inspector input of the property test.
type oracleCase struct {
	name string
	cfg  Config
	ind  [][]int32
}

// oracleCases draws random inputs and adds the shapes a random draw rarely
// reaches: more than 255 phases, fewer iterations than processors, no
// iterations, every reference in one portion, far more elements than
// iterations, and bad values at the first, middle and last local iteration
// of some processor.
func oracleCases(rng *rand.Rand) []oracleCase {
	var cases []oracleCase
	add := func(name string, cfg Config, refs int) []oracleCase {
		cases = append(cases, oracleCase{name, cfg, randInd(rng, cfg.NumIters, cfg.NumElems, refs)})
		return cases
	}
	dists := []Dist{Block, Cyclic}
	for trial := 0; trial < 120; trial++ {
		add(fmt.Sprintf("random-%d", trial), Config{
			P: 1 + rng.Intn(9), K: 1 + rng.Intn(4),
			NumIters: rng.Intn(600), NumElems: 1 + rng.Intn(300),
			Dist: dists[rng.Intn(2)],
		}, 1+rng.Intn(3))
	}
	for _, d := range dists {
		add("kp-256-"+d.String(), Config{P: 64, K: 4, NumIters: 3000, NumElems: 1000, Dist: d}, 2)
		add("kp-260-"+d.String(), Config{P: 65, K: 4, NumIters: 3000, NumElems: 1000, Dist: d}, 2)
		add("kp-260-few-elems-"+d.String(), Config{P: 65, K: 4, NumIters: 700, NumElems: 37, Dist: d}, 3)
		add("iters-below-P-"+d.String(), Config{P: 7, K: 2, NumIters: 5, NumElems: 40, Dist: d}, 2)
		add("no-iters-"+d.String(), Config{P: 3, K: 2, NumIters: 0, NumElems: 10, Dist: d}, 2)
		add("sparse-touch-"+d.String(), Config{P: 2, K: 2, NumIters: 400, NumElems: 128 * 400, Dist: d}, 2)

		cfg := Config{P: 3, K: 2, NumIters: 500, NumElems: 96, Dist: d}
		c := add("one-portion-"+d.String(), cfg, 3)
		lo, hi := cfg.PortionBounds(4)
		for _, a := range c[len(c)-1].ind {
			for i := range a {
				a[i] = int32(lo + rng.Intn(hi-lo))
			}
		}
	}
	for _, d := range dists {
		for _, where := range []string{"first", "middle", "last"} {
			for _, bad := range []int32{-1, 96, 1 << 30} {
				cfg := Config{P: 3, K: 2, NumIters: 301, NumElems: 96, Dist: d}
				c := add(fmt.Sprintf("bad-%s-%d-%v", where, bad, d), cfg, 2)
				ind := c[len(c)-1].ind
				var local []int
				cfg.Iters(1, func(i int) { local = append(local, i) })
				at := map[string]int{"first": 0, "middle": len(local) / 2, "last": len(local) - 1}[where]
				ind[rng.Intn(2)][local[at]] = bad
				if where == "middle" {
					// A second bad value on another processor: the error
					// reported is the lowest processor's.
					ind[0][cfg.NumIters-1] = bad
				}
			}
		}
	}
	return cases
}

// TestLightMatchesOracle: for every input the inspector's schedules encode
// to the oracle's bytes and pass Check, its errors read as the oracle's, and
// LightAll returns the per-processor schedules or the lowest processor's
// error.
func TestLightMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, c := range oracleCases(rng) {
		var firstErr error
		want := make([][]byte, c.cfg.P)
		for p := 0; p < c.cfg.P; p++ {
			ws, werr := lightOracle(c.cfg, p, c.ind...)
			gs, gerr := Light(c.cfg, p, c.ind...)
			if fmt.Sprint(werr) != fmt.Sprint(gerr) {
				t.Fatalf("%s proc %d: error %v, oracle %v", c.name, p, gerr, werr)
			}
			if werr != nil {
				if firstErr == nil {
					firstErr = werr
				}
				continue
			}
			want[p] = scheduleBytes(t, ws)
			if !bytes.Equal(scheduleBytes(t, gs), want[p]) {
				t.Fatalf("%s proc %d: schedule bytes differ from the oracle's", c.name, p)
			}
			if err := gs.Check(c.ind...); err != nil {
				t.Fatalf("%s proc %d: %v", c.name, p, err)
			}
		}
		all, err := LightAll(c.cfg, nil, c.ind...)
		if fmt.Sprint(err) != fmt.Sprint(firstErr) {
			t.Fatalf("%s: LightAll error %v, serial loop %v", c.name, err, firstErr)
		}
		if err != nil {
			continue
		}
		for p, s := range all {
			if s.Proc != p || !bytes.Equal(scheduleBytes(t, s), want[p]) {
				t.Fatalf("%s: LightAll schedule %d differs from the oracle's", c.name, p)
			}
		}
	}
}

// TestLightAllErrors: argument errors come back whole from LightAll, with
// no processor inspected twice or left unrecorded.
func TestLightAllErrors(t *testing.T) {
	tr := obs.New(64)
	cfg := Config{P: 4, K: 2, NumIters: 3, NumElems: 8}
	if _, err := LightAll(Config{P: 0, K: 1, NumIters: 1, NumElems: 1}, tr, []int32{0}); err == nil {
		t.Fatal("P = 0: no error")
	}
	if _, err := LightAll(cfg, tr); err == nil {
		t.Fatal("no indirection arrays: no error")
	}
	if _, err := LightAll(cfg, tr, []int32{0, 1}); err == nil {
		t.Fatal("short indirection array: no error")
	}
	tr.Reset()
	if _, err := LightAll(cfg, tr, []int32{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	spans, _ := tr.Snapshot()
	seen := map[int]int{}
	for _, s := range spans {
		if s.Name == obs.SpanInspect {
			seen[int(s.Proc)]++
		}
	}
	for p := 0; p < cfg.P; p++ {
		if seen[p] != 1 {
			t.Fatalf("processor %d recorded %d inspect spans, want 1", p, seen[p])
		}
	}
}
