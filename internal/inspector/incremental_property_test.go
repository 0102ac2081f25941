package inspector

import (
	"math/rand"
	"testing"
)

// auditSlots is the white-box bookkeeping oracle for the incremental
// state: it recomputes, from the phase programs alone, how many live
// references each buffer slot has and which element it buffers, then
// checks the maintained slotRefs/slotElem/bufOf/free structures against
// that ground truth. Any leak (a dead slot missing from the free list),
// double-free (a slot freed twice or freed while referenced), or stale
// mapping shows up as a mismatch.
func auditSlots(t *testing.T, s *Schedule) {
	t.Helper()
	st := s.incr
	if st == nil {
		t.Fatal("schedule has no incremental state")
	}
	if len(st.slotRefs) != s.BufLen || len(st.slotElem) != s.BufLen {
		t.Fatalf("slot tables sized %d/%d, BufLen %d", len(st.slotRefs), len(st.slotElem), s.BufLen)
	}
	refs := make([]int, s.BufLen)
	elemOf := make([]int32, s.BufLen)
	for b := range elemOf {
		elemOf[b] = -1
	}
	for ph := range s.Phases {
		p := &s.Phases[ph]
		for r := range p.Ind {
			for _, x := range p.Ind[r] {
				if int(x) >= s.Cfg.NumElems {
					b := int(x) - s.Cfg.NumElems
					if b >= s.BufLen {
						t.Fatalf("phase %d ref %d uses slot %d beyond BufLen %d", ph, r, b, s.BufLen)
					}
					refs[b]++
				}
			}
		}
		for _, cp := range p.Copies {
			b := int(cp.Buf) - s.Cfg.NumElems
			if b < 0 || b >= s.BufLen {
				t.Fatalf("copy pair slot %d out of range", b)
			}
			if elemOf[b] >= 0 {
				t.Fatalf("slot %d has two copy pairs (elements %d and %d)", b, elemOf[b], cp.Elem)
			}
			elemOf[b] = cp.Elem
		}
	}
	for b := 0; b < s.BufLen; b++ {
		if refs[b] != st.slotRefs[b] {
			t.Fatalf("slot %d: %d live references, slotRefs says %d", b, refs[b], st.slotRefs[b])
		}
		if refs[b] > 0 {
			if elemOf[b] < 0 {
				t.Fatalf("slot %d referenced %d times but has no copy pair", b, refs[b])
			}
			if st.slotElem[b] != elemOf[b] {
				t.Fatalf("slot %d buffers element %d, slotElem says %d", b, elemOf[b], st.slotElem[b])
			}
		} else {
			if elemOf[b] >= 0 {
				t.Fatalf("dead slot %d still has a copy pair for element %d", b, elemOf[b])
			}
			if st.slotElem[b] != -1 {
				t.Fatalf("dead slot %d: slotElem = %d, want -1", b, st.slotElem[b])
			}
		}
	}
	// The free list must contain exactly the zero-reference slots, each
	// once: a missing slot is a leak, a duplicate is a double-free, a live
	// slot on the list would be corrupted by the next acquire.
	seen := make(map[int32]bool, len(st.free))
	for _, slot := range st.free {
		b := int(slot) - s.Cfg.NumElems
		if b < 0 || b >= s.BufLen {
			t.Fatalf("free list holds slot %d outside the buffer", slot)
		}
		if seen[slot] {
			t.Fatalf("slot %d double-freed", slot)
		}
		seen[slot] = true
		if refs[b] != 0 {
			t.Fatalf("slot %d on the free list with %d live references", slot, refs[b])
		}
	}
	dead := 0
	for b := range refs {
		if refs[b] == 0 {
			dead++
		}
	}
	if len(st.free) != dead {
		t.Fatalf("free list has %d slots, %d are dead (leak)", len(st.free), dead)
	}
	// bufOf must be a bijection onto the live slots.
	for e, slot := range st.bufOf {
		b := int(slot) - s.Cfg.NumElems
		if b < 0 || b >= s.BufLen || refs[b] == 0 || st.slotElem[b] != e {
			t.Fatalf("bufOf[%d] = slot %d is stale (refs %d, slotElem %d)", e, slot, refs[b], st.slotElem[b])
		}
	}
	if live := s.BufLen - dead; len(st.bufOf) != live {
		t.Fatalf("bufOf has %d entries, %d slots are live", len(st.bufOf), live)
	}
}

// TestUpdateSlotReuseProperty drives randomized update sequences across
// strategies and asserts after every batch that the slot bookkeeping
// neither leaks nor double-frees, that the schedule set still passes
// CheckSet, and that it reproduces the sequential result.
func TestUpdateSlotReuseProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1718))
	dists := []Dist{Block, Cyclic}
	for trial := 0; trial < 12; trial++ {
		cfg := Config{
			P: 1 + rng.Intn(4), K: 1 + rng.Intn(3),
			NumIters: 150 + rng.Intn(250),
			NumElems: 30 + rng.Intn(70),
			Dist:     dists[trial%2],
		}
		ind := randInd(rng, cfg.NumIters, cfg.NumElems, 1+rng.Intn(2)+1)
		scheds := make([]*Schedule, cfg.P)
		for p := 0; p < cfg.P; p++ {
			s, err := Light(cfg, p, ind...)
			if err != nil {
				t.Fatal(err)
			}
			s.BeginIncremental()
			auditSlots(t, s)
			scheds[p] = s
		}
		for round := 0; round < 25; round++ {
			changed := mutateInd(rng, ind, cfg.NumElems, 1+rng.Intn(16))
			for p, s := range scheds {
				if err := s.Update(changed, ind...); err != nil {
					t.Fatalf("trial %d round %d proc %d: %v", trial, round, p, err)
				}
				auditSlots(t, s)
			}
			if err := CheckSet(cfg, scheds, ind...); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
		}
		got := emulateScheds(cfg, scheds, func(i, r int) float64 { return float64(i%7 + r) })
		want := sequential(cfg, ind, func(i, r int) float64 { return float64(i%7 + r) })
		for e := range got {
			if got[e] != want[e] {
				t.Fatalf("trial %d: element %d = %g, want %g", trial, e, got[e], want[e])
			}
		}
	}
}

// TestCloneIndependence asserts a cloned schedule is equal to its source
// but fully detached: updates to the clone must not disturb the original
// (the cache-immutability contract sessions rely on).
func TestCloneIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cfg := Config{P: 3, K: 2, NumIters: 400, NumElems: 80, Dist: Cyclic}
	ind := randInd(rng, cfg.NumIters, cfg.NumElems, 2)
	orig, err := Light(cfg, 1, ind...)
	if err != nil {
		t.Fatal(err)
	}
	origIters, origBuf := orig.NumIters(), orig.BufLen

	cl := orig.Clone()
	if cl.NumIters() != origIters || cl.BufLen != origBuf || cl.NumRef != orig.NumRef {
		t.Fatalf("clone differs: iters %d/%d buf %d/%d", cl.NumIters(), origIters, cl.BufLen, origBuf)
	}
	if err := cl.Check(ind...); err != nil {
		t.Fatal(err)
	}

	// Mutate through the clone; the original must stay bitwise intact.
	snapshot := func(s *Schedule) []int32 {
		var flat []int32
		for ph := range s.Phases {
			p := &s.Phases[ph]
			flat = append(flat, p.Iters...)
			for r := range p.Ind {
				flat = append(flat, p.Ind[r]...)
			}
			for _, cp := range p.Copies {
				flat = append(flat, cp.Elem, cp.Buf)
			}
		}
		return flat
	}
	before := snapshot(orig)
	mutated := append([][]int32(nil), ind...)
	for r := range mutated {
		mutated[r] = append([]int32(nil), ind[r]...)
	}
	changed := mutateInd(rng, mutated, cfg.NumElems, 40)
	if err := cl.Update(changed, mutated...); err != nil {
		t.Fatal(err)
	}
	if err := cl.Check(mutated...); err != nil {
		t.Fatal(err)
	}
	after := snapshot(orig)
	if len(before) != len(after) {
		t.Fatalf("original changed shape: %d -> %d entries", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("original entry %d changed: %d -> %d", i, before[i], after[i])
		}
	}
	if orig.incr != nil {
		t.Fatal("cloning or updating the clone built incremental state on the original")
	}
}
