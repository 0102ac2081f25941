package inspector

import "fmt"

// This file implements the paper's stated future work (Section 7): an
// incremental LightInspector. When an adaptive problem mutates a few
// entries of its indirection arrays, Update revises the existing schedule
// in time proportional to the number of changed iterations instead of
// re-running the full inspector. Like the full inspector it needs no
// interprocessor communication.

// incrState is the bookkeeping needed for in-place schedule updates.
type incrState struct {
	// iterPhase/iterIdx locate each owned iteration inside Phases, indexed
	// by its position (it-lo)/step among the processor's iterations:
	// iterPhase holds phase+1, 0 for none, and iterIdx the index there.
	iterPhase, iterIdx []int32
	lo, step           int
	// bufOf maps a deferred element to its buffer slot; slotRefs counts
	// live references per slot (indexed slot-NumElems); slotElem records
	// the element a slot buffers; free lists reusable slots.
	bufOf    map[int32]int32
	slotRefs []int
	slotElem []int32
	free     []int32
}

// BeginIncremental prepares the schedule for Update calls by indexing its
// iterations and buffer slots. It is idempotent and runs in one pass over
// the schedule.
func (s *Schedule) BeginIncremental() {
	if s.incr != nil {
		return
	}
	n := s.Cfg.IterCount(s.Proc)
	st := &incrState{
		iterPhase: make([]int32, n),
		iterIdx:   make([]int32, n),
		bufOf:     make(map[int32]int32, s.BufLen),
		slotRefs:  make([]int, s.BufLen),
		slotElem:  make([]int32, s.BufLen),
	}
	st.lo, st.step = s.Proc, s.Cfg.P // cyclic: iteration lo + i·P
	if s.Cfg.Dist == Block {
		st.lo, _ = s.Cfg.IterRange(s.Proc)
		st.step = 1
	}
	for i := range st.slotElem {
		st.slotElem[i] = -1
	}
	for ph := range s.Phases {
		p := &s.Phases[ph]
		for j, it := range p.Iters {
			l := st.local(it)
			st.iterPhase[l], st.iterIdx[l] = int32(ph+1), int32(j)
			for r := range p.Ind {
				if x := p.Ind[r][j]; int(x) >= s.Cfg.NumElems {
					st.slotRefs[int(x)-s.Cfg.NumElems]++
				}
			}
		}
		for _, cp := range p.Copies {
			b := int(cp.Buf) - s.Cfg.NumElems
			st.slotElem[b] = cp.Elem
			st.bufOf[cp.Elem] = cp.Buf
		}
	}
	s.incr = st
}

// local is owned iteration it's position among the processor's iterations.
func (st *incrState) local(it int32) int { return (int(it) - st.lo) / st.step }

// Update incrementally revises the schedule after the indirection arrays
// changed for the given iterations. ind must be the full, new indirection
// arrays (same shapes as those passed to Light). Iterations not owned by
// this processor are ignored, so callers may pass the global change list.
// The cost is O(changed iterations), not O(all iterations).
func (s *Schedule) Update(changed []int32, ind ...[]int32) error {
	if len(ind) != s.NumRef {
		return fmt.Errorf("inspector: Update got %d indirection arrays, schedule has %d references", len(ind), s.NumRef)
	}
	for r, a := range ind {
		if len(a) != s.Cfg.NumIters {
			return fmt.Errorf("inspector: indirection %d has length %d, want %d", r, len(a), s.Cfg.NumIters)
		}
	}
	s.BeginIncremental()
	for _, it := range changed {
		if int(it) < 0 || int(it) >= s.Cfg.NumIters {
			return fmt.Errorf("inspector: changed iteration %d out of range", it)
		}
		if s.Cfg.OwnerOfIter(int(it)) != s.Proc {
			continue
		}
		for r := range ind {
			if e := ind[r][it]; int(e) < 0 || int(e) >= s.Cfg.NumElems {
				return fmt.Errorf("inspector: indirection %d value %d at iteration %d out of range", r, e, it)
			}
		}
		s.remove(it)
		s.insert(it, ind)
	}
	return nil
}

// remove detaches iteration it from its current phase, releasing buffer
// slots whose reference counts drop to zero.
func (s *Schedule) remove(it int32) {
	st := s.incr
	l := st.local(it)
	if st.iterPhase[l] == 0 {
		return
	}
	j := int(st.iterIdx[l])
	p := &s.Phases[st.iterPhase[l]-1]
	for r := range p.Ind {
		if x := p.Ind[r][j]; int(x) >= s.Cfg.NumElems {
			s.releaseSlot(x)
		}
	}
	// Swap-remove from the phase, updating the moved iteration's index.
	last := len(p.Iters) - 1
	moved := p.Iters[last]
	p.Iters[j] = moved
	p.Iters = p.Iters[:last]
	for r := range p.Ind {
		p.Ind[r][j] = p.Ind[r][last]
		p.Ind[r] = p.Ind[r][:last]
	}
	if moved != it {
		st.iterIdx[st.local(moved)] = int32(j)
	}
	st.iterPhase[l] = 0
}

// releaseSlot decrements a buffer slot's reference count and, at zero,
// removes its copy pair and recycles the slot.
func (s *Schedule) releaseSlot(slot int32) {
	st := s.incr
	b := int(slot) - s.Cfg.NumElems
	st.slotRefs[b]--
	if st.slotRefs[b] > 0 {
		return
	}
	elem := st.slotElem[b]
	cph := s.Cfg.PhaseOf(s.Proc, int(elem))
	cp := &s.Phases[cph]
	for i := range cp.Copies {
		if cp.Copies[i].Buf == slot {
			cp.Copies[i] = cp.Copies[len(cp.Copies)-1]
			cp.Copies = cp.Copies[:len(cp.Copies)-1]
			break
		}
	}
	delete(st.bufOf, elem)
	st.slotElem[b] = -1
	st.free = append(st.free, slot)
}

// insert assigns iteration it to its (new) phase, rewriting references and
// allocating buffer slots for deferred elements.
func (s *Schedule) insert(it int32, ind [][]int32) {
	st := s.incr
	// Earliest owning phase across references (inspector step 1).
	best := s.Cfg.NumPhases()
	for r := range ind {
		if ph := s.Cfg.PhaseOf(s.Proc, int(ind[r][it])); ph < best {
			best = ph
		}
	}
	p := &s.Phases[best]
	j := len(p.Iters)
	p.Iters = append(p.Iters, it)
	for r := range ind {
		e := ind[r][it]
		if s.Cfg.PhaseOf(s.Proc, int(e)) == best {
			p.Ind[r] = append(p.Ind[r], e)
			continue
		}
		p.Ind[r] = append(p.Ind[r], s.acquireSlot(e))
	}
	l := st.local(it)
	st.iterPhase[l], st.iterIdx[l] = int32(best+1), int32(j)
}

// acquireSlot returns the buffer slot for a deferred element, reusing or
// allocating one and installing its copy pair on first use.
func (s *Schedule) acquireSlot(e int32) int32 {
	st := s.incr
	if slot, ok := st.bufOf[e]; ok {
		st.slotRefs[int(slot)-s.Cfg.NumElems]++
		return slot
	}
	var slot int32
	if n := len(st.free); n > 0 {
		slot = st.free[n-1]
		st.free = st.free[:n-1]
	} else {
		slot = int32(s.Cfg.NumElems + s.BufLen)
		s.BufLen++
		st.slotRefs = append(st.slotRefs, 0)
		st.slotElem = append(st.slotElem, -1)
	}
	b := int(slot) - s.Cfg.NumElems
	st.slotRefs[b] = 1
	st.slotElem[b] = e
	st.bufOf[e] = slot
	cph := s.Cfg.PhaseOf(s.Proc, int(e))
	s.Phases[cph].Copies = append(s.Phases[cph].Copies, CopyPair{Elem: e, Buf: slot})
	return slot
}
