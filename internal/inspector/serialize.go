package inspector

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Schedule serialization: a compact binary format so LightInspector output
// can be cached to disk and reloaded instead of re-inspecting — the
// practical complement to the paper's "inspector executed once" methodology
// when the same dataset is run many times.
//
// Layout (little-endian varints except where noted):
//
//	magic "IRSC" | version u8 | Config (6 varints) | proc | numRef | bufLen
//	per phase: iter count | iters (delta-varint) | per ref: ind values |
//	           copy count | copy pairs
const (
	schedMagic   = "IRSC"
	schedVersion = 1
)

type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}

// WriteTo serializes the schedule. It implements io.WriterTo.
func (s *Schedule) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	if _, err := bw.WriteString(schedMagic); err != nil {
		return cw.n, err
	}
	if err := bw.WriteByte(schedVersion); err != nil {
		return cw.n, err
	}
	var buf [binary.MaxVarintLen64]byte
	put := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	hdr := []int64{
		int64(s.Cfg.P), int64(s.Cfg.K), int64(s.Cfg.NumIters), int64(s.Cfg.NumElems),
		int64(s.Cfg.Dist), int64(s.Proc), int64(s.NumRef), int64(s.BufLen),
		int64(len(s.Phases)),
	}
	for _, v := range hdr {
		if err := put(v); err != nil {
			return cw.n, err
		}
	}
	for ph := range s.Phases {
		p := &s.Phases[ph]
		if err := put(int64(len(p.Iters))); err != nil {
			return cw.n, err
		}
		// Iterations delta-encoded (ascending after Light; Update may
		// reorder, so deltas are signed).
		prev := int64(0)
		for _, it := range p.Iters {
			if err := put(int64(it) - prev); err != nil {
				return cw.n, err
			}
			prev = int64(it)
		}
		for r := 0; r < s.NumRef; r++ {
			for _, x := range p.Ind[r] {
				if err := put(int64(x)); err != nil {
					return cw.n, err
				}
			}
		}
		if err := put(int64(len(p.Copies))); err != nil {
			return cw.n, err
		}
		for _, cp := range p.Copies {
			if err := put(int64(cp.Elem)); err != nil {
				return cw.n, err
			}
			if err := put(int64(cp.Buf)); err != nil {
				return cw.n, err
			}
		}
	}
	return cw.n, bw.Flush()
}

// ReadSchedule deserializes a schedule written by WriteTo and returns it if
// it passes Check.
func ReadSchedule(r io.Reader) (*Schedule, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("inspector: reading schedule magic: %w", err)
	}
	if string(magic) != schedMagic {
		return nil, fmt.Errorf("inspector: bad schedule magic %q", magic)
	}
	ver, err := br.ReadByte()
	if err != nil {
		return nil, err
	}
	if ver != schedVersion {
		return nil, fmt.Errorf("inspector: unsupported schedule version %d", ver)
	}
	get := func() (int64, error) { return binary.ReadVarint(br) }
	geti := func() (int, error) {
		v, err := get()
		if err != nil {
			return 0, err
		}
		if v < 0 || v > 1<<31 {
			return 0, fmt.Errorf("inspector: corrupt schedule: count %d", v)
		}
		return int(v), nil
	}

	s := &Schedule{}
	var dist, nPhases int
	for _, f := range []*int{&s.Cfg.P, &s.Cfg.K, &s.Cfg.NumIters, &s.Cfg.NumElems, &dist,
		&s.Proc, &s.NumRef, &s.BufLen, &nPhases} {
		if *f, err = geti(); err != nil {
			return nil, err
		}
	}
	s.Cfg.Dist = Dist(dist)
	// Check validates the rest; the reference count sizes each phase's
	// target lists before then.
	if s.NumRef <= 0 || s.NumRef > 16 {
		return nil, fmt.Errorf("inspector: corrupt schedule: %d references", s.NumRef)
	}

	// Claimed counts are untrusted until the stream backs them: every entry
	// costs at least one byte on the wire, so a short corrupt stream hits
	// EOF long before an append-grown slice gets large. Preallocation is
	// therefore capped — a corrupt header claiming 2^31 phases or
	// iterations must not translate into a multi-gigabyte make() up front.
	const preallocCap = 1 << 16
	capAt := func(n int) int {
		if n > preallocCap {
			return preallocCap
		}
		return n
	}
	s.Phases = make([]PhaseProgram, 0, capAt(nPhases))
	for ph := 0; ph < nPhases; ph++ {
		var p PhaseProgram
		n, err := geti()
		if err != nil {
			return nil, err
		}
		p.Iters = make([]int32, 0, capAt(n))
		prev := int64(0)
		for j := 0; j < n; j++ {
			d, err := get()
			if err != nil {
				return nil, err
			}
			prev += d
			p.Iters = append(p.Iters, int32(prev))
		}
		p.Ind = make([][]int32, s.NumRef)
		for r := 0; r < s.NumRef; r++ {
			p.Ind[r] = make([]int32, 0, capAt(n))
			for j := 0; j < n; j++ {
				v, err := get()
				if err != nil {
					return nil, err
				}
				p.Ind[r] = append(p.Ind[r], int32(v))
			}
		}
		nc, err := geti()
		if err != nil {
			return nil, err
		}
		p.Copies = make([]CopyPair, 0, capAt(nc))
		for j := 0; j < nc; j++ {
			e, err := get()
			if err != nil {
				return nil, err
			}
			b, err := get()
			if err != nil {
				return nil, err
			}
			p.Copies = append(p.Copies, CopyPair{Elem: int32(e), Buf: int32(b)})
		}
		s.Phases = append(s.Phases, p)
	}
	if err := s.Check(); err != nil {
		return nil, fmt.Errorf("inspector: deserialized schedule invalid: %w", err)
	}
	return s, nil
}
