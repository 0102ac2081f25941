package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/bits"
	"reflect"
	"strconv"
)

// Spec ingest. A raw job is ~100k array elements of JSON, and
// encoding/json reflecting over them was four fifths of a served request.
// UnmarshalJSON therefore decodes the canonical shape of a spec — what
// json.Marshal of a JobSpec produces, and what every client in this
// repository sends — by hand in one pass, and gives every other body to
// encoding/json unchanged. Because it is the type's Unmarshaler, every
// encoding/json decode site gets it (the HTTP handlers, IRCJ checkpoints)
// and there is no second wire format to keep equal to the first. Reached
// through encoding/json, though, the one pass comes after two scans of
// encoding/json's own. A site that holds the whole body calls DecodeJobSpec
// and pays the one pass alone: every job post a cluster node receives,
// /v1/cluster/route, session open and the spec inside an IRCJ checkpoint.
// A bare daemon's POST /v1/jobs still goes through json.Decoder.
//
// The fast grammar: objects with exact lower-case keys, each at most once;
// strings of printable ASCII without escapes; integers as plain decimal
// literals; ind as arrays of arrays of integers in int32 range;
// weights as an array of JSON numbers. Everything else — duplicate or
// case-variant keys, null, escapes, a fraction or exponent in an integer
// position, overflow, unknown keys, malformed JSON — makes the fast
// path give up and the whole body is decoded again by decodeSpecStd, so the
// accepted language, the decoded value and the error text are
// encoding/json's by construction. FuzzJobSpecDecode holds the two equal.
//
// Nearly all of a spec's bytes are the elements of ind and weights, and in
// the canonical shape each is a short unsigned literal followed by ',' or
// ']'. The fast path takes those eight bytes at a time (words): one word
// load finds the digit count and the terminator, three multiplies give the
// value, and the cursor steps past both without a whitespace test. Every
// other element — signed, spaced, eight digits or more, fractional, in the
// body's last 8 bytes — goes to the per-byte code, which is the whole fast
// grammar on its own; the eight-byte path only takes a subset of what it
// would accept, with the values it would give. An array tries the eight-byte
// path again after a per-byte element only while its last try took
// something, so an indented or all-fractional array pays one failed probe,
// not one per element.

// UnmarshalJSON implements json.Unmarshaler. It is strict: a body with a
// field JobSpec does not have is an error at every decode site, whether or
// not the caller asked for DisallowUnknownFields.
func (sp *JobSpec) UnmarshalJSON(data []byte) error {
	// encoding/json merges into a target that already holds values; only
	// the fallback reproduces that, so the fast path takes empty targets.
	if reflect.ValueOf(sp).Elem().IsZero() {
		var out JobSpec
		if _, ok := fastDecodeSpec(data, &out); ok {
			*sp = out
			return nil
		}
	}
	return decodeSpecStd(data, sp)
}

// jobSpecFields lets decodeSpecStd declare a local type that is also
// called JobSpec.
type jobSpecFields = JobSpec

// decodeSpecStd is the reference decode: encoding/json, unknown fields
// rejected, into a twin of JobSpec without the UnmarshalJSON method. The
// twin keeps the name so that a type error still reads "Go struct field
// JobSpec.p of type int".
func decodeSpecStd(data []byte, sp *JobSpec) error {
	type JobSpec jobSpecFields
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode((*JobSpec)(sp))
}

// DecodeJobSpec decodes the job spec at the head of a request body and
// returns the offset just past its JSON value: what a json.Decoder's Decode
// and InputOffset give, in one pass when it can. A body that is one spec in
// the fast grammar, with whitespace before and after, is parsed here once;
// every other body goes through exactly that json.Decoder, so the value,
// the end offset and the error text are its by construction.
func DecodeJobSpec(body []byte) (JobSpec, int, error) {
	var sp JobSpec
	if end, ok := fastDecodeSpec(body, &sp); ok {
		return sp, end, nil
	}
	sp = JobSpec{}
	dec := json.NewDecoder(bytes.NewReader(body))
	err := dec.Decode(&sp)
	return sp, int(dec.InputOffset()), err
}

// fastDecodeSpec decodes data into the zero *sp when data is exactly one
// spec in the fast grammar, whitespace around it allowed, and returns the
// offset just past the spec's closing brace. On false, *sp holds garbage.
func fastDecodeSpec(data []byte, sp *JobSpec) (end int, ok bool) {
	p := specParser{b: data}
	if !p.jobSpec(sp) {
		return 0, false
	}
	end = p.i
	p.ws()
	return end, p.i == len(p.b)
}

// specParser is a cursor over a spec body. Every method reports whether
// the input stayed inside the fast grammar; after a false the cursor is
// meaningless and the caller gives up.
type specParser struct {
	b []byte
	i int
	// numIters is the spec's num_iters once seen (json.Marshal emits it
	// before the arrays): the size hint for ind and weights.
	numIters int
}

func (p *specParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// eat consumes c, after optional whitespace.
func (p *specParser) eat(c byte) bool {
	p.ws()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// object walks {"key":value,...}: field is called once per member with the
// cursor on the value and consumes it. once(n) is the member's duplicate
// check: it fails the second time the object shows member n.
func (p *specParser) object(field func(key []byte, once func(n uint) bool) bool) bool {
	var seen uint
	once := func(n uint) bool {
		dup := seen&(1<<n) != 0
		seen |= 1 << n
		return !dup
	}
	if !p.eat('{') {
		return false
	}
	if p.eat('}') {
		return true
	}
	for {
		key, ok := p.rawString()
		if !ok || !p.eat(':') {
			return false
		}
		p.ws()
		if !field(key, once) {
			return false
		}
		if !p.eat(',') {
			return p.eat('}')
		}
	}
}

func (p *specParser) jobSpec(sp *JobSpec) bool {
	return p.object(func(key []byte, once func(uint) bool) bool {
		switch string(key) {
		case "kernel":
			return once(0) && p.str(&sp.Kernel)
		case "dataset":
			return once(1) && p.str(&sp.Dataset)
		case "seed":
			return once(2) && p.int64(&sp.Seed)
		case "num_iters":
			ok := once(3) && p.int(&sp.NumIters)
			p.numIters = sp.NumIters
			return ok
		case "num_elems":
			return once(4) && p.int(&sp.NumElems)
		case "ind":
			return once(5) && p.ind(&sp.Ind)
		case "contrib":
			sp.Contrib = new(ContribSpec)
			return once(6) && p.contrib(sp.Contrib)
		case "p":
			return once(7) && p.int(&sp.P)
		case "k":
			return once(8) && p.int(&sp.K)
		case "dist":
			return once(9) && p.str(&sp.Dist)
		case "steps":
			return once(10) && p.int(&sp.Steps)
		case "timeout_ms":
			return once(11) && p.int64(&sp.TimeoutMS)
		case "checkpoint_every":
			return once(12) && p.int(&sp.CheckpointEvery)
		case "cluster_uid":
			return once(13) && p.str(&sp.ClusterUID)
		}
		return false // a key in another case, an unknown key
	})
}

func (p *specParser) contrib(c *ContribSpec) bool {
	return p.object(func(key []byte, once func(uint) bool) bool {
		switch string(key) {
		case "kind":
			return once(0) && p.str(&c.Kind)
		case "weights":
			return once(1) && p.float64s(&c.Weights)
		}
		return false
	})
}

func (p *specParser) ind(out *[][]int32) bool {
	return p.array(func() bool {
		a, ok := p.int32s()
		*out = append(*out, a)
		return ok
	}) && nonNil(out)
}

// nonNil gives an array that had no elements encoding/json's value for
// it: an empty slice, not nil.
func nonNil[T any](s *[]T) bool {
	if *s == nil {
		*s = []T{}
	}
	return true
}

// array walks [elem,...], calling elem with the cursor on each element.
func (p *specParser) array(elem func() bool) bool {
	if !p.eat('[') {
		return false
	}
	if p.eat(']') {
		return true
	}
	for {
		p.ws()
		if !elem() {
			return false
		}
		if !p.eat(',') {
			return p.eat(']')
		}
	}
}

// rawString consumes a string of printable ASCII without escapes and
// returns its bytes. Escapes and non-ASCII (where encoding/json unquotes
// and repairs UTF-8) leave the fast grammar.
func (p *specParser) rawString() ([]byte, bool) {
	if !p.eat('"') {
		return nil, false
	}
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i]
		if c == '"' {
			p.i++
			return p.b[start : p.i-1], true
		}
		if c < 0x20 || c > 0x7e || c == '\\' {
			return nil, false
		}
		p.i++
	}
	return nil, false
}

func (p *specParser) str(out *string) bool {
	s, ok := p.rawString()
	*out = string(s)
	return ok
}

// digits consumes a run of decimal digits, at most 18 of them so that the
// value fits a uint64 with room to spare, and refuses a leading zero on a
// longer run (not JSON).
func (p *specParser) digits() (v uint64, n int, ok bool) {
	start := p.i
	for p.i < len(p.b) {
		c := p.b[p.i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
		p.i++
	}
	n = p.i - start
	return v, n, n >= 1 && n <= 18 && (n == 1 || p.b[start] != '0')
}

// integer consumes a plain decimal integer literal: an optional minus and
// digits, with nothing after them that would continue a JSON number.
func (p *specParser) integer() (int64, bool) {
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	v, _, ok := p.digits()
	if !ok || p.inNumber() {
		return 0, false
	}
	if neg {
		return -int64(v), true
	}
	return int64(v), true
}

// inNumber reports whether the byte at the cursor would continue a number:
// a fraction or exponent, which an integer position does not take.
func (p *specParser) inNumber() bool {
	if p.i >= len(p.b) {
		return false
	}
	c := p.b[p.i]
	return c == '.' || c == 'e' || c == 'E'
}

func (p *specParser) int64(out *int64) bool {
	v, ok := p.integer()
	*out = v
	return ok
}

func (p *specParser) int(out *int) bool {
	v, ok := p.integer()
	*out = int(v)
	return ok && int64(int(v)) == v
}

// sizeHint is the capacity to start an array at: num_iters when the spec
// has said it, but never more than the bytes that are left could spell
// (an element costs at least a digit and a comma) — the rule ReadSchedule
// follows, so a hostile num_iters allocates nothing the body does not back.
func (p *specParser) sizeHint() int {
	return max(0, min(p.numIters, (len(p.b)-p.i+1)/2))
}

// fit ends an array that began at sizeHint. A hint that turned out more
// than twice too generous is dropped, and num_iters is not believed again:
// many short arrays under one large num_iters then cost one body-sized
// allocation in all, not one each.
func fit[T any](p *specParser, s []T) []T {
	if cap(s) > 2*len(s) {
		p.numIters = 0
		return append(make([]T, 0, len(s)), s...)
	}
	return s
}

// int32s consumes an array of integers in int32 range.
func (p *specParser) int32s() ([]int32, bool) {
	if !p.eat('[') {
		return nil, false
	}
	out := make([]int32, 0, p.sizeHint())
	if p.eat(']') {
		return fit(p, out), true
	}
	for {
		before := len(out)
		var closed bool
		if out, closed = words(p, out); closed {
			return fit(p, out), true
		}
		// Per byte: the element words stopped on, and every element after
		// it unless words took something, a sign that more will follow.
		again := len(out) > before
		for {
			p.ws()
			v, ok := p.integer()
			if !ok || int64(int32(v)) != v {
				return nil, false
			}
			out = append(out, int32(v))
			if !p.eat(',') {
				return fit(p, out), p.eat(']')
			}
			if again {
				break
			}
		}
	}
}

// float64s consumes an array of JSON numbers. An integral literal below
// 2^53 converts exactly, so it is converted by hand; every other literal
// goes through strconv.ParseFloat, which is what encoding/json calls, so
// the values are bitwise its values.
func (p *specParser) float64s(out *[]float64) bool {
	if !p.eat('[') {
		return false
	}
	w := make([]float64, 0, p.sizeHint())
	if p.eat(']') {
		*out = fit(p, w)
		return true
	}
	for {
		before := len(w)
		var closed bool
		if w, closed = words(p, w); closed {
			*out = fit(p, w)
			return true
		}
		again := len(w) > before // as in int32s
		for {
			p.ws()
			start := p.i
			neg := p.i < len(p.b) && p.b[p.i] == '-'
			if neg {
				p.i++
			}
			v, n, ok := p.digits()
			if !ok {
				return false
			}
			var f float64
			if n <= 15 && !p.inNumber() && !(neg && v == 0) {
				f = float64(v)
				if neg {
					f = -f
				}
			} else {
				if !p.fracExp() {
					return false
				}
				var err error
				if f, err = strconv.ParseFloat(string(p.b[start:p.i]), 64); err != nil {
					return false
				}
			}
			w = append(w, f)
			if !p.eat(',') {
				*out = fit(p, w)
				return p.eat(']')
			}
			if again {
				break
			}
		}
	}
}

// words is the eight-byte path through an array of numbers. With the
// cursor on an element, it reads the 8 bytes there as one little-endian
// word, and while they open with 1 to 7 digits, no leading zero, followed
// by ',' or ']', it appends the number and steps past it and its terminator
// in one move. It stops with the cursor on the first element it does not
// take — a minus sign, whitespace, 8 or more digits, a fraction or
// exponent, any other terminator, fewer than 8 bytes left — which is the
// per-byte path's, or after a ']' with closed true. Up to 7 digits is below
// 2^31 and exact as a float64, so either element type takes the value as
// it is.
//
// The digit count is found without branches and the digits are combined
// with three multiplies, as in Langdale and Lemire, "Parsing Gigabytes of
// JSON per Second" (arXiv:1902.08318). The cursor stays in a local for the
// whole run, not in the parser.
func words[T int32 | float64](p *specParser, out []T) (_ []T, closed bool) {
	b, i := p.b, p.i
	for len(b)-i >= 8 {
		w := binary.LittleEndian.Uint64(b[i:])
		// A byte's high bit in nonDigit is set when the byte is below '0'
		// (the subtraction borrows), above '9' (adding 0x46 carries into
		// bit 7) or not ASCII. Borrows and carries run only towards higher
		// bytes, so the lowest flag is exact, and it is the only one read.
		const ones, highs = 0x0101010101010101, 0x8080808080808080
		nonDigit := ((w - '0'*ones) | (w + 0x46*ones) | w) & highs
		n := bits.TrailingZeros64(nonDigit) / 8 // leading digits, 8 when all are
		term := byte(w >> (8 * (n & 7)))
		if n == 0 || n == 8 || (n > 1 && byte(w) == '0') || (term != ',' && term != ']') {
			break
		}
		i += n + 1
		// Shift the digits to the top of the word, so that the emptied low
		// bytes read as leading zeros of an eight-digit number, then
		// combine digit pairs, pairs of pairs and the two halves.
		d := (w << (64 - 8*n)) & (0x0f * ones)
		d = (d * (10<<8 + 1)) >> 8 & 0x00ff00ff00ff00ff
		d = (d * (100<<16 + 1)) >> 16 & 0x0000ffff0000ffff
		out = append(out, T(uint32((d*(10000<<32+1))>>32)))
		if term == ']' {
			p.i = i
			return out, true
		}
	}
	p.i = i
	return out, false
}

// fracExp consumes the optional fraction and exponent of a JSON number
// whose integer part has been consumed.
func (p *specParser) fracExp() bool {
	if p.i < len(p.b) && p.b[p.i] == '.' {
		p.i++
		if !p.digitRun() {
			return false
		}
	}
	if p.i < len(p.b) && (p.b[p.i] == 'e' || p.b[p.i] == 'E') {
		p.i++
		if p.i < len(p.b) && (p.b[p.i] == '+' || p.b[p.i] == '-') {
			p.i++
		}
		if !p.digitRun() {
			return false
		}
	}
	return true
}

// digitRun consumes one or more digits.
func (p *specParser) digitRun() bool {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' <= 9 {
		p.i++
	}
	return p.i > start
}
