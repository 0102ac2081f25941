package service

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
)

// weightBits flattens a spec's weights to their float bits:
// reflect.DeepEqual holds -0 and +0 equal, the decode contract does not.
func weightBits(sp *JobSpec) []uint64 {
	var bits []uint64
	if sp.Contrib != nil {
		for _, w := range sp.Contrib.Weights {
			bits = append(bits, math.Float64bits(w))
		}
	}
	return bits
}

// checkSpecDecode holds json.Unmarshal into a JobSpec — the entry every
// encoding/json decode site uses — to the reference: both fail with the
// same text, or both succeed with equal values, weights compared bit for
// bit. It holds DecodeJobSpec, the cluster router's entry, to the
// json.Decoder it replaces: the same value, end offset and error text.
func checkSpecDecode(t *testing.T, data []byte) {
	t.Helper()
	checkDecodeJobSpec(t, data)
	var got, want JobSpec
	gotErr := json.Unmarshal(data, &got)
	if !json.Valid(data) {
		// encoding/json rejects the body before UnmarshalJSON sees it.
		if gotErr == nil {
			t.Fatalf("invalid JSON accepted: %q", data)
		}
		return
	}
	wantErr := decodeSpecStd(data, &want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("decoding %q:\n got error  %v\n want error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(weightBits(&got), weightBits(&want)) {
		t.Fatalf("decoding %q:\n got  %+v\n want %+v", data, got, want)
	}
}

// checkDecodeJobSpec: DecodeJobSpec and a json.Decoder's first value give
// equal values, weights bit for bit, the same end and the same error.
func checkDecodeJobSpec(t *testing.T, data []byte) {
	t.Helper()
	got, gotEnd, gotErr := DecodeJobSpec(data)
	var want JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	wantErr := dec.Decode(&want)
	wantEnd := int(dec.InputOffset())
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("DecodeJobSpec(%q):\n got error  %v\n want error %v", data, gotErr, wantErr)
	}
	if gotEnd != wantEnd {
		t.Fatalf("DecodeJobSpec(%q) ends at %d, json.Decoder at %d", data, gotEnd, wantEnd)
	}
	if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(weightBits(&got), weightBits(&want)) {
		t.Fatalf("DecodeJobSpec(%q):\n got  %+v\n want %+v", data, got, want)
	}
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJobSpecDecodeFastPath: what json.Marshal emits for a spec — the
// body every client here sends — stays on the hand-written path and
// decodes to the reference value.
func TestJobSpecDecodeFastPath(t *testing.T) {
	scalars := rawSpec(5, 4, 1, 8, 4, 7)
	scalars.Dist, scalars.TimeoutMS = "block", 1500
	scalars.CheckpointEvery, scalars.ClusterUID, scalars.Seed = 3, "00ff17", -9
	fractional := rawSpec(6, 2, 2, 5, 4, 1)
	fractional.Contrib.Weights = []float64{0.1, -2.5e-7, 1e21, 12345678901234567, math.Copysign(0, -1)}
	empty := JobSpec{Ind: [][]int32{{}}, Contrib: &ContribSpec{Kind: "ones"}}

	bodies := map[string][]byte{
		"raw":        mustMarshal(t, rawSpec(1, 2, 2, 300, 40, 4)),
		"scalars":    mustMarshal(t, scalars),
		"fractional": mustMarshal(t, fractional),
		"named":      mustMarshal(t, JobSpec{Kernel: "euler", Dataset: "2k", Seed: 7, P: 2, K: 2}),
		"empty":      mustMarshal(t, empty),
		"zero":       []byte(`{}`),
		"spaced":     []byte(" {\n\t\"p\" : 2 ,\r\n \"ind\" : [ [ 1 , -0 ] , [ ] ] , \"dist\" : \"block\" } \n"),
	}
	indented, err := json.MarshalIndent(rawSpec(3, 2, 2, 64, 16, 2), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	bodies["indented"] = indented
	for name, body := range bodies {
		var sp JobSpec
		if _, ok := fastDecodeSpec(body, &sp); !ok {
			t.Errorf("%s: left the fast path: %s", name, body)
		}
		checkSpecDecode(t, body)
	}
}

// chaosBody is a chaos key as a job spec once carried it; a job spec has
// no such field now.
const chaosBody = `{"chaos":{"seed":1,"disk":0.5}}`

// removedChaosBody carries a fault class the injector no longer has.
const removedChaosBody = `{"chaos":{"seed":1,"drop":0.5}}`

// offGrammar is one body per way of leaving the fast grammar. Each must
// fall back, and the fallback is the reference, so each decodes — or fails
// — exactly as encoding/json says. Also FuzzJobSpecDecode's seed corpus.
// The rows with "auto" carry a field JobSpec does not have, since a served
// job runs the strategy its client sent; TestJobSpecDecodeStrict holds each
// refused by name. So do the rows with "loops": a served job is one loop.
var offGrammar = []string{
	`{"kernel":"euler","dataset":"2k","seed":7,"p":2,"k":2,"auto":true}`,
	" {\n\t\"p\" : 2 ,\r\n \"ind\" : [ [ 1 , -0 ] , [ ] ] , \"auto\" : false } \n",
	`{"p":1,"p":2}`,
	`{"contrib":{"kind":"pair"},"contrib":{"weights":[1,2]}}`,
	`{"contrib":{"kind":"pair","kind":"ones"}}`,
	`{"IND":[[1,2]],"P":2}`,
	`{"Contrib":{"Kind":"ones"}}`,
	`{"ind":null,"contrib":null,"loops":null}`,
	`{"ind":[null,[1]]}`,
	`{"ind":[[1,null]]}`,
	`{"contrib":{"weights":null}}`,
	`{"p":null,"dist":null,"auto":null}`,
	`null`,
	`{"ind":[[1e3]]}`,
	`{"ind":[[1.0]]}`,
	`{"ind":[[2147483648]]}`,
	`{"ind":[[-2147483649]]}`,
	`{"ind":[[1.5]]}`,
	`{"num_iters":1e3}`,
	`{"seed":9223372036854775808}`,
	`{"seed":123456789012345678901}`,
	`{"dist":"bl\u006fck"}`,
	`{"dist":"bl\"ock"}`,
	`{"kernel":"mölder"}`,
	"{\"kernel\":\"\xff\"}",
	`{"contrib":{"weights":[1e999]}}`,
	`{"contrib":{"weights":["1"]}}`,
	chaosBody,
	removedChaosBody,
	`{"chaos":null}`,
	`{"bogus":1}`,
	`{"contrib":{"bogus":1}}`,
	`{"loops":[{"bogus":1}]}`,
	`{"loops":[null,{}]}`,
	`{"loops":[{"ind":[[1]],"ind":[[2]]}]}`,
	`{"p":"2"}`,
	`{"p":2.0}`,
	`{"auto":1}`,
	`{"ind":[1,2]}`,
	`{"ind":{}}`,
	`{"loops":{}}`,
	`[]`,
	`7`,
	`"spec"`,
}

func TestJobSpecDecodeFallback(t *testing.T) {
	for _, body := range offGrammar {
		var sp JobSpec
		if _, ok := fastDecodeSpec([]byte(body), &sp); ok {
			t.Errorf("fast path accepted %s", body)
		}
		checkSpecDecode(t, []byte(body))
	}
	// A job spec has no chaos key, whatever it holds: an unknown field on
	// both decode paths.
	const want = `json: unknown field "chaos"`
	for _, body := range []string{chaosBody, removedChaosBody} {
		if err := json.Unmarshal([]byte(body), &JobSpec{}); err == nil || err.Error() != want {
			t.Fatalf("%s through JobSpec: %v, want %s", body, err, want)
		}
		if err := decodeSpecStd([]byte(body), &JobSpec{}); err == nil || err.Error() != want {
			t.Fatalf("%s through encoding/json: %v, want %s", body, err, want)
		}
	}
}

// TestJobSpecDecodeMerge: encoding/json merges into a target that already
// holds values, and so does a JobSpec.
func TestJobSpecDecodeMerge(t *testing.T) {
	got := JobSpec{P: 4, Dist: "block", Contrib: &ContribSpec{Kind: "pair"}}
	want := got
	want.Contrib = &ContribSpec{Kind: "pair"}
	body := []byte(`{"k":2,"contrib":{"weights":[1,2]}}`)
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if err := decodeSpecStd(body, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || got.P != 4 || got.K != 2 || got.Contrib.Kind != "pair" || len(got.Contrib.Weights) != 2 {
		t.Fatalf("merge:\n got  %+v %+v\n want %+v %+v", got, got.Contrib, want, want.Contrib)
	}
}

// TestJobSpecDecodeStrict: an unknown field is an error at every decode
// site, including the ones that never asked for DisallowUnknownFields, and
// the text is encoding/json's.
func TestJobSpecDecodeStrict(t *testing.T) {
	var sp JobSpec
	err := json.Unmarshal([]byte(`{"p":2,"stesp":4}`), &sp)
	if err == nil || err.Error() != `json: unknown field "stesp"` {
		t.Fatalf("unknown field: %v", err)
	}
	err = json.Unmarshal([]byte(`{"p":"two"}`), &sp)
	if err == nil || !strings.Contains(err.Error(), "Go struct field JobSpec.p of type int") {
		t.Fatalf("type error text: %v", err)
	}
	refused := 0
	for _, body := range offGrammar {
		if !strings.Contains(body, `"auto"`) {
			continue
		}
		refused++
		const want = `json: unknown field "auto"`
		if err := json.Unmarshal([]byte(body), &JobSpec{}); err == nil || err.Error() != want {
			t.Errorf("%s through JobSpec: %v, want %s", body, err, want)
		}
		if _, _, err := DecodeJobSpec([]byte(body)); err == nil || err.Error() != want {
			t.Errorf("%s through DecodeJobSpec: %v, want %s", body, err, want)
		}
	}
	if refused != 4 {
		t.Fatalf("%d bodies carry auto, want 4", refused)
	}
}

// TestJobSpecDecodeHostileSize: num_iters is only a hint. A body that
// claims a billion iterations allocates what its bytes back, and many
// short arrays under a large hint do not each keep the hint alive.
func TestJobSpecDecodeHostileSize(t *testing.T) {
	var sp JobSpec
	body := `{"num_iters":1000000000000,"ind":[[1,2,3]],"contrib":{"kind":"weights","weights":[1]}}`
	if err := json.Unmarshal([]byte(body), &sp); err != nil {
		t.Fatal(err)
	}
	if c := cap(sp.Ind[0]); c > len(body) {
		t.Fatalf("ind[0] has capacity %d from a %d-byte body", c, len(body))
	}
	if c := cap(sp.Contrib.Weights); c > len(body) {
		t.Fatalf("weights has capacity %d from a %d-byte body", c, len(body))
	}

	many := `{"num_iters":1000000000,"ind":[` + strings.Repeat(`[1],`, 4095) + `[1]]}`
	sp = JobSpec{}
	if _, ok := fastDecodeSpec([]byte(many), &sp); !ok {
		t.Fatal("left the fast path")
	}
	total := 0
	for _, a := range sp.Ind {
		total += cap(a)
	}
	if total > len(many) {
		t.Fatalf("%d short arrays keep %d elements of capacity from a %d-byte body", len(sp.Ind), total, len(many))
	}
}

// wordPathBodies sit at the edges of the eight-byte path: numbers in the
// last 8 bytes of the body, 7 and 8 digits and the int32 limits, zeros,
// leading zeros and signs, a space or a fraction after the digits, a
// weight closed by '}', and whitespace everywhere. Each decodes as
// encoding/json says; each is also a FuzzJobSpecDecode seed.
var wordPathBodies = []string{
	`{"ind":[[12345]]}`,                  // the element and its tail are exactly 8 bytes
	`{"ind":[[1234]]}`,                   // 7 bytes left
	`{"ind":[[123456]]}`,                 // 9 bytes left
	`{"ind":[[1,22,333]]}`,               // the last element in the final 8 bytes
	`{"contrib":{"weights":[1,22,333]}}`, // the same for weights
	`{"contrib":{"weights":[4444444]}} `, // 7 digits, then the end
	`{"ind":[[1234567,12345678,1234567]],"p":1}`,
	`{"ind":[[9999999,99999999,100000000]],"p":1}`,
	`{"ind":[[2147483647,1,2,3]],"p":1}`,
	`{"ind":[[2147483648,1,2,3]],"p":1}`,
	`{"contrib":{"weights":[1234567,12345678,2147483648,9007199254740993]},"p":1}`,
	`{"ind":[[0,0,10,100,0]],"p":1}`,
	`{"ind":[[01,2,3]],"p":1}`,
	`{"ind":[[1,02,3]],"p":1}`,
	`{"ind":[[-0,1,2,3]],"p":1}`,
	`{"ind":[[-7,1,2,3]],"p":1}`,
	`{"ind":[[1,-7,2,3]],"p":1}`,
	`{"contrib":{"weights":[0,-0,01,-7,7]},"p":1}`,
	`{"ind":[[1 ,2,3,4]],"p":1}`,
	`{"ind":[[1, 2,3,4]],"p":1}`,
	`{"ind":[[1.5,2,3,4]],"p":1}`,
	`{"ind":[[1e3,2,3,4]],"p":1}`,
	`{"ind":[[2,1.5,3,4]],"p":1}`,
	`{"ind":[[2,1e3,3,4]],"p":1}`,
	`{"ind":[[1,2},"p":1,"k":1}`,
	`{"contrib":{"kind":"ones","weights":[1,2}},"p":1,"k":1}`,
	`{"contrib":{"weights":[1.5,2e3,3,4]},"p":1}`,
	`{"ind":[[1,2,],[3]],"p":1}`,
	"{\n  \"p\": 2,\n  \"ind\": [\n    [\n      1,\n      22\n    ],\n    [ 333 , 4 ]\n  ],\n  \"contrib\": { \"weights\": [ 5 ,\t6\r\n] }\n}\n",
}

// TestJobSpecDecodeWordPath: every edge of the eight-byte path decodes as
// encoding/json does, and the canonical bodies among them stay on the
// hand-written path.
func TestJobSpecDecodeWordPath(t *testing.T) {
	for _, body := range wordPathBodies {
		checkSpecDecode(t, []byte(body))
	}
	indented, err := json.MarshalIndent(rawSpec(2, 2, 2, 50, 3000000, 1), "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{wordPathBodies[0], wordPathBodies[6], wordPathBodies[11], string(indented)} {
		var sp JobSpec
		if _, ok := fastDecodeSpec([]byte(body), &sp); !ok {
			t.Errorf("left the fast path: %s", body)
		}
		checkSpecDecode(t, []byte(body))
	}
}

// TestWordsTakesOnlyShortUnsignedLiterals: which elements the eight-byte
// path takes, and where it leaves the cursor for the per-byte path.
func TestWordsTakesOnlyShortUnsignedLiterals(t *testing.T) {
	for _, c := range []struct {
		in     string
		took   []int32
		closed bool
		rest   string
	}{
		{"1,22,333]    ", []int32{1, 22, 333}, true, "    "},
		{"1234567,0]      ", []int32{1234567, 0}, true, "      "},
		{"1234567,0]     ", []int32{1234567}, false, "0]     "},
		{"12345678,1]    ", nil, false, "12345678,1]    "},
		{"7,12345678,1]  ", []int32{7}, false, "12345678,1]  "},
		{"1 ,2]          ", nil, false, "1 ,2]          "},
		{"3, 4]          ", []int32{3}, false, " 4]          "},
		{"01,2]          ", nil, false, "01,2]          "},
		{"0,-7]          ", []int32{0}, false, "-7]          "},
		{"1.5,2]         ", nil, false, "1.5,2]         "},
		{"5,1e3]         ", []int32{5}, false, "1e3]         "},
		{"1,2}           ", []int32{1}, false, "2}           "},
		{"1,2,3]", nil, false, "1,2,3]"},
		{"1]}", nil, false, "1]}"},
	} {
		p := specParser{b: []byte(c.in)}
		got, closed := words(&p, []int32(nil))
		if !reflect.DeepEqual(got, c.took) || closed != c.closed || string(p.b[p.i:]) != c.rest {
			t.Errorf("words(%q) = %v, closed %v, rest %q; want %v, %v, %q",
				c.in, got, closed, p.b[p.i:], c.took, c.closed, c.rest)
		}
	}
}

// FuzzJobSpecDecode: for every input, the JobSpec Unmarshaler and strict
// encoding/json into the method-less twin agree — the same error, or equal
// values bit for bit — and DecodeJobSpec and json.Decoder agree on value,
// end offset and error. The fallback being the reference, a divergence is
// always a fast-path bug.
func FuzzJobSpecDecode(f *testing.F) {
	for _, body := range offGrammar {
		f.Add([]byte(body))
	}
	f.Add(mustMarshal(f, rawSpec(1, 2, 2, 40, 9, 2)))
	// The removed multi-loop form where json.Marshal used to put it, after
	// the arrays: both decoders refuse it, the fast one only at the end.
	f.Add(bytes.Replace(mustMarshal(f, rawSpec(2, 2, 2, 20, 5, 2)),
		[]byte(`,"p":`), []byte(`,"loops":[{},{"contrib":{"kind":"ones"}}],"p":`), 1))
	f.Add(mustMarshal(f, JobSpec{Kernel: "mvm", Dataset: "S", Seed: 3, P: 2, K: 1, ClusterUID: "ab12"}))
	for _, body := range []string{
		`{"ind":[[-0,0,1,-1,2147483647,-2147483648]]}`,
		`{"ind":[[00]]}`, `{"ind":[[-]]}`, `{"ind":[[1,]]}`, `{"ind":[[1],]}`, `{"p":1,}`, `{,}`,
		`{"contrib":{"kind":"pair","weights":[-0,0.0,1e0,1E+2,1e-2,0.5,123456789012345678,1.7976931348623157e308,5e-324,01,1.,.5,-]}}`,
		`{"num_iters":99999999999999999,"ind":[[1]],"contrib":{"weights":[1]}}`,
		`{"num_iters":-5,"ind":[[1]]}`,
		`{"loops":[{"ind":[[1,2],[3,4]],"contrib":{"kind":"ones"}},{},{"contrib":{"kind":"weights","weights":[2,3]}}]}`,
		" \n\t\r{ \n\t\r\"p\" \n\t\r: \n\t\r1 \n\t\r} \n\t\r",
		`{"p":1} x`, `{"p":1}{"p":2}`, `{"auto":truex}`, `{"auto":tru}`, `{"dist":"block`, `{"p"`,
		" \r\n\t" + `{"p":1,"ind":[[1,2]]}` + " \t\n", `{"p":1} {"p":2}`, ``, " \n",
	} {
		f.Add([]byte(body))
	}
	for _, body := range wordPathBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSpecDecode(t, data)
	})
}

// BenchmarkJobSpecDecode is the spec-ingest primitive on the benchmark's
// job shape (32,768 iterations × 2 references, pair weights): the
// hand-written decoder alone, the reference it falls back to, the
// hand-written decoder reached the way the service handlers reach it,
// through encoding/json's own two scanner passes (via-json), and reached
// the way the cluster router does, through DecodeJobSpec (one-pass). The
// last two rows are one-pass on bodies the eight-byte path does not take:
// weights with a fraction (1.25 to 8.75 in quarter steps), and the
// benchmark's body indented by json.MarshalIndent.
func BenchmarkJobSpecDecode(b *testing.B) {
	spec := rawSpec(1, 2, 2, 32768, 4096, 4)
	spec.Contrib.Kind = "pair"
	body := mustMarshal(b, spec)
	run := func(name string, body []byte, decode func(*JobSpec, []byte) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var sp JobSpec
				if err := decode(&sp, body); err != nil || len(sp.Ind) != 2 || len(sp.Contrib.Weights) != 32768 {
					b.Fatalf("decode: %v", err)
				}
			}
		})
	}
	onePass := func(sp *JobSpec, body []byte) error {
		var err error
		*sp, _, err = DecodeJobSpec(body)
		return err
	}
	run("fast", body, (*JobSpec).UnmarshalJSON)
	run("alias-fallback", body, func(sp *JobSpec, body []byte) error { return decodeSpecStd(body, sp) })
	run("via-json", body, func(sp *JobSpec, body []byte) error { return json.Unmarshal(body, sp) })
	run("one-pass", body, onePass)

	frac := spec
	frac.Contrib = &ContribSpec{Kind: "weights", Weights: make([]float64, len(spec.Contrib.Weights))}
	for i, w := range spec.Contrib.Weights {
		frac.Contrib.Weights[i] = w + 0.25 + float64(i%3)/4
	}
	run("fractional-weights", mustMarshal(b, frac), onePass)
	indented, err := json.MarshalIndent(spec, "", "\t")
	if err != nil {
		b.Fatal(err)
	}
	run("indented", indented, onePass)
}
