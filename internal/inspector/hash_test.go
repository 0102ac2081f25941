package inspector

import (
	"crypto/sha256"
	"math/rand"
	"testing"
)

// goldenKeyLoop is a fixed loop whose key is pinned: every field of the
// configuration set, an array with the int32 extremes and an empty one.
var goldenKeyLoop = struct {
	cfg Config
	ind [][]int32
}{
	Config{P: 3, K: 2, NumIters: 5, NumElems: 11, Dist: Block},
	[][]int32{{0, 1, 10, 3, 7}, {-1, 2147483647, -2147483648, 4, 256}, {}},
}

// TestScheduleKeyGolden pins the key's bytes. Ring placement, the disk
// schedule cache's file names and replicated checkpoints all name a loop
// by this key, so a change to it splits a fleet across versions.
func TestScheduleKeyGolden(t *testing.T) {
	const want = "1c0b3a728e523e5234bbfc2084bed7ba52aecf8c8eff7e5f6206e25c1e9c8638"
	if got := ScheduleKey(goldenKeyLoop.cfg, goldenKeyLoop.ind...); got != want {
		t.Fatalf("ScheduleKey = %s, want %s", got, want)
	}
}

// BenchmarkScheduleKey is one content key over the serve workloads' raw
// shape: 32,768 iterations × 2 references over 4,096 elements.
func BenchmarkScheduleKey(b *testing.B) {
	cfg, ind := benchRandom(32768, 4096)
	b.SetBytes(int64(4 * (len(ind[0]) + len(ind[1]))))
	for i := 0; i < b.N; i++ {
		ScheduleKey(cfg, ind...)
	}
}

// TestScheduleKeyInPlaceMatchesEncoded: the in-place hash and the
// re-encode a big-endian host runs write the same bytes, so the key does
// not depend on the host's byte order.
func TestScheduleKeyInPlaceMatchesEncoded(t *testing.T) {
	if !littleEndian {
		t.Skip("the in-place hash runs only on little-endian hosts")
	}
	rng := rand.New(rand.NewSource(1))
	var buf []byte
	for _, n := range []int{0, 1, 3, 1023, 1024, 1025, 5000} {
		a := make([]int32, n)
		for i := range a {
			a[i] = int32(rng.Uint32())
		}
		in, enc := sha256.New(), sha256.New()
		hashInPlace(in, a)
		buf = hashEncoded(enc, a, buf)
		if string(in.Sum(nil)) != string(enc.Sum(nil)) {
			t.Fatalf("%d values: the in-place and re-encoded hashes differ", n)
		}
	}
}
