package inspector

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"unsafe"
)

// ScheduleKey returns a stable content hash identifying the LightInspector
// output for a loop: the configuration (P, K, NumIters, NumElems, Dist)
// plus the full contents of the indirection arrays. Light is deterministic,
// so two loops with equal keys have identical schedule sets for every
// processor — the key is safe to use as a cache or persistence identifier.
//
// Note the asymmetry the paper exploits: the communication schedule (what
// moves, when, how much) depends only on (P, K, NumElems), but the phase
// programs do depend on indirection contents — hence the content hash. The
// values flowing through the reduction never enter the key, so one cached
// schedule set serves any data run through the same indirection arrays.
//
// The hashed bytes are the header words and every array value, all little
// endian. On a little-endian host that is how the arrays already lie in
// memory, so they are hashed in place; elsewhere they are re-encoded.
func ScheduleKey(cfg Config, ind ...[]int32) string {
	h := sha256.New()
	var hdr [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(hdr[:], v)
		h.Write(hdr[:])
	}
	put(uint64(cfg.P))
	put(uint64(cfg.K))
	put(uint64(cfg.NumIters))
	put(uint64(cfg.NumElems))
	put(uint64(cfg.Dist))
	put(uint64(len(ind)))
	var buf []byte
	for _, a := range ind {
		put(uint64(len(a)))
		if littleEndian {
			hashInPlace(h, a)
		} else {
			buf = hashEncoded(h, a, buf)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// littleEndian reports whether an int32 lies in memory as its
// little-endian bytes.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// hashInPlace writes a's memory to h: a's little-endian bytes on a
// little-endian host.
func hashInPlace(h hash.Hash, a []int32) {
	h.Write(unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(a))), 4*len(a)))
}

// hashEncoded writes a's little-endian bytes to h through buf, in batches
// so the copy stays small on the multi-million-entry class B arrays, and
// returns buf for the next array.
func hashEncoded(h hash.Hash, a []int32, buf []byte) []byte {
	for len(a) > 0 {
		n := min(len(a), 1024)
		buf = buf[:0]
		for _, v := range a[:n] {
			buf = binary.LittleEndian.AppendUint32(buf, uint32(v))
		}
		h.Write(buf)
		a = a[n:]
	}
	return buf
}
