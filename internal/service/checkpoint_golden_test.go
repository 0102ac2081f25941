package service

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// ircjGolden is the SHA-256 of one fixed IRCJ frame. A checkpoint file and
// a cluster replica carry these bytes, so a daemon must keep writing them
// for a resume or a failover across versions to find what it expects.
const ircjGolden = "e5b3bae325adb7b6a97942a47d2481d7592e4b762be23ce7e0a6ce035f81d532"

// TestCheckpointFrameGolden pins the IRCJ frame of a fixed raw spec at
// sweep 2: magic, version, the spec's JSON, the sweep, the vector and the
// checksum. Removing a JobSpec field that was omitted when empty leaves it
// unchanged.
func TestCheckpointFrameGolden(t *testing.T) {
	spec := robustSpec(1, 6)
	spec.Dist, spec.CheckpointEvery, spec.ClusterUID = "block", 2, "00c0ffee"
	half := spec
	half.Steps = 2
	x, err := half.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	frame, err := saveJobCheckpoint(ckPath(t.TempDir(), "j000001"), &jobCheckpoint{Spec: spec, Sweep: 2, X: x}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(frame)
	if got := hex.EncodeToString(sum[:]); got != ircjGolden {
		t.Fatalf("IRCJ frame SHA-256 = %s, want %s (%d bytes)", got, ircjGolden, len(frame))
	}
}
