package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"irred/internal/fault"
)

// Job checkpoint file format: magic "IRCJ" + version byte + varint spec
// JSON length + spec JSON + varint completed-sweep count + varint vector
// length + the vector's little-endian float bits + FNV-1a over everything
// before it. The trailing checksum means a torn write (crash mid-rename is
// impossible — writes go through tmp+rename — but a corrupted disk is not)
// is rejected at read time and the job simply restarts from sweep 0.
const (
	ckFileMagic   = "IRCJ"
	ckFileVersion = 1
	ckFileExt     = ".irc"
	// ckJobsDir is the subdirectory of the service's disk directory that
	// holds job checkpoints (next to the schedule cache files).
	ckJobsDir = "jobs"
)

// jobCheckpoint is the persisted mid-run state of a raw multi-sweep job:
// enough to re-admit the job after a restart and continue from Sweep.
type jobCheckpoint struct {
	Spec  JobSpec
	Sweep int // completed sweeps
	X     []float64
}

func ckPath(dir, id string) string {
	return filepath.Join(dir, id+ckFileExt)
}

// writeJobCheckpoint persists ck atomically (tmp + rename). The fault
// injector, when live, may fail the write — the caller treats that as a
// lost resume point, never as a job failure. Its decision is keyed on the
// file's name and the sweep, not on the directory.
func writeJobCheckpoint(path string, ck *jobCheckpoint, inj *fault.Injector) error {
	_, err := saveJobCheckpoint(path, ck, inj)
	return err
}

// saveJobCheckpoint is writeJobCheckpoint returning the IRCJ frame it
// wrote, for a caller that ships the same bytes on.
func saveJobCheckpoint(path string, ck *jobCheckpoint, inj *fault.Injector) ([]byte, error) {
	if err := inj.DiskWrite(filepath.Base(path), ck.Sweep); err != nil {
		return nil, err
	}
	specJSON, err := json.Marshal(ck.Spec)
	if err != nil {
		return nil, fmt.Errorf("service: checkpoint: %w", err)
	}
	frame := make([]byte, 0, len(ckFileMagic)+1+3*binary.MaxVarintLen64+len(specJSON)+8*len(ck.X)+8)
	frame = append(frame, ckFileMagic...)
	frame = append(frame, ckFileVersion)
	frame = binary.AppendVarint(frame, int64(len(specJSON)))
	frame = append(frame, specJSON...)
	frame = binary.AppendVarint(frame, int64(ck.Sweep))
	frame = binary.AppendVarint(frame, int64(len(ck.X)))
	for _, v := range ck.X {
		frame = binary.LittleEndian.AppendUint64(frame, math.Float64bits(v))
	}
	sum := fnv.New64a()
	sum.Write(frame)
	frame = binary.LittleEndian.AppendUint64(frame, sum.Sum64())
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, frame, 0o666); err != nil {
		os.Remove(tmp)
		return nil, fmt.Errorf("service: checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return frame, nil
}

// readJobCheckpoint loads and verifies one checkpoint file. Any structural
// damage — bad magic, short file, checksum mismatch, spec that no longer
// validates — is an error; the caller discards the file.
func readJobCheckpoint(path string) (*jobCheckpoint, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeJobCheckpoint(raw, path)
}

// decodeJobCheckpoint verifies and decodes IRCJ bytes, wherever they came
// from — a local file or a checkpoint frame replicated from a cluster
// peer. path only labels errors.
func decodeJobCheckpoint(raw []byte, path string) (*jobCheckpoint, error) {
	if len(raw) < len(ckFileMagic)+1+8 {
		return nil, fmt.Errorf("service: checkpoint %s: truncated", path)
	}
	body, tail := raw[:len(raw)-8], raw[len(raw)-8:]
	sum := fnv.New64a()
	sum.Write(body)
	if sum.Sum64() != binary.LittleEndian.Uint64(tail) {
		return nil, fmt.Errorf("service: checkpoint %s: checksum mismatch", path)
	}
	if string(body[:len(ckFileMagic)]) != ckFileMagic {
		return nil, fmt.Errorf("service: checkpoint %s: bad magic", path)
	}
	body = body[len(ckFileMagic):]
	if body[0] != ckFileVersion {
		return nil, fmt.Errorf("service: checkpoint %s: unsupported version %d", path, body[0])
	}
	// Every length is bounded by the bytes left in the frame before anything
	// is allocated for it: a peer can POST any frame it likes.
	rest := body[1:]
	specLen, k := binary.Varint(rest)
	if k <= 0 || specLen < 2 || specLen > int64(len(rest)-k) {
		return nil, fmt.Errorf("service: checkpoint %s: spec length %d", path, specLen)
	}
	specJSON, rest := rest[k:k+int(specLen)], rest[k+int(specLen):]
	spec, end, err := DecodeJobSpec(specJSON)
	if err == nil && len(bytes.TrimLeft(specJSON[end:], " \t\r\n")) > 0 {
		err = errors.New("bytes after the spec")
	}
	if err != nil {
		return nil, fmt.Errorf("service: checkpoint %s: %w", path, err)
	}
	ck := &jobCheckpoint{Spec: spec}
	if err := ck.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("service: checkpoint %s: stored spec: %w", path, err)
	}
	sweep, k := binary.Varint(rest)
	if k <= 0 || sweep < 1 || sweep > int64(ck.Spec.steps()) {
		return nil, fmt.Errorf("service: checkpoint %s: sweep %d of %d", path, sweep, ck.Spec.steps())
	}
	ck.Sweep, rest = int(sweep), rest[k:]
	n, k := binary.Varint(rest) // the vector fills the rest of the frame
	if k <= 0 || n < 1 || n > int64(len(rest)) || 8*int(n) != len(rest)-k {
		return nil, fmt.Errorf("service: checkpoint %s: vector length %d", path, n)
	}
	ck.X, rest = make([]float64, n), rest[k:]
	for i := range ck.X {
		ck.X[i] = math.Float64frombits(binary.LittleEndian.Uint64(rest[8*i:]))
	}
	return ck, nil
}

// scanJobCheckpoints lists the resumable checkpoints under dir, keyed by
// the job id encoded in the file name. Unreadable or corrupt files are
// deleted — a bad resume point is worth strictly less than a clean
// restart — EXCEPT files whose mtime is at or after the scan start: those
// may be mid-write by a concurrent writer (a cluster peer replicating a
// checkpoint into a shared directory, or a tool staging a resume file),
// and a half-written frame must not be garbage-collected out from under
// it. Such files are skipped this scan and judged by a later one.
func scanJobCheckpoints(dir string) map[string]*jobCheckpoint {
	scanStart := time.Now()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	out := make(map[string]*jobCheckpoint)
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ckFileExt) {
			continue
		}
		path := filepath.Join(dir, name)
		ck, err := readJobCheckpoint(path)
		if err != nil {
			if fi, serr := os.Stat(path); serr == nil && !fi.ModTime().Before(scanStart) {
				continue // concurrent writer: skip, never delete
			}
			os.Remove(path)
			continue
		}
		out[strings.TrimSuffix(name, ckFileExt)] = ck
	}
	return out
}
