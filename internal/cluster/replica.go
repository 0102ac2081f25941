package cluster

import (
	"container/list"
	"sync"
)

// replicaStore is the bounded in-memory home for checkpoint frames pushed
// by peers. When a node owns a job it writes IRCJ checkpoint frames
// locally (crash-restart safety, as before) and ships each frame to the
// routing key's ring successor — which is exactly the node the router
// fails over to when the owner dies. The successor seeds the replayed job
// from the replica and resumes mid-sweep instead of recomputing from
// scratch; if the replica is missing (ring moved, store evicted), the
// replay still succeeds from the spec because jobs are deterministic.
// Replication is therefore a latency optimization with a correct fallback,
// never a correctness dependency.
//
// Frames are whole-checkpoint snapshots, so the newest frame per job
// simply replaces the previous one. A frame leaves only by eviction, LRU
// over jobs and bounded by both job count and total bytes; a finished
// job's replica stays until newer frames push it out.
type replicaStore struct {
	maxJobs  int
	maxBytes int64

	mu      sync.Mutex
	ll      *list.List // front = most recently written
	items   map[string]*list.Element
	bytes   int64
	stored  int64 // frames ever accepted
	evicted int64
}

type replicaEntry struct {
	uid   string
	frame []byte
}

func newReplicaStore(maxJobs int, maxBytes int64) *replicaStore {
	if maxJobs < 1 {
		maxJobs = 64
	}
	if maxBytes < 1 {
		maxBytes = 64 << 20
	}
	return &replicaStore{
		maxJobs:  maxJobs,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// put stores (replacing) the frame for uid. Oversized frames are refused
// rather than evicting the whole store.
func (s *replicaStore) put(uid string, frame []byte) bool {
	if int64(len(frame)) > s.maxBytes {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[uid]; ok {
		e := el.Value.(*replicaEntry)
		s.bytes += int64(len(frame)) - int64(len(e.frame))
		e.frame = frame
		s.ll.MoveToFront(el)
	} else {
		s.items[uid] = s.ll.PushFront(&replicaEntry{uid: uid, frame: frame})
		s.bytes += int64(len(frame))
	}
	s.stored++
	for s.ll.Len() > s.maxJobs || s.bytes > s.maxBytes {
		el := s.ll.Back()
		e := el.Value.(*replicaEntry)
		s.ll.Remove(el)
		delete(s.items, e.uid)
		s.bytes -= int64(len(e.frame))
		s.evicted++
	}
	return true
}

// get returns the stored frame for uid, nil if absent. The returned slice
// is the stored one; callers must not mutate it (the service decodes it
// read-only).
func (s *replicaStore) get(uid string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.items[uid]; ok {
		return el.Value.(*replicaEntry).frame
	}
	return nil
}

// stats returns (resident jobs, resident bytes, frames ever stored,
// evictions).
func (s *replicaStore) statsSnapshot() (jobs int, bytes, stored, evicted int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ll.Len(), s.bytes, s.stored, s.evicted
}
