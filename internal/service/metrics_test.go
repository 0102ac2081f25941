package service

import "testing"

// The metrics snapshot exports the cumulative queue and schedule-cache
// counters alongside the nested cache block.
func TestMetricsQueueAndCacheCounters(t *testing.T) {
	s := newTestService(t, Options{Workers: 1})
	spec := rawSpec(5, 2, 1, 600, 64, 1)
	for i := 0; i < 2; i++ {
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != StateDone {
			t.Fatalf("job %s: %s", st.State, st.Error)
		}
	}
	m := s.Metrics()
	if m.QueueEnqueued != 2 {
		t.Fatalf("queue_enqueued = %d, want 2", m.QueueEnqueued)
	}
	if m.QueuePeak < 0 || m.QueuePeak > 2 {
		t.Fatalf("queue_peak = %d outside [0,2]", m.QueuePeak)
	}
	if m.CacheHitsTotal != m.Cache.Hits || m.CacheMissesTotal != m.Cache.Misses {
		t.Fatalf("top-level cache counters (%d/%d) diverge from nested (%d/%d)",
			m.CacheHitsTotal, m.CacheMissesTotal, m.Cache.Hits, m.Cache.Misses)
	}
	// Two identical jobs: the first misses the schedule cache, the second hits.
	if m.CacheMissesTotal < 1 || m.CacheHitsTotal < 1 {
		t.Fatalf("cache traffic hits=%d misses=%d, want at least one of each", m.CacheHitsTotal, m.CacheMissesTotal)
	}
}
