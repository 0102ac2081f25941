package service

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolJob builds a minimal job usable by the bare pool (no service).
func poolJob(id string) *Job {
	ctx, cancel := context.WithCancel(context.Background())
	return &Job{ID: id, ctx: ctx, cancel: cancel, done: make(chan struct{}), state: StateQueued, created: time.Now()}
}

// TestPoolSurvivesPanickingJobs is the capacity-regression test: N
// panicking jobs must leave the pool able to run N more jobs on the same
// workers — a panic costs one job, never a worker goroutine.
func TestPoolSurvivesPanickingJobs(t *testing.T) {
	const workers, n = 2, 16
	var recovered atomic.Int64
	var ran atomic.Int64
	var wg sync.WaitGroup
	p := newPool(workers, n*2, func(j *Job) {
		if j.Spec.Kernel == "boom" {
			panic("poisoned job " + j.ID)
		}
		ran.Add(1)
		wg.Done()
	}, func(j *Job, v any, stack []byte) {
		recovered.Add(1)
		wg.Done()
	})
	defer p.close()

	wg.Add(n)
	for i := 0; i < n; i++ {
		j := poolJob("bad")
		j.Spec.Kernel = "boom"
		if err := p.submit(j); err != nil {
			t.Fatal(err)
		}
	}
	// A panicking job is done once its panic has been recovered and
	// counted, so this waits for all of them.
	waitDone(t, &wg)
	if got := recovered.Load(); got != n {
		t.Fatalf("recovered %d panics, want %d", got, n)
	}

	// Full capacity must remain: n fresh jobs all run.
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := p.submit(poolJob("ok")); err != nil {
			t.Fatal(err)
		}
	}
	waitDone(t, &wg)
	if got := ran.Load(); got != n {
		t.Fatalf("ran %d jobs after the panics, want %d", got, n)
	}
}

// TestPoolPanicInCallbackDoesNotKillWorker: even a nil onPanic (or one
// that observes a panicking job) leaves the worker alive.
func TestPoolPanicWithNilCallback(t *testing.T) {
	var wg sync.WaitGroup
	p := newPool(1, 4, func(j *Job) {
		defer wg.Done()
		panic("boom")
	}, nil)
	defer p.close()
	wg.Add(2)
	if err := p.submit(poolJob("a")); err != nil {
		t.Fatal(err)
	}
	if err := p.submit(poolJob("b")); err != nil {
		t.Fatal(err)
	}
	waitDone(t, &wg)
}

// TestPoolQueueCounters pins the cumulative admission counters: with the
// single worker blocked, every later submission must sit in the queue, so
// the high-water mark is deterministic.
func TestPoolQueueCounters(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	p := newPool(1, 4, func(*Job) {
		started <- struct{}{}
		<-block
	}, nil)
	defer p.close()
	defer close(block) // runs before p.close: unblocks the worker first

	for i := 0; i < 4; i++ {
		if err := p.submit(poolJob("q")); err != nil {
			t.Fatal(err)
		}
	}
	<-started // the worker holds one job; at most one ever left the queue
	depth, peak, enqueued := p.queueStats()
	if enqueued != 4 {
		t.Fatalf("enqueued = %d, want 4", enqueued)
	}
	if peak < 3 || peak > 4 {
		t.Fatalf("peak = %d, want 3 or 4 with a blocked single worker", peak)
	}
	if depth != 3 {
		t.Fatalf("depth = %d, want 3 (one held by the worker)", depth)
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("pool lost capacity: jobs never finished")
	}
}
