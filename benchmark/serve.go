package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"irred/internal/inspector"
	"irred/internal/obs"
	"irred/internal/rts"
	"irred/internal/service"
)

// The raw job every serving workload submits: 32,768 iterations x 2
// references over 4,096 elements, equal-and-opposite integral weights (so
// any summation order is bitwise equal to the sequential loop), 4 sweeps.
const (
	rawIters = 32768
	rawElems = 4096
	rawSteps = 4

	coldPool     = 64 // distinct jobs cycled in order ...
	cacheEntries = 16 // ... through an LRU this small: never a hit
	warmPool     = 4

	// retained is the daemons' MaxFinished. A finished job keeps its spec
	// (0.5 MB here); at the default 1024 the heap would grow through the
	// whole window, at 16 it is steady once 16 jobs per daemon have run.
	retained = 16
)

// daemonOptions is the configuration of every daemon the benchmark boots:
// untraced means no span ring at all, traced the default ring.
func daemonOptions(traced bool) service.Options {
	opt := service.Options{CacheEntries: cacheEntries, MaxFinished: retained, TraceSpans: -1}
	if traced {
		opt.TraceSpans = 0
	}
	return opt
}

// rawSpec draws one raw job from seed.
func rawSpec(seed int64, p int) service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	ind := [][]int32{make([]int32, rawIters), make([]int32, rawIters)}
	w := make([]float64, rawIters)
	for i := 0; i < rawIters; i++ {
		ind[0][i] = int32(rng.Intn(rawElems))
		ind[1][i] = int32(rng.Intn(rawElems))
		w[i] = float64(1 + rng.Intn(8))
	}
	return service.JobSpec{
		NumIters: rawIters, NumElems: rawElems, Ind: ind,
		Contrib: &service.ContribSpec{Kind: "pair", Weights: w},
		P:       p, K: strategyK, Dist: strategyDist.String(), Steps: rawSteps,
	}
}

// rawLoop is the rts loop the service builds for a raw spec.
func rawLoop(sp *service.JobSpec) *rts.Loop {
	return &rts.Loop{
		Cfg: inspector.Config{
			P: sp.P, K: sp.K, NumIters: sp.NumIters, NumElems: sp.NumElems, Dist: strategyDist,
		},
		Mode: rts.Reduce,
		Ind:  sp.Ind,
	}
}

// pairContribs is the "pair" contribution of a raw spec: +w at reference
// 0, -w at reference 1.
func pairContribs(sp *service.JobSpec) rts.ContribFunc {
	w := sp.Contrib.Weights
	return func(_, i int, out []float64) { out[0], out[1] = w[i], -w[i] }
}

// pooledJob is a request generated, marshalled and solved before any
// timed window opens.
type pooledJob struct {
	spec service.JobSpec
	body []byte
	sha  string // HashResult(SequentialRaw()), the bitwise oracle
}

// makePool draws n jobs. salt keeps the pools of different workloads
// apart under one seed.
func makePool(r *result, e *env, salt int64, n int) ([]pooledJob, error) {
	pool := make([]pooledJob, n)
	var encode []float64
	for i := range pool {
		j := &pool[i]
		j.spec = rawSpec(e.seed*1_000_003+salt*1009+int64(i), e.P)
		t := time.Now()
		body, err := json.Marshal(&j.spec)
		if err != nil {
			return nil, err
		}
		encode = append(encode, ms(time.Since(t)))
		j.body = body
		x, err := j.spec.SequentialRaw()
		if err != nil {
			return nil, err
		}
		j.sha = service.HashResult(x)
	}
	r.detail(summarize("client.encode_ms", "ms", encode),
		value("service.body_bytes", float64(len(pool[0].body)), "B"))
	return pool, nil
}

// daemon is an in-process irredd: a service behind its HTTP handler on a
// loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	done chan struct{}
	url  string
}

// serveHTTP starts h on ln; the returned channel closes when the server
// has stopped.
func serveHTTP(ln net.Listener, h http.Handler) (*http.Server, chan struct{}) {
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve(ln) // returns once Close is called
	}()
	return srv, done
}

// startDaemon is the daemon's boot path: service.New, listener, /readyz.
func (e *env) startDaemon(opt service.Options) (*daemon, error) {
	svc, err := service.New(opt)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		svc.Close()
		return nil, err
	}
	d := &daemon{svc: svc, url: "http://" + ln.Addr().String()}
	d.srv, d.done = serveHTTP(ln, svc.Handler())
	if err := e.ready(d.url); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

func (d *daemon) stop() {
	d.srv.Close()
	<-d.done
	d.svc.Close()
}

// ready checks /readyz.
func (e *env) ready(url string) error {
	resp, err := e.httpc.Get(url + "/readyz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/readyz: %s", url, resp.Status)
	}
	return nil
}

var errShed = errors.New("shed with 429")

// post sends a prepared body and decodes a 2xx JSON answer into out. A
// 429 is reported as errShed, never retried away.
func (e *env) post(url, contentType string, body []byte, out any) (http.Header, error) {
	resp, err := e.httpc.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusTooManyRequests {
		io.Copy(io.Discard, resp.Body)
		return nil, errShed
	}
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return nil, fmt.Errorf("%s: %s: %s", url, resp.Status, bytes.TrimSpace(msg))
	}
	return resp.Header, json.NewDecoder(resp.Body).Decode(out)
}

// jobStats collects what the answers of one client said about the server
// side of each job.
type jobStats struct {
	queued, run, over []float64 // ms per job; over = client latency - queued - run
	hits, sheds       int
}

// submitter issues pooled jobs in pool order from a shared cursor and
// checks every answer against the pooled oracle.
type submitter struct {
	e      *env
	pool   []pooledJob
	target func(job int) string               // base URL the job is posted to
	check  func(job int, h http.Header) error // extra per-answer check, may be nil
	cursor atomic.Int64
	stats  []jobStats // per client
}

func (e *env) newSubmitter(pool []pooledJob, target func(int) string) *submitter {
	return &submitter{e: e, pool: pool, target: target, stats: make([]jobStats, e.C)}
}

func (s *submitter) op(c, _ int) (int, error) {
	i := int((s.cursor.Add(1) - 1) % int64(len(s.pool)))
	job := &s.pool[i]
	var st service.JobStatus
	t := time.Now()
	hdr, err := s.e.post(s.target(i)+"/v1/jobs?wait=1&result=0", "application/json", job.body, &st)
	lat := ms(time.Since(t))
	js := &s.stats[c]
	if err != nil {
		if errors.Is(err, errShed) {
			js.sheds++
		}
		return 0, err
	}
	if st.State != service.StateDone {
		return 0, fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if st.ResultSHA256 != job.sha {
		return 0, fmt.Errorf("job %s: result differs from the sequential oracle", st.ID)
	}
	if s.check != nil {
		if err := s.check(i, hdr); err != nil {
			return 0, err
		}
	}
	js.queued = append(js.queued, st.QueuedMS)
	js.run = append(js.run, st.RunMS)
	js.over = append(js.over, lat-st.QueuedMS-st.RunMS)
	if st.CacheHit {
		js.hits++
	}
	return 1, nil
}

// prime submits the first n pooled jobs, outside any window: connections
// open, caches fill where they can.
func (s *submitter) prime(n int) error {
	for ; n > 0; n-- {
		if _, err := s.op(0, 0); err != nil {
			return err
		}
	}
	s.stats = make([]jobStats, s.e.C)
	return nil
}

// report emits the service.* details of the jobs since the last prime.
func (s *submitter) report(r *result) {
	var all jobStats
	for _, js := range s.stats {
		all.queued = append(all.queued, js.queued...)
		all.run = append(all.run, js.run...)
		all.over = append(all.over, js.over...)
		all.hits += js.hits
		all.sheds += js.sheds
	}
	mean := func(v []float64) float64 {
		var sum float64
		for _, x := range v {
			sum += x
		}
		return sum / float64(len(v))
	}
	r.detail(
		value("service.queued_ms", mean(all.queued), "ms"),
		value("service.run_ms", mean(all.run), "ms"),
		value("service.overhead_ms", quantile(all.over, 0.5), "ms"),
		value("service.cache_hit_ratio", float64(all.hits)/float64(len(all.run)), "ratio"),
		value("service.shed", float64(all.sheds), "count"))
}

// serveWindows is the measured part shared by serve.* and cluster.hop:
// untraced, one window; traced, a reference window against the untraced
// target, then the same stream against the traced one.
func (e *env) serveWindows(r *result, plain, traced *submitter, prime int) error {
	if err := plain.prime(prime); err != nil {
		return err
	}
	runtime.GC() // set-up and priming garbage is not the window's
	if !e.trace {
		w := drive(e.C, e.window, plain.op)
		r.count(w)
		r.add(w.throughput("ops_per_s"), w.latency("latency_p50_ms", 0.5))
		r.detail(w.latency("client.latency_p95_ms", 0.95))
		plain.report(r)
		return nil
	}
	ref := drive(e.C, e.share(0.3), plain.op)
	r.count(ref)
	plain.report(r)

	if err := traced.prime(prime); err != nil {
		return err
	}
	tw := drive(e.C, e.share(0.3), traced.op)
	r.count(tw)
	r.add(overhead(ref, tw))
	r.detail(ref.latency("client.latency_loaded_ms", 0.5))
	return nil
}

func runServeCold(e *env, r *result) error { return runServe(e, r, true) }
func runServeWarm(e *env, r *result) error { return runServe(e, r, false) }

// runServe: one irredd, C closed-loop clients, every answer verified.
// Cold cycles 64 jobs through a 16-entry memory-only cache; warm cycles 4
// jobs whose schedule sets are already in the daemon's disk cache.
func runServe(e *env, r *result, cold bool) error {
	n, salt := warmPool, int64(2)
	if cold {
		n, salt = coldPool, 1
	}
	pool, err := makePool(r, e, salt, n)
	if err != nil {
		return err
	}
	opt, topt := daemonOptions(false), daemonOptions(true)
	if !cold {
		// The restart-with-warm-disk-cache path: New loads the hot sets.
		opt.CacheDir = filepath.Join(e.tmp, "warm-cache")
		topt.CacheDir = opt.CacheDir
		disk, err := service.NewCache(cacheEntries, opt.CacheDir)
		if err != nil {
			return err
		}
		for i := range pool {
			l := rawLoop(&pool[i].spec)
			scheds, err := l.Schedules()
			if err != nil {
				return err
			}
			if err := disk.Put(inspector.ScheduleKey(l.Cfg, l.Ind...), scheds); err != nil {
				return err
			}
		}
	}
	// Set-up: boot to the first verified answer. On the warm daemon that
	// answer must come from the schedules New read from disk.
	if err := e.setup(r, func() (time.Duration, error) {
		t := time.Now()
		d, err := e.startDaemon(opt)
		if err != nil {
			return 0, err
		}
		defer d.stop()
		first := e.newSubmitter(pool, func(int) string { return d.url })
		if _, err := first.op(0, 0); err != nil {
			return 0, err
		}
		took := time.Since(t)
		if hit := first.stats[0].hits == 1; hit == cold {
			return 0, fmt.Errorf("first job after boot: cache hit = %v", hit)
		}
		return took, nil
	}); err != nil {
		return err
	}

	d, err := e.startDaemon(opt)
	if err != nil {
		return err
	}
	defer d.stop()
	plain := e.newSubmitter(pool, func(int) string { return d.url })
	var traced *submitter
	if e.trace {
		td, err := e.startDaemon(topt)
		if err != nil {
			return err
		}
		defer td.stop()
		traced = e.newSubmitter(pool, func(int) string { return td.url })
	}
	if err := e.serveWindows(r, plain, traced, 2*retained); err != nil {
		return err
	}

	// Premise: cold never hits, warm always does. Read from the job
	// answers of the measured windows; the daemon's own counters agree.
	var hits, jobs int
	for _, js := range plain.stats {
		hits += js.hits
		jobs += len(js.run)
	}
	ratio := float64(hits) / float64(jobs)
	if cold && ratio != 0 {
		r.problem("serve.cold premise: cache hit ratio %.3f, want 0", ratio)
	}
	if !cold && ratio < 0.99 {
		r.problem("serve.warm premise: cache hit ratio %.3f, want >= 0.99", ratio)
	}
	if !e.trace {
		return nil
	}
	// With the windows over the daemon is idle: a job submitted now is
	// answered at single-client latency.
	probe := func() (float64, error) {
		t := time.Now()
		_, err := plain.op(0, 0)
		r.Attempted++ // a failed probe aborts the run with its error
		return ms(time.Since(t)), err
	}
	if err := replay(r, pool, cold, probe, e.share(0.15)); err != nil {
		return err
	}
	return rawLayers(e, r, &pool[0].spec, e.share(0.25))
}

// replaySpan is one step of the layer replay: name, start, end, the span
// that caused it and the request they all belong to.
type replaySpan struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  string `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// replay performs one request's steps by hand, each under its own span:
// marshal, decode, Validate, ScheduleKey, Cache.Get, Light (cold only),
// NewNativeFrom, Run, HashResult, encode the status — over the pooled jobs
// in order, as the daemon meets them. The sum of the step medians from
// decode on (the measured clients send bodies marshalled beforehand)
// against the single-client latency is service.replay_closure: what the
// steps do not explain is HTTP, the queue hand-off and the scheduler. Each
// replayed request is paired with one real request to the idle daemon
// through probe, so a slow stretch of the host slows both alike.
func replay(r *result, pool []pooledJob, cold bool, probe func() (float64, error), budget time.Duration) error {
	cache, err := service.NewCache(cacheEntries, "")
	if err != nil {
		return err
	}
	byStep := map[string][]float64{}
	var order []string
	var spans []replaySpan
	t0 := time.Now()
	request := 0
	step := func(name string, fn func() error) error {
		start := time.Since(t0)
		err := fn()
		end := time.Since(t0)
		if _, seen := byStep[name]; !seen {
			order = append(order, name)
		}
		byStep[name] = append(byStep[name], ms(end-start))
		spans = append(spans, replaySpan{Name: name, Request: request, Parent: "request", StartNS: int64(start), EndNS: int64(end)})
		return err
	}
	one := func() error {
		job := &pool[request%len(pool)]
		spans = spans[:0]
		var body []byte
		var spec service.JobSpec
		var key string
		var scheds []*inspector.Schedule
		var hit bool
		var nat *rts.Native
		var sha string
		var l *rts.Loop
		start := time.Since(t0)
		steps := []struct {
			name string
			fn   func() error
		}{
			{"client.encode", func() (err error) { body, err = json.Marshal(&job.spec); return }},
			{"service.decode", func() error {
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				return dec.Decode(&spec)
			}},
			{"service.validate", func() error { return spec.Validate() }},
			{"inspector.key", func() error {
				l = rawLoop(&spec)
				key = inspector.ScheduleKey(l.Cfg, l.Ind...)
				return nil
			}},
			{"service.cache_get", func() error { scheds, hit = cache.Get(key); return nil }},
			{"inspector.light", func() (err error) {
				if hit {
					return nil
				}
				if scheds, err = l.Schedules(); err != nil {
					return err
				}
				if !cold {
					return cache.Put(key, scheds)
				}
				return nil
			}},
			{"rts.new_native", func() (err error) {
				nat, err = rts.NewNativeFrom(l, scheds)
				if err == nil {
					nat.Contribs = pairContribs(&spec)
				}
				return err
			}},
			{"rts.run", func() error { return nat.Run(rawSteps) }},
			{"service.hash", func() error { sha = service.HashResult(nat.X); return nil }},
			{"service.encode_status", func() error {
				_, err := json.Marshal(service.JobStatus{
					ID: "j000001", State: service.StateDone, CacheHit: hit, ScheduleKey: key,
					ResultLen: len(nat.X), ResultSHA256: sha,
				})
				return err
			}},
		}
		for _, s := range steps {
			if err := step(s.name, s.fn); err != nil {
				return fmt.Errorf("replay %s: %w", s.name, err)
			}
		}
		spans = append(spans, replaySpan{Name: "request", Request: request, StartNS: int64(start), EndNS: int64(time.Since(t0))})
		if sha != job.sha {
			return fmt.Errorf("replay: result differs from the sequential oracle")
		}
		request++
		return nil
	}
	if !cold {
		for range pool { // fills the replay's cache, as prime fills the daemon's
			if err := one(); err != nil {
				return err
			}
		}
		byStep, order = map[string][]float64{}, nil
	}
	var solo []float64
	for t, first := time.Now(), request; request < first+3 || time.Since(t) < budget; {
		if err := one(); err != nil {
			return err
		}
		lat, err := probe()
		if err != nil {
			return err
		}
		solo = append(solo, lat)
	}
	var sum float64
	for _, name := range order {
		m := summarize("replay."+name+"_ms", "ms", byStep[name])
		r.detail(m)
		if name != "client.encode" {
			sum += m.Value
		}
	}
	soloMS := summarize("client.latency_solo_ms", "ms", solo)
	closure := sum / soloMS.Value
	r.detail(soloMS, value("service.replay_ms", sum, "ms"), value("service.replay_closure", closure, "ratio"),
		value("service.decode_ms", quantile(byStep["service.decode"], 0.5)+quantile(byStep["service.validate"], 0.5), "ms"),
		value("service.hash_ms", quantile(byStep["service.hash"], 0.5), "ms"))
	r.Spans = append([]replaySpan(nil), spans...)
	r.checkClosure("service.replay_closure", closure)
	return nil
}

// rawLayers measures the layers under a raw job outside the daemon: the
// engine with an obs.Tracer attached (NewNativeFrom + Run per job, as the
// service does), the sequential loop, and the inspector's primitives.
func rawLayers(e *env, r *result, sp *service.JobSpec, budget time.Duration) error {
	l := rawLoop(sp)
	scheds, err := l.Schedules()
	if err != nil {
		return err
	}
	tr := obs.New(traceCapacity)
	var acc engineTrace
	for t := time.Now(); acc.sweeps < 3*rawSteps || time.Since(t) < budget/5; {
		nat, err := rts.NewNativeFrom(l, scheds)
		if err != nil {
			return err
		}
		nat.Contribs = pairContribs(sp)
		nat.Trace = tr
		wall, err := timed(func() error { return nat.Run(rawSteps) })
		if err != nil {
			return err
		}
		acc.add(tr, wall, rawSteps)
	}
	acc.report(r, l.Cfg)
	if err := seqSweep(r, budget/5, rawSteps, func() { sp.SequentialRaw() }); err != nil {
		return err
	}
	// Two index streams and the weights per iteration; the reduction array.
	r.add(computedBytes(rawIters*(4+4+8) + rawElems*8))
	return inspectorLayers(r, l, e.seed, budget*3/5)
}
