// Command irredload is a closed-loop load generator and soak harness for
// irredd. It drives a configurable mix of named kernels (mvm, euler,
// moldyn) through the HTTP API with N concurrent workers, optionally
// paced to a target aggregate QPS, and reports a latency histogram with
// percentiles, the cache-hit ratio observed server-side, and 429
// load-shed counts.
//
// It doubles as a correctness soak: the native engine is deterministic
// (per-element accumulation order is fixed by the portion rotation), so
// the result SHA-256 of a given (kernel, dataset, seed, P, k, steps)
// job is stable. irredload remembers the first SHA it sees per job key
// and counts any later disagreement as a mismatch; a nonzero mismatch
// count fails the run. CI runs this against a race-detector build of
// irredd.
//
//	irredload -addr http://127.0.0.1:8321 -duration 10s -concurrency 8
//	irredload -mix mvm=1,euler=2,moldyn=1 -qps 50 -duration 30s -json
//
// With -cluster url1,url2,url3 it drives a coordinator-light irredd fleet:
// submissions round-robin across the listed nodes (any node routes to the
// key's owner), a node that fails at the transport level is skipped for
// the next node in the list (client-side failover, counted per node), and
// the cache-hit ratio is aggregated across every node's /metrics — the
// number that shows whether consistent-hash sharding is keeping the fleet
// cache warm. The SHA oracles are unchanged: a cluster that loses or
// corrupts a job under failover fails the run exactly like a single node
// would.
//
// With -deltas it becomes the streaming soak: each worker opens one
// session, keeps a local mirror of its indirection arrays, and streams
// sparse deltas rewiring -delta-frac of the iterations per round. After
// every delta the server's result SHA must match the sequential reduction
// of the mirror — the resident incrementally-updated schedule is checked
// against ground truth on every step. A 410 (evicted or restarted daemon)
// reopens the session from the mirror; mismatches fail the run.
//
// Exit status: 0 on a clean run, 1 on result mismatches or job failures,
// 2 on usage/connection errors.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"irred/internal/buildinfo"
	"irred/internal/kernels"
	"irred/internal/obs"
	"irred/internal/service"
	"irred/internal/service/client"
)

// jobKey identifies a deterministic job; equal keys must yield equal
// result hashes.
type jobKey struct {
	Kernel  string
	Dataset string
	Seed    int64
	P, K    int
	Steps   int
}

// spec builds the wire JobSpec for the key.
func (k jobKey) spec() service.JobSpec {
	return service.JobSpec{
		Kernel:  k.Kernel,
		Dataset: k.Dataset,
		Seed:    k.Seed,
		P:       k.P, K: k.K, Steps: k.Steps,
	}
}

// rawSpec draws a deterministic raw reduction of iters iterations over
// elems elements from seed: integral weights keep every partial sum
// exactly representable, so the expected result (and its SHA) is
// computable locally with SequentialRaw and any divergence shows up as a
// hash mismatch, not a tolerance question. Strategy and steps are filled
// in by the caller.
func rawSpec(seed int64, iters, elems int) service.JobSpec {
	rng := rand.New(rand.NewSource(seed*2654435761 + 97))
	ind := make([][]int32, 2)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	w := make([]float64, iters)
	for i := range w {
		w[i] = float64(1 + rng.Intn(9))
	}
	return service.JobSpec{
		NumIters: iters, NumElems: elems, Ind: ind,
		Contrib: &service.ContribSpec{Kind: "weights", Weights: w},
	}
}

// Shape of the -emit-long-job spec. Its run time is iterations × steps,
// so -steps sizes it; at these extents the JSON stays near 100 KB, and a
// checkpoint every longJobCkEvery sweeps lands several times a second.
const (
	longJobIters, longJobElems = 8192, 2048
	longJobCkEvery             = 10
)

// longJob is the job the CI TERM/resume and owner-kill checks submit: a
// checkpointed native raw reduction.
func longJob(steps int) service.JobSpec {
	spec := rawSpec(0, longJobIters, longJobElems)
	spec.P, spec.K, spec.Steps = 3, 2, steps
	spec.CheckpointEvery = longJobCkEvery
	return spec
}

// streamDelta draws a sparse delta rewiring n of the spec's iterations to
// fresh random targets. The delta is NOT yet applied to the spec.
func streamDelta(rng *rand.Rand, spec *service.JobSpec, frac float64) *service.Delta {
	n := int(frac * float64(spec.NumIters))
	if n < 1 {
		n = 1
	}
	perm := rng.Perm(spec.NumIters)[:n]
	sort.Ints(perm)
	d := &service.Delta{Changed: make([]int32, n), Values: make([][]int32, len(spec.Ind))}
	for r := range d.Values {
		d.Values[r] = make([]int32, n)
	}
	for j, it := range perm {
		d.Changed[j] = int32(it)
		for r := range d.Values {
			d.Values[r][j] = int32(rng.Intn(spec.NumElems))
		}
	}
	return d
}

// applyDeltaLocal commits a delta to the local indirection mirror, the
// same write the server performs on its resident copy.
func applyDeltaLocal(spec *service.JobSpec, d *service.Delta) {
	for j, it := range d.Changed {
		for r := range d.Values {
			spec.Ind[r][it] = d.Values[r][j]
		}
	}
}

// mixEntry is one kernel, the dataset its jobs name, and a selection
// weight.
type mixEntry struct {
	kernel, dataset string
	weight          int
}

// parseMix parses "mvm=1,euler=2" into a weighted kernel list, each kernel
// on its entry in datasets, checked against the kernels table.
func parseMix(s string, datasets map[string]string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wstr, found := strings.Cut(part, "=")
		w := 1
		if found {
			var err error
			if w, err = strconv.Atoi(wstr); err != nil || w < 0 {
				return nil, fmt.Errorf("bad weight in %q", part)
			}
		}
		ds, err := kernels.Dataset(name, datasets[name])
		if err != nil {
			return nil, err
		}
		if w > 0 {
			mix = append(mix, mixEntry{kernel: name, dataset: ds, weight: w})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return mix, nil
}

// pick selects a mix entry by weight.
func pick(mix []mixEntry, rng *rand.Rand) mixEntry {
	total := 0
	for _, m := range mix {
		total += m.weight
	}
	n := rng.Intn(total)
	for _, m := range mix {
		if n < m.weight {
			return m
		}
		n -= m.weight
	}
	return mix[len(mix)-1]
}

// nodeReport is the per-node slice of a cluster run.
type nodeReport struct {
	URL       string  `json:"url"`
	Jobs      int64   `json:"jobs"`
	Sheds     int64   `json:"sheds"`
	Failovers int64   `json:"failovers"` // submissions that arrived here after a prior node failed
	P50ms     float64 `json:"p50_ms"`
	P99ms     float64 `json:"p99_ms"`
}

// report is the machine-readable run summary (-json).
type report struct {
	Duration    string  `json:"duration"`
	Concurrency int     `json:"concurrency"`
	Jobs        int64   `json:"jobs"`
	Failures    int64   `json:"failures"`
	Mismatches  int64   `json:"mismatches"`
	Sheds       int64   `json:"sheds"`
	QPS         float64 `json:"qps"`
	P50ms       float64 `json:"p50_ms"`
	P90ms       float64 `json:"p90_ms"`
	P99ms       float64 `json:"p99_ms"`
	MaxMs       float64 `json:"max_ms"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	CacheRatio  float64 `json:"cache_hit_ratio"`

	// Streaming (-deltas) counters: deltas applied server-side during the
	// run, split by maintenance path, plus session reopens after 410s.
	Deltas      int64 `json:"deltas,omitempty"`
	Incremental int64 `json:"incremental_updates,omitempty"`
	Full        int64 `json:"full_reinspects,omitempty"`
	Reopens     int64 `json:"session_reopens,omitempty"`

	// Cluster (-cluster) counters: client-side failovers (a submission
	// completed on a later node after an earlier one failed at the
	// transport level) and the per-node breakdown.
	Failovers int64        `json:"failovers,omitempty"`
	Nodes     []nodeReport `json:"nodes,omitempty"`
}

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8321", "irredd base URL")
	clusterFlag := flag.String("cluster", "", "comma-separated irredd base URLs: round-robin submission across the fleet with client-side failover (overrides -addr)")
	duration := flag.Duration("duration", 10*time.Second, "how long to drive load")
	concurrency := flag.Int("concurrency", 4, "closed-loop workers")
	qps := flag.Float64("qps", 0, "target aggregate submissions/sec (0 = unpaced, full closed loop)")
	mixFlag := flag.String("mix", "mvm=1,euler=1,moldyn=1", "kernel mix as name=weight,...")
	seeds := flag.Int("seeds", 8, "distinct seeds per kernel (smaller = hotter schedule cache)")
	steps := flag.Int("steps", 3, "executor steps per job")
	maxP := flag.Int("max-p", 4, "processors drawn from 1..max-p")
	maxK := flag.Int("max-k", 2, "phase blocking factor drawn from 1..max-k")
	mvmDataset := flag.String("mvm-dataset", "S", "mvm dataset class (S, W, A, B)")
	meshDataset := flag.String("mesh-dataset", "2k", "euler/moldyn dataset (2k, 10k)")
	maxSamples := flag.Int("max-samples", 1<<16, "latency samples retained for percentiles")
	jsonOut := flag.Bool("json", false, "print the summary as JSON (for CI assertions)")
	deltasMode := flag.Bool("deltas", false, "drive streaming sessions: one session per worker, sparse indirection deltas verified against the local sequential oracle every round")
	deltaFrac := flag.Float64("delta-frac", 0.05, "fraction of iterations each -deltas round rewires")
	emitLongJob := flag.Bool("emit-long-job", false, "print a long checkpointed raw job spec as JSON and exit (for the CI TERM/resume check); -steps sizes its run time")
	emitLongSHA := flag.Bool("emit-long-sha", false, "print the sequential-oracle SHA for the -emit-long-job spec and exit")
	emitSessionJob := flag.Bool("emit-session-job", false, "print a session-openable raw job spec as JSON and exit (for the CI restart/410 check)")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredload " + buildinfo.Get().String())
		return
	}

	// The emit modes are the shell-scriptable half of the TERM/resume check:
	// the same deterministic long job and its oracle hash, printable without
	// a server, so CI can submit with curl, kill the daemon mid-run, and
	// compare the resumed result against ground truth.
	if *emitSessionJob {
		spec := rawSpec(0, 240, 64)
		spec.P, spec.K, spec.Steps = 3, 2, *steps
		json.NewEncoder(os.Stdout).Encode(spec)
		return
	}
	if *emitLongJob || *emitLongSHA {
		spec := longJob(*steps)
		if *emitLongSHA {
			x, err := spec.SequentialRaw()
			if err != nil {
				fmt.Fprintf(os.Stderr, "irredload: oracle: %v\n", err)
				os.Exit(2)
			}
			fmt.Println(service.HashResult(x))
			return
		}
		json.NewEncoder(os.Stdout).Encode(spec)
		return
	}

	mix, err := parseMix(*mixFlag, map[string]string{"mvm": *mvmDataset, "euler": *meshDataset, "moldyn": *meshDataset})
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredload: %v\n", err)
		os.Exit(2)
	}

	urls := []string{*addr}
	if *clusterFlag != "" {
		urls = urls[:0]
		for _, u := range strings.Split(*clusterFlag, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, strings.TrimRight(u, "/"))
			}
		}
		if len(urls) == 0 {
			fmt.Fprintf(os.Stderr, "irredload: -cluster: no URLs\n")
			os.Exit(2)
		}
	}
	clients := make([]*client.Client, len(urls))
	for i, u := range urls {
		clients[i] = client.New(u)
	}
	c := clients[0]
	ctx, cancel := context.WithTimeout(context.Background(), *duration)
	defer cancel()

	for i, cl := range clients {
		if err := cl.Health(context.Background()); err != nil {
			fmt.Fprintf(os.Stderr, "irredload: server not reachable at %s: %v\n", urls[i], err)
			os.Exit(2)
		}
	}
	// Cache counters aggregate across the fleet: sharding moves the hits
	// to the owners, the sum is what the workload actually experienced. In
	// cluster mode an unreachable node is skipped rather than fatal — a
	// roll-restart mid-run must not abort the whole report — as long as at
	// least one node still answers.
	sumCache := func() (hits, misses int64, err error) {
		ok := 0
		var lastErr error
		for i, cl := range clients {
			m, err := cl.Metrics(context.Background())
			if err != nil {
				if len(clients) == 1 {
					return 0, 0, err
				}
				lastErr = err
				fmt.Fprintf(os.Stderr, "irredload: metrics from %s skipped: %v\n", urls[i], err)
				continue
			}
			ok++
			hits += m.Cache.Hits
			misses += m.Cache.Misses
		}
		if ok == 0 {
			return 0, 0, lastErr
		}
		return hits, misses, nil
	}
	before, err := c.Metrics(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredload: metrics: %v\n", err)
		os.Exit(2)
	}
	beforeHits, beforeMisses, err := sumCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredload: metrics: %v\n", err)
		os.Exit(2)
	}

	var (
		// Latency percentiles come from the shared reservoir estimator
		// (internal/obs), the same one irredsweep uses per cell: exact
		// order statistics up to -max-samples, unbiased sampling beyond.
		hist      = obs.NewReservoir(*maxSamples)
		mu        sync.Mutex
		firstSHA  = map[jobKey]string{}
		jobs      int64
		failures  int64
		mismatch  int64
		shedTotal int64
		reopens   int64
		failovers int64
	)

	// Per-node counters for cluster runs (index-aligned with clients).
	type nodeStats struct {
		jobs      int64
		sheds     int64
		failovers int64
		hist      *obs.Reservoir
	}
	perNode := make([]*nodeStats, len(clients))
	for i := range perNode {
		perNode[i] = &nodeStats{hist: obs.NewReservoir(4096)}
	}
	var rr int64 // round-robin cursor (under mu)

	// submit runs one submission with client-side failover: start at the
	// round-robin node, and when a node fails at the transport level (no
	// HTTP answer at all — a dead or partitioned node) move to the next.
	// An HTTP-level answer, success or error, is terminal: the fleet's own
	// router already did its server-side failovers behind it.
	submit := func(ctx context.Context, spec service.JobSpec) (*service.JobStatus, int, int, int, error) {
		mu.Lock()
		start := int(rr % int64(len(clients)))
		rr++
		mu.Unlock()
		var lastErr error
		for k := 0; k < len(clients); k++ {
			idx := (start + k) % len(clients)
			st, sheds, err := clients[idx].SubmitWaitRetry(ctx, spec)
			if err == nil {
				return st, sheds, idx, k, nil
			}
			lastErr = err
			var se *client.StatusError
			if errors.As(err, &se) || ctx.Err() != nil {
				return nil, sheds, idx, k, err
			}
		}
		return nil, 0, start, len(clients) - 1, lastErr
	}

	// Pacing: a shared ticker-fed token channel. Unpaced runs use a nil
	// channel (never selected) and each worker loops as fast as the server
	// answers — the classic closed loop.
	var pace <-chan time.Time
	if *qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *qps))
		defer t.Stop()
		pace = t.C
	}

	// deltaWorker is the streaming soak loop: one resident session per
	// worker, a local indirection mirror as the oracle, one sparse delta
	// per round. The mirror is mutated BEFORE the submit, so after a 410
	// the reopen ships the already-advanced state and nothing replays.
	deltaWorker := func(w int, rng *rand.Rand) {
		// Sessions are node-resident: each delta worker pins one node
		// (spread across the fleet in cluster mode) instead of round-robin.
		c := clients[w%len(clients)]
		spec := rawSpec(int64(w), 240, 64)
		spec.P = 1 + rng.Intn(*maxP)
		spec.K = 1 + rng.Intn(*maxK)
		spec.Steps = *steps
		var id string
		open := func() bool {
			x, err := spec.SequentialRaw()
			if err != nil {
				fmt.Fprintf(os.Stderr, "irredload: delta oracle: %v\n", err)
				mu.Lock()
				failures++
				mu.Unlock()
				return false
			}
			want := service.HashResult(x)
			st, err := c.OpenSession(ctx, spec)
			if err != nil {
				if ctx.Err() == nil {
					mu.Lock()
					failures++
					mu.Unlock()
					fmt.Fprintf(os.Stderr, "irredload: open session: %v\n", err)
				}
				return false
			}
			id = st.ID
			mu.Lock()
			if st.ResultSHA256 != want {
				mismatch++
				fmt.Fprintf(os.Stderr, "irredload: SESSION MISMATCH open %s: %s != %s\n", st.ID, st.ResultSHA256, want)
			}
			mu.Unlock()
			return true
		}
		if !open() {
			return
		}
		defer c.CloseSession(context.Background(), id)
		for ctx.Err() == nil {
			if pace != nil {
				select {
				case <-ctx.Done():
					return
				case <-pace:
				}
			}
			d := streamDelta(rng, &spec, *deltaFrac)
			applyDeltaLocal(&spec, d)
			x, err := spec.SequentialRaw()
			if err != nil {
				fmt.Fprintf(os.Stderr, "irredload: delta oracle: %v\n", err)
				mu.Lock()
				failures++
				mu.Unlock()
				return
			}
			want := service.HashResult(x)
			t0 := time.Now()
			st, busy, err := c.SessionDeltaRetry(ctx, id, d, false)
			lat := time.Since(t0)
			mu.Lock()
			shedTotal += int64(busy)
			mu.Unlock()
			if err != nil {
				if ctx.Err() != nil {
					return
				}
				if client.IsGone(err) {
					// Evicted or the daemon restarted: the session is
					// permanently lost, fail closed and reopen from the
					// mirror's current state.
					mu.Lock()
					reopens++
					mu.Unlock()
					if !open() {
						return
					}
					continue
				}
				mu.Lock()
				failures++
				mu.Unlock()
				fmt.Fprintf(os.Stderr, "irredload: delta: %v\n", err)
				continue
			}
			hist.Add(float64(lat) / float64(time.Millisecond))
			mu.Lock()
			jobs++
			if st.ResultSHA256 != want {
				mismatch++
				fmt.Fprintf(os.Stderr, "irredload: DELTA MISMATCH session %s delta %d: %s != %s\n", id, st.Deltas, st.ResultSHA256, want)
			}
			mu.Unlock()
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < *concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)*7919 + 17))
			if *deltasMode {
				deltaWorker(w, rng)
				return
			}
			for {
				if pace != nil {
					select {
					case <-ctx.Done():
						return
					case <-pace:
					}
				} else if ctx.Err() != nil {
					return
				}
				m := pick(mix, rng)
				key := jobKey{
					Kernel:  m.kernel,
					Dataset: m.dataset,
					Seed:    int64(rng.Intn(*seeds)),
					P:       1 + rng.Intn(*maxP),
					K:       1 + rng.Intn(*maxK),
					Steps:   *steps,
				}
				spec := key.spec()
				t0 := time.Now()
				st, sheds, nodeIdx, hops, err := submit(ctx, spec)
				lat := time.Since(t0)
				mu.Lock()
				shedTotal += int64(sheds)
				failovers += int64(hops)
				perNode[nodeIdx].sheds += int64(sheds)
				perNode[nodeIdx].failovers += int64(hops)
				mu.Unlock()
				if err != nil {
					if ctx.Err() != nil {
						return
					}
					mu.Lock()
					failures++
					mu.Unlock()
					continue
				}
				hist.Add(float64(lat) / float64(time.Millisecond))
				perNode[nodeIdx].hist.Add(float64(lat) / float64(time.Millisecond))
				mu.Lock()
				jobs++
				perNode[nodeIdx].jobs++
				if st.State != service.StateDone || st.ResultSHA256 == "" {
					failures++
					if st.Error != "" {
						fmt.Fprintf(os.Stderr, "irredload: job %s %s: %s\n", st.ID, st.State, st.Error)
					}
				} else if prev, ok := firstSHA[key]; !ok {
					firstSHA[key] = st.ResultSHA256
				} else if prev != st.ResultSHA256 {
					mismatch++
					fmt.Fprintf(os.Stderr, "irredload: MISMATCH %+v: %s != %s\n", key, st.ResultSHA256, prev)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	after, err := c.Metrics(context.Background())
	for i := 1; err != nil && i < len(clients); i++ {
		// The first node may be mid-roll at scrape time; any live node's
		// snapshot serves for the session-delta fields.
		after, err = clients[i].Metrics(context.Background())
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredload: metrics: %v\n", err)
		os.Exit(2)
	}
	afterHits, afterMisses, err := sumCache()
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredload: metrics: %v\n", err)
		os.Exit(2)
	}
	hits := afterHits - beforeHits
	misses := afterMisses - beforeMisses

	qs := hist.Quantiles(0.5, 0.9, 0.99, 1.0)
	rep := report{
		Duration:    elapsed.Round(time.Millisecond).String(),
		Concurrency: *concurrency,
		Jobs:        jobs,
		Failures:    failures,
		Mismatches:  mismatch,
		Sheds:       shedTotal,
		QPS:         float64(jobs) / elapsed.Seconds(),
		P50ms:       qs[0], P90ms: qs[1], P99ms: qs[2], MaxMs: qs[3],
		CacheHits:   hits,
		CacheMisses: misses,
	}
	if hits+misses > 0 {
		rep.CacheRatio = float64(hits) / float64(hits+misses)
	}
	if *deltasMode {
		rep.Deltas = after.Sessions.DeltasApplied - before.Sessions.DeltasApplied
		rep.Incremental = after.Sessions.Incremental - before.Sessions.Incremental
		rep.Full = after.Sessions.FullReinspects - before.Sessions.FullReinspects
		rep.Reopens = reopens
	}
	if len(clients) > 1 {
		rep.Failovers = failovers
		for i, ns := range perNode {
			nq := ns.hist.Quantiles(0.5, 0.99)
			rep.Nodes = append(rep.Nodes, nodeReport{
				URL:       urls[i],
				Jobs:      ns.jobs,
				Sheds:     ns.sheds,
				Failovers: ns.failovers,
				P50ms:     nq[0], P99ms: nq[1],
			})
		}
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.Encode(rep)
	} else {
		fmt.Printf("irredload: %d jobs in %s (%.1f QPS, %d workers)\n",
			rep.Jobs, rep.Duration, rep.QPS, rep.Concurrency)
		fmt.Printf("  latency ms: p50=%.2f p90=%.2f p99=%.2f max=%.2f\n",
			rep.P50ms, rep.P90ms, rep.P99ms, rep.MaxMs)
		fmt.Printf("  cache: %d hits / %d misses (%.0f%% hit)\n",
			hits, misses, rep.CacheRatio*100)
		fmt.Printf("  sheds=%d failures=%d mismatches=%d\n",
			rep.Sheds, rep.Failures, rep.Mismatches)
		if *deltasMode {
			fmt.Printf("  deltas=%d incremental=%d full=%d reopens=%d\n",
				rep.Deltas, rep.Incremental, rep.Full, rep.Reopens)
		}
		for _, nr := range rep.Nodes {
			fmt.Printf("  node %s: jobs=%d sheds=%d failovers=%d p50=%.2fms p99=%.2fms\n",
				nr.URL, nr.Jobs, nr.Sheds, nr.Failovers, nr.P50ms, nr.P99ms)
		}
	}

	if failures > 0 || mismatch > 0 {
		os.Exit(1)
	}
}
