package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"time"

	"irred/internal/cluster"
	"irred/internal/obs"
	"irred/internal/service"
	"irred/internal/service/client"
)

const (
	deltaFrac  = 0.01 // of the iterations, rewired per delta
	deltaRing  = 256  // deltas drawn per client before the window, then cycled
	checkEvery = 16   // untraced pass: every 16th delta is checked; traced pass: every one
)

// stream is one client's session: its local mirror of the indirection
// arrays (the oracle's input) and its prepared deltas.
type stream struct {
	id     string
	mirror service.JobSpec
	deltas []*service.Delta
	frames [][]byte // the deltas as IRDB frames
	sent   int
}

// newStream draws a client's base job and deltas. Deltas name iterations
// and new targets only, so they can be drawn before the state they will
// meet is known.
func newStream(e *env, c int) (*stream, error) {
	s := &stream{mirror: rawSpec(e.seed*1_000_003+3*1009+int64(c), e.P)}
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(c)))
	scratch := [][]int32{make([]int32, rawIters), make([]int32, rawIters)}
	for i := 0; i < deltaRing; i++ {
		changed := rewire(rng, scratch, rawElems, deltaFrac)
		d := &service.Delta{Changed: append([]int32(nil), changed...), Values: make([][]int32, len(scratch))}
		for r := range scratch {
			for _, it := range changed {
				d.Values[r] = append(d.Values[r], scratch[r][it])
			}
		}
		frame, err := service.EncodeDelta(d)
		if err != nil {
			return nil, err
		}
		s.deltas, s.frames = append(s.deltas, d), append(s.frames, frame)
	}
	return s, nil
}

// open starts the session on a daemon and checks the base result.
func (s *stream) open(e *env, url string) error {
	cl := &client.Client{Base: url, HTTP: e.httpc}
	st, err := cl.OpenSession(context.Background(), s.mirror)
	if err != nil {
		return err
	}
	s.id, s.sent = st.ID, 0
	return s.verify(st.ResultSHA256)
}

// verify compares an answer's hash with the mirror's sequential result.
func (s *stream) verify(sha string) error {
	x, err := s.mirror.SequentialRaw()
	if err != nil {
		return err
	}
	if service.HashResult(x) != sha {
		return fmt.Errorf("session %s after %d deltas: result differs from the sequential oracle", s.id, s.sent)
	}
	return nil
}

// delta sends the next prepared frame (result body off) and commits it to
// the mirror.
func (s *stream) delta(e *env, url string, check bool) (int, error) {
	i := s.sent % deltaRing
	var st service.SessionStatus
	if _, err := e.post(url+"/v1/session/"+s.id+"/delta?result=0", "application/octet-stream", s.frames[i], &st); err != nil {
		return 0, err
	}
	d := s.deltas[i]
	for r, row := range d.Values {
		for j, it := range d.Changed {
			s.mirror.Ind[r][it] = row[j]
		}
	}
	s.sent++
	if !st.LastIncremental || st.Incremental != int64(s.sent) || st.Deltas != int64(s.sent) {
		return 0, fmt.Errorf("session %s: %d deltas sent, server counts %d of which %d incremental", s.id, s.sent, st.Deltas, st.Incremental)
	}
	if check {
		if err := s.verify(st.ResultSHA256); err != nil {
			return 0, err
		}
	}
	return 1, nil
}

// runSessionChurn: one streaming session per client; an operation is one
// delta = IRDB decode + Schedule.Update x P + re-run.
func runSessionChurn(e *env, r *result) error {
	streams := make([]*stream, e.C)
	for c := range streams {
		s, err := newStream(e, c)
		if err != nil {
			return err
		}
		streams[c] = s
	}
	r.detail(value("service.delta_bytes", float64(len(streams[0].frames[0])), "B"))
	opt := daemonOptions(false)

	// Set-up is OpenSession on a daemon that has never seen the job:
	// decode, full inspection, clone, index, base run.
	if err := e.setup(r, func() (time.Duration, error) {
		d, err := e.startDaemon(opt)
		if err != nil {
			return 0, err
		}
		defer d.stop()
		return timed(func() error { return streams[0].open(e, d.url) })
	}); err != nil {
		return err
	}

	// churn opens every client's session on a fresh daemon and returns the
	// closed-loop operation against it.
	churn := func(opt service.Options, checkAll bool) (func(c, seq int) (int, error), func(), error) {
		d, err := e.startDaemon(opt)
		if err != nil {
			return nil, nil, err
		}
		for _, s := range streams {
			if err := s.open(e, d.url); err != nil {
				d.stop()
				return nil, nil, err
			}
		}
		op := func(c, _ int) (int, error) {
			s := streams[c]
			return s.delta(e, d.url, checkAll || s.sent%checkEvery == 0)
		}
		return op, d.stop, nil
	}
	// The traced pass checks every delta in both of its windows, so their
	// throughput ratio is the tracer's cost and not the oracle's.
	op, stop, err := churn(opt, e.trace)
	if err != nil {
		return err
	}
	defer stop()
	runtime.GC()
	drive(e.C, e.window/20, op)
	if !e.trace {
		w := drive(e.C, e.window, op)
		r.count(w)
		r.add(w.throughput("ops_per_s"), w.latency("latency_p50_ms", 0.5))
		r.detail(w.latency("client.latency_p95_ms", 0.95))
		return nil
	}
	ref := drive(e.C, e.share(0.3), op)
	r.count(ref)
	top, tstop, err := churn(daemonOptions(true), true)
	if err != nil {
		return err
	}
	defer tstop()
	drive(e.C, e.window/20, top)
	tw := drive(e.C, e.share(0.3), top)
	r.count(tw)
	r.add(overhead(ref, tw))

	frame := streams[0].frames[0]
	decode, err := timeLayer("service.delta_decode_ms", e.share(0.05), func() error {
		_, err := service.DecodeDelta(frame)
		return err
	})
	if err != nil {
		return err
	}
	r.detail(decode)
	return rawLayers(e, r, &streams[0].mirror, e.share(0.25))
}

// fleet is three in-process cluster nodes on loopback listeners.
type fleet struct {
	urls  map[string]string
	nodes []*cluster.Node
	stops []func()
}

var fleetNames = []string{"n0", "n1", "n2"}

// bootFleet is the fleet's boot path: listeners, cluster.New, service.New
// with the node's replication hooks, Attach, Handler, then GossipRound by
// hand until every node has heard from every peer. The gossip loops are
// never started, so the fleet idles between requests.
func (e *env) bootFleet(tr *obs.Tracer) (*fleet, error) {
	f := &fleet{urls: map[string]string{}}
	lns := map[string]net.Listener{}
	fail := func(err error) (*fleet, error) {
		for _, ln := range lns {
			ln.Close()
		}
		f.stop()
		return nil, err
	}
	for _, name := range fleetNames {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		lns[name], f.urls[name] = ln, "http://"+ln.Addr().String()
	}
	for _, name := range fleetNames {
		peers := map[string]string{}
		for _, p := range fleetNames {
			if p != name {
				peers[p] = f.urls[p]
			}
		}
		node, err := cluster.New(cluster.Config{Self: name, SelfURL: f.urls[name], Peers: peers, Trace: tr})
		if err != nil {
			return fail(err)
		}
		opt := daemonOptions(tr != nil)
		opt.Replicate, opt.FetchReplica = node.Replicate, node.FetchReplica
		svc, err := service.New(opt)
		if err != nil {
			return fail(err)
		}
		node.Attach(svc)
		srv, done := serveHTTP(lns[name], node.Handler())
		delete(lns, name)
		f.nodes = append(f.nodes, node)
		f.stops = append(f.stops, func() {
			srv.Close()
			<-done
			svc.Close()
			node.Close()
		})
	}
	for round := 0; !f.converged(); round++ {
		if round == 8 {
			return fail(fmt.Errorf("fleet did not converge in %d gossip rounds", round))
		}
		for _, n := range f.nodes {
			n.GossipRound()
		}
	}
	return f, nil
}

// converged: every node sees the full ring and has heard from every peer.
func (f *fleet) converged() bool {
	for _, n := range f.nodes {
		snap := n.ClusterSnapshot()
		if len(snap.RingMembers) != len(fleetNames) {
			return false
		}
		for _, p := range snap.Peers {
			if p.State != "alive" || p.LastSeenMS < 0 {
				return false
			}
		}
	}
	return true
}

func (f *fleet) stop() {
	for _, stop := range f.stops {
		stop()
	}
}

// counters sums forwards and failovers over the fleet.
func (f *fleet) counters() (forwards, failovers int64) {
	for _, n := range f.nodes {
		snap := n.ClusterSnapshot()
		forwards += snap.Forwards
		failovers += snap.Failovers
	}
	return
}

// route names, for each pooled job, the ring owner of its routing key and
// an entry node that is not the owner.
func route(pool []pooledJob) (owner, entry []string) {
	ring := cluster.NewRing(fleetNames, cluster.DefaultVNodes)
	for i := range pool {
		own := ring.Owner(pool[i].spec.RoutingKey())
		owner = append(owner, own)
		for k, name := range fleetNames {
			if name == own {
				entry = append(entry, fleetNames[(k+1)%len(fleetNames)])
			}
		}
	}
	return
}

// runClusterHop: the serve.warm stream against a three-node fleet, every
// job submitted to a node that does not own it.
func runClusterHop(e *env, r *result) error {
	pool, err := makePool(r, e, 4, warmPool)
	if err != nil {
		return err
	}
	owner, entry := route(pool)

	if err := e.setup(r, func() (time.Duration, error) {
		t := time.Now()
		f, err := e.bootFleet(nil)
		took := time.Since(t)
		if err == nil {
			f.stop()
		}
		return took, err
	}); err != nil {
		return err
	}

	f, err := e.bootFleet(nil)
	if err != nil {
		return err
	}
	defer f.stop()
	// servedBy checks the X-Irred-Node header: the owner ran the job.
	servedBy := func(i int, h http.Header) error {
		if got := h.Get("X-Irred-Node"); got != owner[i] {
			return fmt.Errorf("job %d served by %q, ring owner is %s", i, got, owner[i])
		}
		return nil
	}
	hop := e.newSubmitter(pool, func(i int) string { return f.urls[entry[i]] })
	hop.check = servedBy
	var traced *submitter
	if e.trace {
		tf, err := e.bootFleet(obs.New(0))
		if err != nil {
			return err
		}
		defer tf.stop()
		traced = e.newSubmitter(pool, func(i int) string { return tf.urls[entry[i]] })
		traced.check = servedBy
	}
	// Each job of the pool may have a node of its own: prime until every
	// node has `retained` finished jobs.
	primed := len(pool) * retained
	if err := e.serveWindows(r, hop, traced, primed); err != nil {
		return err
	}

	// Premise: every job since prime paid exactly one hop, none failed over.
	// prime itself forwards once per pooled job.
	forwards, failovers := f.counters()
	jobs := int64(primed)
	for _, js := range hop.stats {
		jobs += int64(len(js.run))
	}
	r.detail(value("cluster.forwards", float64(forwards), "count"), value("cluster.failovers", float64(failovers), "count"))
	if forwards != jobs || failovers != 0 {
		r.problem("cluster.hop premise: %d forwards and %d failovers for %d jobs, want one hop each and no failover", forwards, failovers, jobs)
	}
	if !e.trace {
		return nil
	}

	// The hop's cost: the same stream on the same fleet, every client
	// alternating between the owner and the non-owner, so that a slow
	// stretch of the host slows both alike. (serve.warm is the single-node
	// counterpart of this number.)
	direct := e.newSubmitter(pool, func(i int) string { return f.urls[owner[i]] })
	direct.check = servedBy
	lat := make([][2][]float64, e.C) // per client: posted to the owner, through a hop
	pair := func(c, seq int) (int, error) {
		via := []*submitter{direct, hop}[seq%2]
		t := time.Now()
		n, err := via.op(c, seq)
		lat[c][seq%2] = append(lat[c][seq%2], ms(time.Since(t)))
		return n, err
	}
	for seq := 0; seq < 2; seq++ { // one of each, however short the window
		if _, err := pair(0, seq); err != nil {
			return err
		}
	}
	pairs := drive(e.C, e.share(0.2), pair)
	r.count(pairs)
	var all [2][]float64
	for c := range lat {
		all[0], all[1] = append(all[0], lat[c][0]...), append(all[1], lat[c][1]...)
	}
	r.detail(value("cluster.hop_ms", quantile(all[1], 0.5)-quantile(all[0], 0.5), "ms"))

	ring := cluster.NewRing(fleetNames, cluster.DefaultVNodes)
	key := pool[0].spec.RoutingKey()
	ownerNS, err := repeatTimed("cluster.owner_ns", "ns", func(d time.Duration) float64 { return float64(d) / 1000 },
		e.share(0.02), 3, 1000, func() (time.Duration, error) {
			return timed(func() error {
				for i := 0; i < 1000; i++ {
					ring.Owner(key)
				}
				return nil
			})
		})
	if err != nil {
		return err
	}
	routeKey, err := timeLayer("cluster.route_key_ms", e.share(0.03), func() error {
		pool[0].spec.RoutingKey()
		return nil
	})
	if err != nil {
		return err
	}
	r.detail(ownerNS, routeKey)
	return rawLayers(e, r, &pool[0].spec, e.share(0.2))
}
