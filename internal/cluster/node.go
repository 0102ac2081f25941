package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"irred/internal/fault"
	"irred/internal/obs"
	"irred/internal/service"
)

const (
	spanForward   = obs.SpanForward
	spanFailover  = obs.SpanFailover
	spanGossip    = obs.SpanGossip
	spanReplicate = obs.SpanReplicate
)

// Config shapes one cluster node.
type Config struct {
	// Self is this node's name. Peers maps every *other* node's name to
	// its base URL — the static seed set shared by the whole fleet.
	Self  string
	Peers map[string]string

	// SelfURL is not read: a node forwards to its peers' URLs and never
	// names its own. It stays because the benchmark's fleet sets it.
	SelfURL string

	// VNodes is the consistent-hash virtual-node count (DefaultVNodes
	// when 0).
	VNodes int

	// GossipEvery is the probe period. SuspectAfter / DeadAfter are the
	// hysteresis thresholds in consecutive missed probes.
	GossipEvery  time.Duration
	SuspectAfter int
	DeadAfter    int

	// HopTimeout bounds one non-waiting inter-node exchange;
	// WaitHopTimeout bounds a ?wait=1 forward, which stays open for the
	// whole job. HopRetries is per-target attempts beyond the first.
	HopTimeout     time.Duration
	WaitHopTimeout time.Duration
	HopRetries     int

	// Chaos, when non-nil, runs every inter-node hop through the fault
	// injector's network model (drops, delays, partitions). Nil means a
	// clean network.
	Chaos *fault.Injector

	// ReplicaJobs/ReplicaBytes bound the checkpoint replica store.
	ReplicaJobs  int
	ReplicaBytes int64

	// Trace, when non-nil, records forward/gossip/replicate spans.
	Trace *obs.Tracer
}

func (c *Config) applyDefaults() {
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.GossipEvery <= 0 {
		c.GossipEvery = time.Second
	}
	if c.SuspectAfter < 1 {
		c.SuspectAfter = 2
	}
	if c.DeadAfter <= c.SuspectAfter {
		c.DeadAfter = c.SuspectAfter + 2
	}
	if c.HopTimeout <= 0 {
		c.HopTimeout = 2 * time.Second
	}
	if c.WaitHopTimeout <= 0 {
		c.WaitHopTimeout = 5 * time.Minute
	}
	if c.HopRetries < 0 {
		c.HopRetries = 0
	} else if c.HopRetries == 0 {
		c.HopRetries = 2
	}
}

// Node is one member of a coordinator-light irredd fleet: it wraps a
// service.Service's HTTP handler with sharded routing, health gossip,
// and checkpoint replication. Build with New, hand the
// Replicate/FetchReplica methods to service.Options, then Attach the
// service and Start the gossip loop.
type Node struct {
	cfg    Config
	table  *peerTable
	reps   *replicaStore
	ctrs   counters
	trace  *obs.Tracer
	client *http.Client

	svc *service.Service

	ringMu  sync.Mutex
	ringSig string
	curRing *Ring

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// New builds a node from cfg. The service is attached separately because
// the service needs the node's replication hooks at construction time:
//
//	n := cluster.New(cfg)
//	svc, _ := service.New(service.Options{
//	        ...,
//	        Replicate:    n.Replicate,
//	        FetchReplica: n.FetchReplica,
//	})
//	n.Attach(svc)
//	n.Start()
func New(cfg Config) (*Node, error) {
	cfg.applyDefaults()
	if cfg.Self == "" {
		return nil, errors.New("cluster: Config.Self required")
	}
	if _, dup := cfg.Peers[cfg.Self]; dup {
		return nil, errors.New("cluster: Peers must not contain Self")
	}
	return &Node{
		cfg:    cfg,
		table:  newPeerTable(cfg.Peers, cfg.SuspectAfter, cfg.DeadAfter),
		reps:   newReplicaStore(cfg.ReplicaJobs, cfg.ReplicaBytes),
		trace:  cfg.Trace,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		stop:   make(chan struct{}),
	}, nil
}

// Peers returns the configured peer names, sorted.
func (n *Node) Peers() []string { return n.table.names() }

// Attach binds the local service. Must run before Start or Handler.
func (n *Node) Attach(svc *service.Service) {
	n.svc = svc
}

// Start launches the gossip probe loop.
func (n *Node) Start() {
	n.wg.Add(1)
	go n.gossipLoop()
}

// Close stops the gossip loop. It does not touch the attached service.
func (n *Node) Close() {
	n.stopOnce.Do(func() { close(n.stop) })
	n.wg.Wait()
}

// ring returns the consistent-hash ring over the current live membership,
// rebuilt only when membership changes.
func (n *Node) ring() *Ring {
	members := n.table.liveMembers(n.cfg.Self)
	sig := strings.Join(members, ",")
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if n.curRing == nil || n.ringSig != sig {
		n.curRing = NewRing(members, n.cfg.VNodes)
		n.ringSig = sig
	}
	return n.curRing
}

// --- gossip -----------------------------------------------------------

func (n *Node) gossipLoop() {
	defer n.wg.Done()
	// First round immediately: a booting fleet should converge in one
	// period, not two.
	n.GossipRound()
	t := time.NewTicker(n.cfg.GossipEvery)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
			n.GossipRound()
		}
	}
}

// GossipRound probes every configured peer once. Exported so tests can
// drive convergence deterministically instead of sleeping.
func (n *Node) GossipRound() {
	body, _ := json.Marshal(GossipMsg{From: n.cfg.Self, Self: n.selfWire()})
	for _, p := range n.table.names() {
		start := n.trace.Begin()
		hr := n.doHop(context.Background(), p, http.MethodPost,
			n.table.url(p)+"/v1/cluster/gossip", body, 0, n.cfg.HopTimeout)
		if hr.err != nil {
			n.ctrs.gossipFail.Add(1)
			n.table.observeFailure(p)
			continue
		}
		var reply GossipMsg
		err := json.NewDecoder(io.LimitReader(hr.resp.Body, 1<<20)).Decode(&reply)
		hr.resp.Body.Close()
		if err != nil || hr.resp.StatusCode != http.StatusOK {
			n.ctrs.gossipFail.Add(1)
			n.table.observeFailure(p)
			continue
		}
		n.ctrs.gossipOK.Add(1)
		n.table.observeSuccess(p, reply.Self)
		n.trace.End(spanGossip, -1, -1, -1, -1, start)
	}
}

// selfWire snapshots this node's own gossip payload.
func (n *Node) selfWire() PeerWire {
	w := PeerWire{Name: n.cfg.Self}
	if n.svc != nil {
		m := n.svc.Metrics()
		w.Ready = n.svc.Ready()
		w.QueueDepth = m.QueueDepth
		w.WorkersBusy = int(m.WorkersBusy)
		if c := n.svc.Cache(); c != nil {
			w.CacheEntries, w.CacheDigest = c.KeyDigest()
		}
	}
	return w
}

func (n *Node) handleGossip(w http.ResponseWriter, r *http.Request) {
	var msg GossipMsg
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<20)).Decode(&msg); err != nil {
		http.Error(w, "bad gossip", http.StatusBadRequest)
		return
	}
	// An inbound probe is proof of life for the sender — this heals
	// one-way probe failures (A can't reach B, B can reach A) faster
	// than waiting for A's own probes to succeed.
	n.table.observeSuccess(msg.From, msg.Self)
	writeJSON(w, http.StatusOK, GossipMsg{From: n.cfg.Self, Self: n.selfWire()})
}

// --- replication ------------------------------------------------------

// Replicate is the service.Options.Replicate hook: ship one IRCJ
// checkpoint frame for job uid to the routing key's ring successor — the
// node a failover of this job would land on. Best-effort: replication is
// a resume-latency optimization, never a correctness dependency.
func (n *Node) Replicate(uid, routingKey string, frame []byte) {
	var succ string
	for _, m := range n.ring().Order(routingKey) {
		if m != n.cfg.Self {
			succ = m
			break
		}
	}
	if succ == "" {
		return // single-node ring: local checkpointing already covers it
	}
	start := n.trace.Begin()
	hr := n.doHop(context.Background(), succ, http.MethodPost,
		n.table.url(succ)+"/v1/cluster/replica/"+url.PathEscape(uid), frame, 0, n.cfg.HopTimeout)
	if hr.err != nil {
		return
	}
	io.Copy(io.Discard, hr.resp.Body)
	hr.resp.Body.Close()
	if hr.resp.StatusCode < 300 {
		n.ctrs.replicasSent.Add(1)
		n.trace.End(spanReplicate, -1, -1, -1, -1, start)
	}
}

// FetchReplica is the service.Options.FetchReplica hook: return the
// locally stored replica frame for uid, if any.
func (n *Node) FetchReplica(uid string) []byte {
	frame := n.reps.get(uid)
	if frame != nil {
		n.ctrs.replicaSeeds.Add(1)
	}
	return frame
}

func (n *Node) handleReplicaPut(w http.ResponseWriter, r *http.Request) {
	uid := r.PathValue("uid")
	frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxJobBody))
	if err != nil {
		http.Error(w, "replica body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !n.reps.put(uid, frame) {
		http.Error(w, "replica too large", http.StatusRequestEntityTooLarge)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// --- routing ----------------------------------------------------------

// Handler returns the node's HTTP surface: the full service API with
// POST /v1/jobs wrapped by the router, plus the cluster control plane.
//
//	POST /v1/cluster/gossip        health exchange (internal)
//	POST /v1/cluster/replica/{uid} store a checkpoint replica (internal)
//	POST /v1/cluster/route         debug: spec -> {key, owner, order}
//	GET  /metrics                  service counters + "cluster" section
func (n *Node) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cluster/gossip", n.handleGossip)
	mux.HandleFunc("POST /v1/cluster/replica/{uid}", n.handleReplicaPut)
	mux.HandleFunc("POST /v1/cluster/route", n.handleRoute)
	mux.HandleFunc("GET /metrics", n.handleMetrics)
	mux.HandleFunc("POST /v1/jobs", n.handleSubmit)
	mux.Handle("/", n.svc.Handler())
	return mux
}

func (n *Node) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Forwarded requests are already routed by the node the client spoke
	// to: serve locally, never re-route (no loops).
	forwarded := r.Header.Get("X-Irred-Forward") == "1"
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxJobBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job spec: "+err.Error())
		return
	}
	spec, end, err := service.DecodeJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: "+err.Error())
		return
	}
	if forwarded {
		n.serveLocal(w, r, spec)
		return
	}
	// Kept in the spec: a job that stays here is not hashed again.
	key := spec.KeepRoutingKey()
	order := n.ring().Order(key)
	if len(order) == 0 || order[0] == n.cfg.Self {
		n.serveLocal(w, r, spec)
		return
	}
	// Stamp the idempotency UID before the first hop so every retry and
	// every failover of this submission, the last-resort local run
	// included, dedupes on the owner side.
	if spec.ClusterUID == "" {
		spec.ClusterUID = newClusterUID()
		body = stampClusterUID(body[:end], spec.ClusterUID)
	}
	n.forward(w, r, order, body, spec)
}

// stampClusterUID returns spec, the bytes of one JSON object, with a
// cluster_uid member spliced in before its closing brace: the router has
// decoded the spec once for its routing key and never encodes it again, so
// the owner reads the client's own bytes. encoding/json lets the last of
// two equal keys win, which overrides the empty cluster_uid a client may
// have sent. uid is hex and needs no escaping. Bytes that are not an
// object (null) go out as they are, for the owner to refuse.
func stampClusterUID(spec []byte, uid string) []byte {
	last := len(spec) - 1
	if last < 1 || spec[last] != '}' {
		return spec
	}
	out := make([]byte, 0, len(spec)+len(uid)+len(`,"cluster_uid":""`))
	out = append(out, spec[:last]...)
	if !bytes.HasSuffix(bytes.TrimRight(out, " \t\r\n"), []byte("{")) {
		out = append(out, ',')
	}
	out = append(out, `"cluster_uid":"`...)
	out = append(out, uid...)
	return append(out, `"}`...)
}

// serveLocal runs a submission on the attached service from the spec this
// node decoded, so a job parses once on the node that runs it.
func (n *Node) serveLocal(w http.ResponseWriter, r *http.Request, spec service.JobSpec) {
	n.ctrs.localServes.Add(1)
	w.Header().Set("X-Irred-Node", n.cfg.Self)
	n.svc.ServeJob(w, r, spec)
}

// handleRoute is the routing debug endpoint: POST a JobSpec, get back the
// routing key, the owner, and the full failover order under the current
// membership view. CI uses it to find which node to kill. A spec that
// POST /v1/jobs would refuse is refused here too.
func (n *Node) handleRoute(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, service.MaxJobBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, "reading job spec: "+err.Error())
		return
	}
	spec, _, err := service.DecodeJobSpec(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "decoding job spec: "+err.Error())
		return
	}
	if err := spec.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, "invalid job: "+err.Error())
		return
	}
	key := spec.RoutingKey()
	ring := n.ring()
	writeJSON(w, http.StatusOK, map[string]any{
		"key":     key,
		"owner":   ring.Owner(key),
		"order":   ring.Order(key),
		"members": ring.Members(),
	})
}

// ClusterSnapshot assembles the cluster section of /metrics.
func (n *Node) ClusterSnapshot() Snapshot {
	jobs, bts, stored, evicted := n.reps.statsSnapshot()
	return Snapshot{
		Node:           n.cfg.Self,
		RingMembers:    n.ring().Members(),
		Peers:          n.table.snapshot(),
		Forwards:       n.ctrs.forwards.Load(),
		ForwardRetries: n.ctrs.forwardRetries.Load(),
		Failovers:      n.ctrs.failovers.Load(),
		LocalServes:    n.ctrs.localServes.Load(),
		Replays:        n.ctrs.replays.Load(),
		ReplicasSent:   n.ctrs.replicasSent.Load(),
		ReplicaSeeds:   n.ctrs.replicaSeeds.Load(),
		ReplicaJobs:    jobs,
		ReplicaBytes:   bts,
		ReplicaStored:  stored,
		ReplicaEvicted: evicted,
		GossipOK:       n.ctrs.gossipOK.Load(),
		GossipFail:     n.ctrs.gossipFail.Load(),
	}
}

// handleMetrics merges the service snapshot (unchanged shape — existing
// dashboards and CI jq paths keep working) with a "cluster" section.
func (n *Node) handleMetrics(w http.ResponseWriter, r *http.Request) {
	merged := map[string]any{}
	if n.svc != nil {
		raw, err := json.Marshal(n.svc.Metrics())
		if err == nil {
			json.Unmarshal(raw, &merged)
		}
	}
	merged["cluster"] = n.ClusterSnapshot()
	writeJSON(w, http.StatusOK, merged)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// writeError answers with the service's error body, {"error": msg}.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, struct {
		Error string `json:"error"`
	}{msg})
}
