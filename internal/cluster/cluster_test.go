package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"irred/internal/fault"
	"irred/internal/service"
)

// testNode is one in-process fleet member: a real TCP listener (so a
// "SIGKILL" is an abrupt http.Server.Close that snaps live connections,
// exactly what a killed process does to its peers) wrapping a full
// service + cluster node.
type testNode struct {
	name  string
	url   string
	node  *Node
	svc   *service.Service
	srv   *http.Server
	chaos *fault.Injector
}

// startFleet boots a fleet of len(names) nodes on loopback listeners.
// Gossip loops are NOT started: tests drive GossipRound() by hand so
// every state transition is deterministic.
func startFleet(t *testing.T, names []string, mkCfg func(name string, cfg *Config), mkOpt func(name string, opt *service.Options)) map[string]*testNode {
	t.Helper()
	fleet := make(map[string]*testNode, len(names))
	lns := make(map[string]net.Listener, len(names))
	urls := make(map[string]string, len(names))
	for _, name := range names {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[name] = ln
		urls[name] = "http://" + ln.Addr().String()
	}
	for _, name := range names {
		peers := make(map[string]string, len(names)-1)
		for _, p := range names {
			if p != name {
				peers[p] = urls[p]
			}
		}
		// Zero-value injector: inert until a test installs a partition.
		inj := &fault.Injector{}
		cfg := Config{
			Self:    name,
			SelfURL: urls[name],
			Peers:   peers,
			// Fast hysteresis and tight hops: tests must converge in
			// manual rounds, not wall-clock minutes.
			GossipEvery:    time.Hour, // never fires; rounds are manual
			SuspectAfter:   2,
			DeadAfter:      4,
			HopTimeout:     3 * time.Second,
			WaitHopTimeout: 60 * time.Second,
			HopRetries:     1,
			Chaos:          inj,
		}
		if mkCfg != nil {
			mkCfg(name, &cfg)
		}
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := service.Options{
			Workers:      2,
			CacheDir:     t.TempDir(),
			AllowChaos:   true,
			Replicate:    n.Replicate,
			FetchReplica: n.FetchReplica,
		}
		if mkOpt != nil {
			mkOpt(name, &opt)
		}
		svc, err := service.New(opt)
		if err != nil {
			t.Fatal(err)
		}
		n.Attach(svc)
		srv := &http.Server{Handler: n.Handler()}
		go srv.Serve(lns[name])
		tn := &testNode{name: name, url: urls[name], node: n, svc: svc, srv: srv, chaos: inj}
		fleet[name] = tn
		t.Cleanup(func() {
			tn.srv.Close()
			tn.svc.Close()
			tn.node.Close()
		})
	}
	return fleet
}

// clusterRawSpec builds a raw job with integral weights (bit-exact
// against the sequential reference regardless of summation order).
func clusterRawSpec(seed int64, iters, elems, steps int) service.JobSpec {
	rng := rand.New(rand.NewSource(seed))
	ind := make([][]int32, 2)
	for r := range ind {
		ind[r] = make([]int32, iters)
		for i := range ind[r] {
			ind[r][i] = int32(rng.Intn(elems))
		}
	}
	w := make([]float64, iters)
	for i := range w {
		w[i] = float64(1 + rng.Intn(8))
	}
	return service.JobSpec{
		NumIters: iters,
		NumElems: elems,
		Ind:      ind,
		Contrib:  &service.ContribSpec{Kind: "weights", Weights: w},
		P:        4, K: 2, Steps: steps,
	}
}

// routeFor asks node for the routing decision on spec.
func routeFor(t *testing.T, nodeURL string, spec service.JobSpec) (key, owner string, order []string) {
	t.Helper()
	body, _ := json.Marshal(spec)
	resp, err := http.Post(nodeURL+"/v1/cluster/route", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		Key   string   `json:"key"`
		Owner string   `json:"owner"`
		Order []string `json:"order"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.Key, out.Owner, out.Order
}

// submitWait POSTs spec to nodeURL with ?wait=1 and decodes the terminal
// status. hdr (optional) adds request headers.
func submitWait(t *testing.T, nodeURL string, spec service.JobSpec, hdr map[string]string) (service.JobStatus, *http.Response) {
	t.Helper()
	body, _ := json.Marshal(spec)
	req, err := http.NewRequest(http.MethodPost, nodeURL+"/v1/jobs?wait=1", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	client := &http.Client{Timeout: 90 * time.Second}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit to %s: HTTP %d: %s", nodeURL, resp.StatusCode, raw)
	}
	var st service.JobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatalf("decoding job status: %v (%s)", err, raw)
	}
	return st, resp
}

func checkResult(t *testing.T, spec service.JobSpec, st service.JobStatus) {
	t.Helper()
	if st.State != service.StateDone {
		t.Fatalf("job state %s: %s", st.State, st.Error)
	}
	want, err := spec.SequentialRaw()
	if err != nil {
		t.Fatal(err)
	}
	if service.HashResult(st.Result) != service.HashResult(want) {
		t.Fatal("cluster result differs from sequential reference")
	}
}

// TestClusterRoutesToOwner submits the same job through all three nodes:
// every submission must land on (and only on) the routing key's owner, so
// the owner's schedule cache takes every hit — the natural cache sharding
// the ring exists for.
func TestClusterRoutesToOwner(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2", "n3"}, nil, nil)
	spec := clusterRawSpec(7, 1500, 211, 2)
	_, owner, _ := routeFor(t, fleet["n1"].url, spec)
	if owner == "" {
		t.Fatal("no owner")
	}
	for _, name := range []string{"n1", "n2", "n3"} {
		st, resp := submitWait(t, fleet[name].url, spec, nil)
		checkResult(t, spec, st)
		if got := resp.Header.Get("X-Irred-Node"); got != owner {
			t.Fatalf("submission via %s served by %q, owner is %q", name, got, owner)
		}
	}
	// The owner ran all three; everyone else only forwarded.
	for name, tn := range fleet {
		snap := tn.node.ClusterSnapshot()
		if name == owner {
			if snap.LocalServes != 3 {
				t.Fatalf("owner local serves = %d, want 3", snap.LocalServes)
			}
			cs := tn.svc.Cache().Stats()
			if cs.Hits < 2 {
				t.Fatalf("owner cache hits = %d, want >= 2 (sharding broke)", cs.Hits)
			}
		} else {
			if snap.Forwards != 1 {
				t.Fatalf("%s forwards = %d, want 1", name, snap.Forwards)
			}
			if cs := tn.svc.Cache().Stats(); cs.Entries != 0 {
				t.Fatalf("%s cache has %d entries, want 0 (job leaked off-owner)", name, cs.Entries)
			}
		}
	}
}

// TestClusterOwnerKillFailoverReplay is the tentpole scenario: the owner
// dies mid-job (abrupt connection snap, the in-process stand-in for
// SIGKILL) and the routing node replays the job on the ring successor,
// which seeds from the replicated IRCJ checkpoint and resumes mid-sweep.
// The client sees one successful response and the exact sequential
// result; the only traces are the failover/replay counters.
func TestClusterOwnerKillFailoverReplay(t *testing.T) {
	// The owner's third checkpoint frame blocks in Replicate until the test
	// has killed the owner, so the kill lands mid-job with two frames
	// already on the successor — deterministically, whatever the host's
	// speed. The gate names its node only once routing has picked the owner.
	var gated atomic.Value // the owner's name
	gated.Store("")
	blocked, release := make(chan struct{}), make(chan struct{})
	var frames atomic.Int64
	fleet := startFleet(t, []string{"n1", "n2", "n3"}, nil, func(name string, opt *service.Options) {
		replicate := opt.Replicate
		opt.Replicate = func(uid, routingKey string, frame []byte) {
			if gated.Load() == name && frames.Add(1) == 3 {
				close(blocked)
				<-release
			}
			replicate(uid, routingKey, frame)
		}
	})
	var releaseOnce sync.Once
	unblock := func() { releaseOnce.Do(func() { close(release) }) }
	t.Cleanup(unblock) // registered after startFleet's: runs before the nodes close
	spec := clusterRawSpec(11, 3000, 257, 40)
	spec.CheckpointEvery = 1

	_, owner, order := routeFor(t, fleet["n1"].url, spec)
	gated.Store(owner)
	// Route via a non-owner so the kill severs a real inter-node forward.
	router := ""
	for _, name := range []string{"n1", "n2", "n3"} {
		if name != owner {
			router = name
			break
		}
	}
	successor := ""
	for _, m := range order {
		if m != owner {
			successor = m
			break
		}
	}

	type outcome struct {
		st   service.JobStatus
		resp *http.Response
	}
	done := make(chan outcome, 1)
	go func() {
		st, resp := submitWait(t, fleet[router].url, spec, nil)
		done <- outcome{st, resp}
	}()

	// The owner holds its third frame: the job is provably mid-sweep, and
	// Replicate is synchronous, so the first two frames are on the successor.
	select {
	case <-blocked:
	case <-time.After(30 * time.Second):
		t.Fatal("the owner never reached its third checkpoint frame")
	}
	if jobs, _, stored, _ := fleet[successor].node.reps.statsSnapshot(); jobs != 1 || stored < 2 {
		t.Fatalf("successor holds %d replica jobs, %d frames stored; want 1 and >= 2", jobs, stored)
	}

	// SIGKILL the owner: snap the listener and every live connection.
	fleet[owner].srv.Close()

	out := <-done
	unblock()
	checkResult(t, spec, out.st)
	if got := out.resp.Header.Get("X-Irred-Node"); got == owner {
		t.Fatalf("served by the killed owner %q", got)
	}

	snap := fleet[router].node.ClusterSnapshot()
	if snap.Failovers < 1 {
		t.Fatalf("router failovers = %d, want >= 1", snap.Failovers)
	}
	if snap.Replays < 1 {
		t.Fatalf("router replays = %d, want >= 1", snap.Replays)
	}
	// The successor seeded the replayed job from the replica — the resume
	// was mid-sweep, not a from-scratch recompute.
	if s := fleet[successor].node.ClusterSnapshot(); s.ReplicaSeeds < 1 {
		t.Fatalf("successor replica seeds = %d, want >= 1", s.ReplicaSeeds)
	}
}

// TestClusterPartitionFailoverAndGossip drives the deterministic network
// chaos path: a structural partition between the routing node and the
// owner forces a failover (every hop to the owner is swallowed before the
// wire), and manual gossip rounds walk the partitioned peer through
// alive -> suspect -> dead with the documented hysteresis, shrinking the
// ring — then healing the partition resurrects it.
func TestClusterPartitionFailoverAndGossip(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2", "n3"}, nil, nil)
	// Find a spec n1 does not own, so n1 must cross the partition.
	var spec service.JobSpec
	var owner string
	for seed := int64(1); ; seed++ {
		spec = clusterRawSpec(seed, 1200, 199, 2)
		_, owner, _ = routeFor(t, fleet["n1"].url, spec)
		if owner != "n1" {
			break
		}
	}
	fleet["n1"].chaos.Partition("n1", owner)

	// Gossip hysteresis first (nothing else has probed yet): 1 miss
	// alive, 2-3 suspect, 4 dead.
	wantStates := []string{"alive", "suspect", "suspect", "dead"}
	for round, want := range wantStates {
		fleet["n1"].node.GossipRound()
		got := peerState(fleet["n1"].node, owner)
		if got != want {
			t.Fatalf("after round %d: %s is %q, want %q", round+1, owner, got, want)
		}
	}
	if members := fleet["n1"].node.ring().Members(); len(members) != 2 {
		t.Fatalf("ring after death = %v, want 2 members", members)
	}
	// Recovery: one healed round resurrects the peer, no hysteresis.
	fleet["n1"].chaos.Heal("n1", owner)
	fleet["n1"].node.GossipRound()
	if got := peerState(fleet["n1"].node, owner); got != "alive" {
		t.Fatalf("after heal: %s is %q, want alive", owner, got)
	}
	if members := fleet["n1"].node.ring().Members(); len(members) != 3 {
		t.Fatalf("ring after heal = %v, want 3 members", members)
	}

	// Re-partition and submit: every hop to the owner is swallowed, the
	// router fails over, the client still gets the exact result.
	fleet["n1"].chaos.Partition("n1", owner)
	st, resp := submitWait(t, fleet["n1"].url, spec, nil)
	checkResult(t, spec, st)
	if got := resp.Header.Get("X-Irred-Node"); got == owner {
		t.Fatalf("partitioned owner %q served the job", owner)
	}
	snap := fleet["n1"].node.ClusterSnapshot()
	if snap.Failovers < 1 {
		t.Fatalf("failovers = %d, want >= 1", snap.Failovers)
	}
	if c := fleet["n1"].chaos.Counters(); c.Partitions < 1 {
		t.Fatalf("partition blocks = %d, want >= 1", c.Partitions)
	}
}

func peerState(n *Node, peer string) string {
	for _, ps := range n.table.snapshot() {
		if ps.Name == peer {
			return ps.State
		}
	}
	return ""
}

// TestClusterDrainRouteAround: a draining owner (readyz false, still
// accepting) is routed around, so rolling restarts stay client-invisible.
func TestClusterDrainRouteAround(t *testing.T) {
	fleet := startFleet(t, []string{"n1", "n2", "n3"}, nil, nil)
	var spec service.JobSpec
	var owner string
	for seed := int64(1); ; seed++ {
		spec = clusterRawSpec(seed, 1200, 199, 2)
		_, owner, _ = routeFor(t, fleet["n1"].url, spec)
		if owner != "n1" {
			break
		}
	}
	fleet[owner].svc.BeginDrain()
	// One gossip round teaches n1 the owner is not ready.
	fleet["n1"].node.GossipRound()

	st, resp := submitWait(t, fleet["n1"].url, spec, nil)
	checkResult(t, spec, st)
	if got := resp.Header.Get("X-Irred-Node"); got == owner {
		t.Fatalf("draining owner %q served the job", owner)
	}
	if serves := fleet[owner].node.ClusterSnapshot().LocalServes; serves != 0 {
		t.Fatalf("draining owner ran %d jobs, want 0", serves)
	}
}

// TestClusterTenantAdmission: the per-tenant token bucket sheds the
// over-budget tenant with 429 + Retry-After, leaves other tenants alone,
// and never applies to forwarded (already-admitted) requests.
func TestClusterTenantAdmission(t *testing.T) {
	fleet := startFleet(t, []string{"solo"}, func(name string, cfg *Config) {
		cfg.TenantRate = 0.5
		cfg.TenantBurst = 2
	}, nil)
	url := fleet["solo"].url
	spec := clusterRawSpec(3, 800, 101, 1)
	body, _ := json.Marshal(spec)

	post := func(hdr map[string]string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post(map[string]string{"X-Irred-Tenant": "acme"}); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("request %d: HTTP %d, want 202", i, resp.StatusCode)
		}
	}
	shed := post(map[string]string{"X-Irred-Tenant": "acme"})
	if shed.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: HTTP %d, want 429", shed.StatusCode)
	}
	if shed.Header.Get("Retry-After") == "" {
		t.Fatal("tenant shed missing Retry-After")
	}
	// Another tenant is unaffected.
	if resp := post(map[string]string{"X-Irred-Tenant": "other"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fresh tenant: HTTP %d, want 202", resp.StatusCode)
	}
	// Forwarded requests bypass admission (the first hop already paid).
	if resp := post(map[string]string{"X-Irred-Tenant": "acme", "X-Irred-Forward": "1"}); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("forwarded request: HTTP %d, want 202 (admission must not double-charge)", resp.StatusCode)
	}
	snap := fleet["solo"].node.ClusterSnapshot()
	if snap.TenantSheds != 1 || snap.TenantShedsBy["acme"] != 1 {
		t.Fatalf("tenant sheds = %d (%v), want 1 for acme", snap.TenantSheds, snap.TenantShedsBy)
	}
}

// TestClusterMetricsShape: /metrics keeps the flat service fields (jq
// paths in CI and dashboards must not break) and adds the cluster
// section.
func TestClusterMetricsShape(t *testing.T) {
	fleet := startFleet(t, []string{"m1", "m2"}, nil, nil)
	fleet["m1"].node.GossipRound()
	resp, err := http.Get(fleet["m1"].url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"jobs", "cache", "queue_depth"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("service metric %q missing from merged /metrics", key)
		}
	}
	cl, ok := m["cluster"].(map[string]any)
	if !ok {
		t.Fatal("cluster section missing from /metrics")
	}
	if cl["node"] != "m1" {
		t.Fatalf("cluster.node = %v", cl["node"])
	}
	peers, ok := cl["peers"].([]any)
	if !ok || len(peers) != 1 {
		t.Fatalf("cluster.peers = %v, want 1 entry", cl["peers"])
	}
	p := peers[0].(map[string]any)
	if p["name"] != "m2" || p["state"] != "alive" {
		t.Fatalf("peer row = %v", p)
	}
	if fmt.Sprint(p["ready"]) != "true" {
		t.Fatalf("peer m2 not ready in gossip view: %v", p)
	}
}
