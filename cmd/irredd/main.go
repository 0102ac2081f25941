// Command irredd is the reduction-as-a-service daemon: an HTTP/JSON server
// over the paper's execution strategy with a persistent LightInspector
// schedule cache and a bounded native-engine executor pool.
//
// The paper's economics hinge on amortization — the inspector runs once and
// its schedules are reused across ~100 executor iterations. irredd extends
// that amortization across requests and across restarts: jobs whose
// indirection arrays and strategy (P, k, dist) have been seen before skip
// the inspector entirely, and with -cache-dir the warmed cache survives a
// daemon restart.
//
//	irredd -addr :8321 -workers 4 -queue 64 -cache-entries 128 -cache-dir /var/cache/irredd
//
// Streaming sessions extend the amortization further: a client POSTs its
// base job to /v1/session once, then streams sparse indirection deltas to
// /v1/session/{id}/delta. The daemon keeps the session's schedules
// resident and revises them incrementally (Schedule.Update) instead of
// re-inspecting; deltas touching more than a quarter of the iteration
// space (service.DefaultFallbackFrac) fall back to a full re-inspection.
// Sessions are LRU evicted past -max-sessions and fail closed across
// restarts — a lost session id answers 410 Gone, never a silently stale
// schedule.
//
// Robustness controls: -checkpoint-every N makes raw multi-sweep jobs
// checkpoint their reduction array to -cache-dir so a restarted daemon
// resumes them, and SIGTERM drains gracefully — /readyz flips to 503 for
// -drain-grace before the listener closes.
//
// Cluster mode turns a set of irredds into a coordinator-light fleet:
//
//	irredd -addr :8321 -cluster-node n1 \
//	       -cluster-peers n2=http://host2:8321,n3=http://host3:8321
//
// Each node routes job submissions by consistent hashing on the job's
// schedule-cache key (so the warm cache shards across the fleet), gossips
// health with its peers every -gossip-every (suspect after
// -suspect-after consecutive missed probes, dead after -dead-after; dead
// peers leave the ring), replicates job checkpoints to the key's ring
// successor, and fails jobs over — with the client seeing only a slower
// answer — when a peer dies mid-job. -cluster-chaos installs a
// deterministic network fault spec (net_drop, net_delay, partition=a~b) on
// inter-node hops for soak testing.
//
// With -debug-addr a second loopback listener serves pprof, expvar, and the
// phase-level span trace:
//
//	irredd -addr :8321 -debug-addr 127.0.0.1:8322
//	curl -s 'localhost:8322/debug/trace?format=table'
//
//	curl -s localhost:8321/healthz
//	curl -s -X POST 'localhost:8321/v1/jobs?wait=1' \
//	     -d '{"kernel":"mvm","dataset":"S","p":4,"k":2,"steps":5}'
//	curl -s localhost:8321/metrics
package main

import (
	"context"
	"expvar"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"strings"

	"irred/internal/buildinfo"
	"irred/internal/cluster"
	"irred/internal/fault"
	"irred/internal/service"
)

// parsePeers decodes "-cluster-peers n2=http://host2:8321,n3=http://host3:8321".
func parsePeers(s string) (map[string]string, error) {
	peers := make(map[string]string)
	if strings.TrimSpace(s) == "" {
		return peers, nil
	}
	for _, part := range strings.Split(s, ",") {
		name, url, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || name == "" || url == "" {
			return nil, fmt.Errorf("entry %q: want name=url", part)
		}
		if _, dup := peers[name]; dup {
			return nil, fmt.Errorf("duplicate peer %q", name)
		}
		peers[name] = strings.TrimRight(url, "/")
	}
	return peers, nil
}

func main() {
	addr := flag.String("addr", "127.0.0.1:8321", "listen address (use :0 for a random port)")
	workers := flag.Int("workers", 0, "executor pool size (0 = GOMAXPROCS/2)")
	queue := flag.Int("queue", 64, "admission queue bound; beyond it jobs are shed with 429")
	cacheEntries := flag.Int("cache-entries", 128, "in-memory schedule cache entries (LRU)")
	cacheDir := flag.String("cache-dir", "", "persist cached schedules here and warm from it on start")
	debugAddr := flag.String("debug-addr", "", "serve pprof, expvar, and /debug/trace on this extra listener (empty = off)")
	traceSpans := flag.Int("trace-spans", 0, "phase-trace ring capacity in spans (0 = default, <0 = disable tracing)")
	maxSessions := flag.Int("max-sessions", 0, "resident streaming sessions before LRU eviction (0 = default 64)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint raw multi-sweep jobs every N sweeps (0 = only when the job asks; needs -cache-dir)")
	drainGrace := flag.Duration("drain-grace", 500*time.Millisecond, "on SIGTERM, keep serving with /readyz=503 this long before closing the listener")
	clusterNode := flag.String("cluster-node", "", "this node's name in a cluster (empty = single-node mode)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated name=url peer list (cluster mode)")
	gossipEvery := flag.Duration("gossip-every", time.Second, "health gossip probe period (cluster mode)")
	suspectAfter := flag.Int("suspect-after", 2, "consecutive missed probes before a peer is suspect")
	deadAfter := flag.Int("dead-after", 4, "consecutive missed probes before a peer is dead and leaves the ring")
	clusterChaos := flag.String("cluster-chaos", "", "deterministic network fault spec for inter-node hops, e.g. 'seed=7,net_drop=0.05,partition=n1~n2'")
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()

	if *version {
		fmt.Println("irredd " + buildinfo.Get().String())
		return
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredd: %v\n", err)
		os.Exit(1)
	}

	opt := service.Options{
		Workers:         *workers,
		QueueLen:        *queue,
		CacheEntries:    *cacheEntries,
		CacheDir:        *cacheDir,
		TraceSpans:      *traceSpans,
		CheckpointEvery: *checkpointEvery,
		MaxSessions:     *maxSessions,
	}

	// Cluster mode wraps the service handler with the routing/gossip node.
	// The node is built first because the service takes its replication
	// hooks at construction time.
	var node *cluster.Node
	if *clusterNode != "" {
		peers, err := parsePeers(*clusterPeers)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredd: -cluster-peers: %v\n", err)
			os.Exit(1)
		}
		var inj *fault.Injector
		if *clusterChaos != "" {
			spec, err := fault.ParseSpec(*clusterChaos)
			if err != nil {
				fmt.Fprintf(os.Stderr, "irredd: -cluster-chaos: %v\n", err)
				os.Exit(1)
			}
			inj = fault.New(spec)
			log.Printf("irredd: cluster network chaos ENABLED: %s", spec.String())
		}
		node, err = cluster.New(cluster.Config{
			Self:         *clusterNode,
			Peers:        peers,
			GossipEvery:  *gossipEvery,
			SuspectAfter: *suspectAfter,
			DeadAfter:    *deadAfter,
			Chaos:        inj,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredd: %v\n", err)
			os.Exit(1)
		}
		opt.Replicate = node.Replicate
		opt.FetchReplica = node.FetchReplica
	}

	svc, err := service.New(opt)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irredd: %v\n", err)
		os.Exit(1)
	}
	defer svc.Close()

	handler := svc.Handler()
	if node != nil {
		node.Attach(svc)
		node.Start()
		defer node.Close()
		handler = node.Handler()
		log.Printf("irredd: cluster node %q (%d peers, gossip every %s)",
			*clusterNode, len(node.Peers()), *gossipEvery)
	}

	// The resolved address line is load-bearing: scripts starting irredd on
	// :0 parse it to find the port.
	log.Printf("irredd: listening on http://%s", ln.Addr())
	if st := svc.Cache().Stats(); st.Entries > 0 {
		log.Printf("irredd: schedule cache warmed with %d entries from %s", st.Entries, *cacheDir)
	}

	srv := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	// The debug listener is separate from the API listener on purpose: it
	// can stay loopback-only (or firewalled) while the API is exposed, and
	// profiling traffic never competes with job submissions for the same
	// accept queue.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irredd: debug listener: %v\n", err)
			os.Exit(1)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		expvar.Publish("irredd", expvar.Func(func() any { return svc.Metrics() }))
		dmux.Handle("/debug/vars", expvar.Handler())
		dmux.Handle("/debug/trace", svc.TraceHandler())
		log.Printf("irredd: debug listener on http://%s", dln.Addr())
		go func() {
			dsrv := &http.Server{Handler: dmux}
			if err := dsrv.Serve(dln); err != nil && err != http.ErrServerClosed {
				log.Printf("irredd: debug listener: %v", err)
			}
		}()
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		// Drain in the load-balancer-friendly order: fail readiness first,
		// keep serving through the grace window so health checkers observe
		// the 503 and stop routing, then close the listener and wait for
		// in-flight requests. Checkpointed jobs interrupted here are resumed
		// by the next daemon over the same -cache-dir.
		log.Printf("irredd: %v: draining (readyz now 503, grace %s)", sig, *drainGrace)
		svc.BeginDrain()
		time.Sleep(*drainGrace)
		ctx, cancel := context.WithTimeout(context.Background(), service.ShutdownGrace)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("irredd: shutdown: %v", err)
		}
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintf(os.Stderr, "irredd: %v\n", err)
			os.Exit(1)
		}
	}
}
