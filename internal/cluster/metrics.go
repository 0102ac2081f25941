package cluster

import "sync/atomic"

// counters is the node's cluster-layer telemetry, all lock-free. The
// numbers answer the operational questions a coordinator-light fleet
// raises: is routing spread sane (localServes vs forwards), is the fleet
// healthy (failovers, replays), is chaos biting (forwardRetries).
type counters struct {
	forwards       atomic.Int64 // jobs proxied to a remote owner
	forwardRetries atomic.Int64 // per-hop retries during forwards
	failovers      atomic.Int64 // forwards that abandoned a target for its successor
	localServes    atomic.Int64 // jobs this node owned and ran itself
	replays        atomic.Int64 // jobs resubmitted after an owner died mid-job
	replicasSent   atomic.Int64 // checkpoint frames shipped to successors
	replicaSeeds   atomic.Int64 // FetchReplica hits: replays seeded from the local store
	gossipOK       atomic.Int64
	gossipFail     atomic.Int64
}

// Snapshot is the cluster section of /metrics.
type Snapshot struct {
	Node           string       `json:"node"`
	RingMembers    []string     `json:"ring_members"`
	Peers          []PeerStatus `json:"peers"`
	Forwards       int64        `json:"forwards"`
	ForwardRetries int64        `json:"forward_retries"`
	Failovers      int64        `json:"failovers"`
	LocalServes    int64        `json:"local_serves"`
	Replays        int64        `json:"replays"`
	ReplicasSent   int64        `json:"replicas_sent"`
	ReplicaSeeds   int64        `json:"replica_seeds"`
	ReplicaJobs    int          `json:"replica_jobs"`
	ReplicaBytes   int64        `json:"replica_bytes"`
	ReplicaStored  int64        `json:"replica_stored"`
	ReplicaEvicted int64        `json:"replica_evicted"`
	GossipOK       int64        `json:"gossip_ok"`
	GossipFail     int64        `json:"gossip_fail"`
}
