package obs

// Cluster observability: a node of the distributed admission plane
// registers itself as a cluster source, its plane counters (forwards,
// stale refusals, wake traffic, takeovers) appear at every /metrics
// scrape, and the full ownership view — which node holds which admission
// domain at which lease term — is served at /cluster. Everything here
// reads atomically-published node state; scraping never touches the
// routing or admission path.

import (
	"repro/internal/cluster/view"
)

// ClusterSource is the surface the collector polls for the distributed
// admission plane. *cluster.Node satisfies it (asserted in the tests —
// importing the plane here would close an import cycle through amrpc's
// test binary, so this package depends only on the leaf view types).
type ClusterSource interface {
	Status() view.Status
}

// WatchCluster registers a cluster node: its plane counters appear at
// every /metrics scrape as am_cluster_* series and its ownership view is
// served at /cluster.
func (c *Collector) WatchCluster(s ClusterSource) {
	c.mu.Lock()
	c.clusters = append(c.clusters, s)
	c.mu.Unlock()
	c.reg.Collect(func(emit EmitFunc) { collectCluster(s, emit) })
}

func (c *Collector) watchedClusters() []ClusterSource {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]ClusterSource(nil), c.clusters...)
}

func collectCluster(s ClusterSource, emit EmitFunc) {
	st := s.Status()
	node := L("node", st.Node)
	owned := 0
	for _, d := range st.Domains {
		if d.Local {
			owned++
		}
	}
	emit("am_cluster_members", "Cluster members in this node's view.", []Label{node}, float64(len(st.Members)))
	emit("am_cluster_domains_owned", "Admission domains this node holds a live lease on.", []Label{node}, float64(owned))
	emit("am_cluster_local_calls_total", "Guarded invocations admitted on this node.", []Label{node}, float64(st.LocalCalls))
	emit("am_cluster_forwards_total", "Invocations transparently forwarded to a domain's owner.", []Label{node}, float64(st.Forwards))
	emit("am_cluster_forward_retries_total", "Routing retries (stale views, failover windows, dead peers).", []Label{node}, float64(st.ForwardRetries))
	emit("am_cluster_stale_refusals_total", "Fenced requests refused for a stale or foreign lease term.", []Label{node}, float64(st.StaleRefusals))
	emit("am_cluster_takeovers_total", "Domains inherited from a previous owner (term > 1 acquisitions).", []Label{node}, float64(st.Takeovers))
	for _, r := range st.Replication {
		labels := []Label{node, L("domain", r.Domain)}
		if r.Leading {
			emit("am_cluster_sync_lag", "Captured effects not yet acknowledged by the domain's ring successor.", labels, float64(r.Lag))
			emit("am_cluster_sync_streamed_total", "Effect-log entries acknowledged by the successor.", labels, float64(r.Streamed))
			emit("am_cluster_sync_snapshots_sent_total", "State snapshots shipped to the successor (handoffs and overflow resyncs).", labels, float64(r.SnapshotsSent))
			emit("am_cluster_sync_overflows_total", "Captures refused because the unacked replication window was full.", labels, float64(r.Overflows))
		}
		if r.ReplicaFrom != "" {
			emit("am_cluster_sync_replica_seq", "Highest replicated sequence held for a predecessor's domain.", labels, float64(r.ReplicaSeq))
		}
		if r.CatchupApplied > 0 || r.Restored {
			emit("am_cluster_sync_catchup_applied_total", "Replicated effects replayed locally at takeover.", labels, float64(r.CatchupApplied))
		}
	}
}

// ClusterDump is the /cluster response body: one status per watched node
// (a process usually hosts one, but embedded tests may host several).
type ClusterDump struct {
	Nodes []view.Status `json:"nodes"`
}

// ClusterSnapshot builds the introspection snapshot served at /cluster.
func (c *Collector) ClusterSnapshot() ClusterDump {
	dump := ClusterDump{Nodes: []view.Status{}}
	for _, s := range c.watchedClusters() {
		dump.Nodes = append(dump.Nodes, s.Status())
	}
	return dump
}
