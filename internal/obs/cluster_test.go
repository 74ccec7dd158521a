package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
)

// The real node must satisfy the watch surface; asserted here rather
// than in cluster.go to keep obs off the plane's import graph.
var _ ClusterSource = (*cluster.Node)(nil)

// fakeClusterSource serves a fixed node status, standing in for a
// *cluster.Node without booting a naming service.
type fakeClusterSource struct{ st cluster.Status }

func (f fakeClusterSource) Status() cluster.Status { return f.st }

func TestClusterEndpointAndMetrics(t *testing.T) {
	c := NewCollector()
	c.WatchCluster(fakeClusterSource{st: cluster.Status{
		Node:      "n1",
		Addr:      "127.0.0.1:9999",
		Component: "svc",
		Members:   []string{"n1", "n2"},
		Domains: []cluster.DomainStatus{
			{Domain: "alpha", Owner: "n1", Term: 3, Local: true, Addr: "127.0.0.1:9999"},
			{Domain: "beta", Owner: "n2", Term: 1, Local: false, Addr: "127.0.0.1:9998"},
		},
		LocalCalls:     10,
		Forwards:       4,
		ForwardRetries: 2,
		StaleRefusals:  1,
		Takeovers:      1,
		Replication: []cluster.SyncStatus{
			{Domain: "alpha", Leading: true, Term: 3, Successor: "n2", Lag: 2, Streamed: 8, SnapshotsSent: 1},
			{Domain: "beta", ReplicaFrom: "n2", ReplicaTerm: 1, ReplicaSeq: 7, CatchupApplied: 7, Restored: true},
		},
	}})

	srv := httptest.NewServer(NewHTTPHandler(c))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var dump ClusterDump
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("decode /cluster: %v", err)
	}
	if len(dump.Nodes) != 1 || dump.Nodes[0].Node != "n1" || len(dump.Nodes[0].Domains) != 2 {
		t.Fatalf("/cluster dump = %+v", dump)
	}
	if !dump.Nodes[0].Domains[0].Local || dump.Nodes[0].Domains[0].Term != 3 {
		t.Fatalf("/cluster lost ownership detail: %+v", dump.Nodes[0].Domains[0])
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`am_cluster_members{node="n1"} 2`,
		`am_cluster_domains_owned{node="n1"} 1`,
		`am_cluster_forwards_total{node="n1"} 4`,
		`am_cluster_stale_refusals_total{node="n1"} 1`,
		`am_cluster_takeovers_total{node="n1"} 1`,
		`am_cluster_local_calls_total{node="n1"} 10`,
		`am_cluster_sync_lag{domain="alpha",node="n1"} 2`,
		`am_cluster_sync_streamed_total{domain="alpha",node="n1"} 8`,
		`am_cluster_sync_snapshots_sent_total{domain="alpha",node="n1"} 1`,
		`am_cluster_sync_replica_seq{domain="beta",node="n1"} 7`,
		`am_cluster_sync_catchup_applied_total{domain="beta",node="n1"} 7`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
}
