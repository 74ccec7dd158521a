// Package view holds the admission plane's introspection types. It is a
// leaf package so that observability (internal/obs) can serve a node's
// status without importing the plane itself — internal/cluster depends on
// amrpc, and obs is (indirectly) visible from amrpc's tests, so a direct
// obs -> cluster edge would close an import cycle. internal/cluster
// aliases these types; callers keep writing cluster.Status.
package view

// Status is a node's introspection snapshot.
type Status struct {
	Node      string         `json:"node"`
	Addr      string         `json:"addr"`
	Component string         `json:"component"`
	Members   []string       `json:"members"`
	Domains   []DomainStatus `json:"domains"`
	// Replication is the per-domain state-handoff view (internal/statesync):
	// lag and stream counters for led domains, held suffixes for replicas.
	Replication []SyncStatus `json:"replication,omitempty"`

	LocalCalls     uint64 `json:"local_calls"`
	Forwards       uint64 `json:"forwards"`
	ForwardRetries uint64 `json:"forward_retries"`
	StaleRefusals  uint64 `json:"stale_refusals"`
	Takeovers      uint64 `json:"takeovers"`
}

// SyncStatus is one domain's effect-replication state on one node. The
// leader-side fields describe the outbound stream to the ring successor;
// the replica-side fields describe what this node holds as a successor;
// the catchup fields describe what a takeover on this node consumed.
type SyncStatus struct {
	Domain string `json:"domain"`

	Leading       bool   `json:"leading,omitempty"`
	Term          uint64 `json:"term,omitempty"`
	Successor     string `json:"successor,omitempty"`
	LastSeq       uint64 `json:"last_seq,omitempty"`
	AckedSeq      uint64 `json:"acked_seq,omitempty"`
	Lag           uint64 `json:"lag"`
	Streamed      uint64 `json:"streamed,omitempty"`
	SnapshotsSent uint64 `json:"snapshots_sent,omitempty"`
	OfferErrors   uint64 `json:"offer_errors,omitempty"`
	Overflows     uint64 `json:"overflows,omitempty"`
	// Skipped counts lost sequences the streamer abandoned after an
	// overflow with no snapshot hook to resync from: the receiver saw a
	// gap instead of the stream wedging.
	Skipped uint64 `json:"skipped,omitempty"`

	ReplicaFrom    string `json:"replica_from,omitempty"`
	ReplicaTerm    uint64 `json:"replica_term,omitempty"`
	ReplicaSeq     uint64 `json:"replica_seq,omitempty"`
	ReplicaEntries int    `json:"replica_entries,omitempty"`
	SnapshotsRecv  uint64 `json:"snapshots_recv,omitempty"`
	StaleRefused   uint64 `json:"stale_refused,omitempty"`
	Duplicates     uint64 `json:"duplicates,omitempty"`
	Gaps           uint64 `json:"gaps,omitempty"`

	CatchupApplied uint64 `json:"catchup_applied,omitempty"`
	CatchupGaps    uint64 `json:"catchup_gaps,omitempty"`
	Restored       bool   `json:"restored,omitempty"`
}

// DomainStatus is one domain's ownership as a node sees it.
type DomainStatus struct {
	Domain string `json:"domain"`
	Owner  string `json:"owner"`
	Term   uint64 `json:"term"`
	Local  bool   `json:"local"`
	Addr   string `json:"addr,omitempty"`
}
