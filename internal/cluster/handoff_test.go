package cluster

// Deterministic state-handoff certification (the `make handoff-smoke`
// suite): one test per handoff path, no chaos, exact audits.
//
//   - Graceful release: Close flushes a snapshot to the successor and
//     releases the lease with a barrier; the new owner restores it before
//     serving. The ledger must collapse to a single authoritative copy —
//     every effect exactly once on the new owner, nothing forged.
//   - Hard kill: the replication log (no snapshot hooks) is the only
//     carrier; after lease expiry the new owner replays the suffix through
//     its own guarded component. Same audit.
//   - Fencing: a replication offer at a stale term is refused with the
//     plane's one stale-term sentinel.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/naming"
	"repro/internal/statesync"
)

// TestClusterGracefulHandoffSnapshot certifies the snapshot barrier path:
// a graceful Close hands the domain's full state to the successor before
// the lease moves.
func TestClusterGracefulHandoffSnapshot(t *testing.T) {
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"g1", "g2", "g3"} {
		b, n := startLedgerNode(t, id, namingAddr, nil)
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	victim := owners["alpha"]
	var gateway *Node
	for _, n := range nodes {
		if n != victim {
			gateway = n
			break
		}
	}

	const per = 30
	ctx := context.Background()
	for i := 0; i < per; i++ {
		if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-g-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	victim.Close() // graceful: drain → snapshot flush → barrier release

	var survivors []*Node
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	newOwner := liveOwnerOf(t, survivors, "alpha", 5*time.Second)

	// The authoritative copy: every effect exactly once on the new owner.
	auth, unknown := backends[newOwner.ID()].snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on %s: %v", newOwner.ID(), unknown)
	}
	for i := 0; i < per; i++ {
		id := fmt.Sprintf("a-g-%d", i)
		if auth[id] != 1 {
			t.Fatalf("effect %s count %d on new owner %s, want 1", id, auth[id], newOwner.ID())
		}
	}
	// And it arrived via the snapshot path, installed before serving.
	restored := false
	for _, s := range newOwner.SyncStatus() {
		if s.Domain == "alpha" && s.Restored {
			restored = true
		}
	}
	if !restored {
		t.Fatal("graceful handover did not use the snapshot path")
	}
	// A call through the new owner keeps working on the resumed state.
	if _, err := gateway.Invoke(ctx, "alpha-put", "a-g-after"); err != nil {
		t.Fatalf("post-handover put: %v", err)
	}
	fresh, _ := backends[newOwner.ID()].snapshot()
	if fresh["a-g-after"] != 1 {
		t.Fatal("post-handover effect missing on new owner")
	}
}

// TestClusterHardKillLogCatchup certifies the log catch-up path: with no
// snapshot hooks configured, the streamed effect log alone must carry the
// domain's state across a hard owner death.
func TestClusterHardKillLogCatchup(t *testing.T) {
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"h1", "h2", "h3"} {
		b, n := startLedgerNode(t, id, namingAddr, func(cfg *Config) {
			cfg.Snapshot, cfg.Restore = nil, nil // log-only replication
		})
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	victim := owners["alpha"]
	var gateway *Node
	for _, n := range nodes {
		if n != victim {
			gateway = n
			break
		}
	}

	const per = 30
	ctx := context.Background()
	for i := 0; i < per; i++ {
		if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-h-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	// Deterministic kill: every captured effect acknowledged first.
	waitSyncDrained(t, victim, "alpha", 3*time.Second)
	victim.Fail()

	var survivors []*Node
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	newOwner := liveOwnerOf(t, survivors, "alpha", 5*time.Second)
	auth, unknown := backends[newOwner.ID()].snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on %s: %v", newOwner.ID(), unknown)
	}
	for i := 0; i < per; i++ {
		id := fmt.Sprintf("a-h-%d", i)
		if auth[id] != 1 {
			t.Fatalf("effect %s count %d on new owner %s, want 1 (log catch-up lost it)", id, auth[id], newOwner.ID())
		}
	}
	applied := uint64(0)
	for _, s := range newOwner.SyncStatus() {
		if s.Domain == "alpha" {
			applied = s.CatchupApplied
		}
	}
	if applied != per {
		t.Fatalf("catch-up applied %d effects, want %d", applied, per)
	}
}

// TestClusterSameTermReacquireKeepsReplication reproduces the transient
// renew blip: local ownership is dropped while the lease — and the
// successor's replica — stay live at the current term, so the next beat
// re-acquires the SAME term. The node must keep its effect log:
// restarting the sequence at 1 would make the successor refuse every
// later effect as a duplicate, silently killing replication for the rest
// of the term and losing state at the next failover.
func TestClusterSameTermReacquireKeepsReplication(t *testing.T) {
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"r1", "r2", "r3"} {
		b, n := startLedgerNode(t, id, namingAddr, func(cfg *Config) {
			cfg.Snapshot, cfg.Restore = nil, nil // log-only: the log must carry everything
		})
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	owner := owners["alpha"]
	var gateway *Node
	for _, n := range nodes {
		if n != owner {
			gateway = n
			break
		}
	}

	ctx := context.Background()
	const per = 10
	for i := 0; i < per; i++ {
		if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-r-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitSyncDrained(t, owner, "alpha", 3*time.Second)

	// The blip: drop ownership locally without touching the lease or the
	// replication stream — exactly what a transient renew failure leaves
	// behind. The lease stays live, so the re-acquire extends it at the
	// same term.
	owner.mu.Lock()
	term := owner.owned["alpha"].term
	delete(owner.owned, "alpha")
	owner.mu.Unlock()

	deadline := time.Now().Add(3 * time.Second)
	for {
		if got, ok := owner.owns("alpha"); ok {
			if got != term {
				t.Fatalf("re-acquired alpha at term %d, want the same term %d", got, term)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("owner never re-acquired alpha")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if seq := owner.sync.Seq("alpha"); seq < per {
		t.Fatalf("effect sequence restarted on same-term re-acquire: seq=%d, want >= %d", seq, per)
	}

	// Replication keeps flowing after the re-acquire...
	for i := per; i < 2*per; i++ {
		if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-r-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	waitSyncDrained(t, owner, "alpha", 3*time.Second)

	// ...and a hard failover resumes the COMPLETE state, including the
	// effects admitted after the blip.
	owner.Fail()
	var survivors []*Node
	for _, n := range nodes {
		if n != owner {
			survivors = append(survivors, n)
		}
	}
	newOwner := liveOwnerOf(t, survivors, "alpha", 5*time.Second)
	auth, unknown := backends[newOwner.ID()].snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on %s: %v", newOwner.ID(), unknown)
	}
	for i := 0; i < 2*per; i++ {
		id := fmt.Sprintf("a-r-%d", i)
		if auth[id] != 1 {
			t.Fatalf("effect %s count %d on new owner %s, want 1 (lost across the renew blip)",
				id, auth[id], newOwner.ID())
		}
	}
}

// TestClusterSnapshotWithoutRestoreCountsGap certifies the audit signal
// for a one-sided hook configuration: a handed-over snapshot the taker
// cannot install (no Restore hook) must be counted as a catch-up gap —
// the node serves from a blank baseline, and that must be visible, just
// like a failed restore.
func TestClusterSnapshotWithoutRestoreCountsGap(t *testing.T) {
	namingAddr := startNaming(t)
	var nodes []*Node
	for _, id := range []string{"s1", "s2", "s3"} {
		_, n := startLedgerNode(t, id, namingAddr, func(cfg *Config) {
			cfg.Restore = nil // Snapshot stays set: baselines ship but cannot land
		})
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	victim := owners["alpha"]
	var gateway *Node
	for _, n := range nodes {
		if n != victim {
			gateway = n
			break
		}
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-s-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	victim.Close() // graceful: ships a snapshot the successor cannot install

	var survivors []*Node
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	newOwner := liveOwnerOf(t, survivors, "alpha", 5*time.Second)
	found := false
	for _, s := range newOwner.SyncStatus() {
		if s.Domain != "alpha" {
			continue
		}
		found = true
		if s.Restored {
			t.Fatal("takeover claims a restore without a Restore hook")
		}
		if s.CatchupGaps == 0 {
			t.Fatal("discarded snapshot left no audit signal (no catch-up gap counted)")
		}
	}
	if !found {
		t.Fatal("new owner has no replication status for alpha")
	}
}

// TestClusterStaleSyncOfferRefused certifies replication fencing: an offer
// at a term not above what the receiver already leads the domain at is
// refused with the plane's one stale-term sentinel — a zombie leader's
// flush cannot overwrite the live owner's state.
func TestClusterStaleSyncOfferRefused(t *testing.T) {
	namingAddr := startNaming(t)
	_, n1 := startLedgerNode(t, "z1", namingAddr, nil)
	_, n2 := startLedgerNode(t, "z2", namingAddr, nil)
	owners := waitOwnership(t, n1, n2)
	owner := owners["beta"]
	term, ok := owner.owns("beta")
	if !ok {
		t.Fatal("owner lost beta immediately")
	}

	c, err := amrpc.Dial(owner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	offer := statesync.Offer{
		From: "zombie", Domain: "beta", Term: term,
		Entries: []statesync.Entry{{Domain: "beta", Seq: 1, Term: term, Method: "beta-put", Args: []any{"b-zombie"}}},
	}
	payload, err := json.Marshal(offer)
	if err != nil {
		t.Fatal(err)
	}
	before := owner.Status().StaleRefusals
	_, err = c.Component(controlName(owner.ID())).Invoke(context.Background(), "sync-offer", string(payload))
	if !errors.Is(err, naming.ErrStaleTerm) {
		t.Fatalf("stale sync offer: err = %v, want ErrStaleTerm", err)
	}
	if owner.Status().StaleRefusals <= before {
		t.Fatal("stale offer refusal not counted")
	}
}

// TestAckFromReply pins how the replication stream reads its ack: straight
// from the reply's generic wire form, and a reply without a numeric acked
// is an error that names the reply — not a silent ack of zero, which would
// leave the leader's log unreclaimed with nothing said.
func TestAckFromReply(t *testing.T) {
	ack, err := ackFromReply(map[string]any{"acked": float64(1 << 40)})
	if err != nil || ack.Acked != 1<<40 {
		t.Fatalf("ack = %+v, err = %v", ack, err)
	}
	for _, bad := range []any{nil, true, "acked", map[string]any{}, map[string]any{"acked": "7"}} {
		if _, err := ackFromReply(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Errorf("reply %v: err = %v, want an error naming the reply", bad, err)
		}
	}
}
