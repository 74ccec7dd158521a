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
//   - Failed handoff: a release whose handoff cannot reach the successor
//     still leaves a barrier at the releaser's last sequence, and the
//     taker counts what its replica lacks as a catch-up gap.
//   - Fencing: a replication offer at a stale term is refused with the
//     plane's one stale-term sentinel.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/chaosnet"
	"repro/internal/cluster/view"
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

// TestClusterFailedHandoffLeavesBarrier certifies that every release
// plants its barrier: the owner of alpha is cut off from the only other
// node, so nothing it captures is replicated and its Close's handoff
// fails. The lease must still carry a barrier at the owner's last
// sequence, and the taker, whose replica lacks every effect, must count
// the loss as a catch-up gap instead of serving as if nothing were missed.
func TestClusterFailedHandoffLeavesBarrier(t *testing.T) {
	ids := []string{"x1", "x2"}
	ownerID, _ := naming.NewRing(0, ids...).Owner("alpha")
	g := newGatedNet(chaosnet.New(chaosnet.Config{}))
	namingAddr := startNaming(t)
	logs := map[string]*logLines{}
	nodes := map[string]*Node{}
	for _, id := range ids {
		logs[id] = &logLines{}
		_, nodes[id] = startLedgerNode(t, id, namingAddr, func(cfg *Config) {
			cfg.Logf = logs[id].logf
			if id == ownerID {
				cfg.DialConn = g.dial
			}
		})
	}
	owner := nodes[ownerID]
	var taker *Node
	for _, id := range ids {
		if id != ownerID {
			taker = nodes[id]
		}
	}
	waitOwnership(t, owner, taker)
	g.partition(taker.Addr())

	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := owner.Invoke(ctx, "alpha-put", fmt.Sprintf("a-x-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	seq := owner.sync.Seq("alpha")
	start := time.Now()
	owner.Close()
	if len(logs[ownerID].with("handoff alpha", "failed")) == 0 {
		t.Fatalf("the handoff to a partitioned successor did not fail; %s logged %q", ownerID, logs[ownerID].with(""))
	}
	waitOwns(t, taker, "alpha", start)
	if st := syncRow(taker, "alpha"); st.CatchupGaps < 1 {
		t.Fatalf("%s took alpha over without %s's %d effects and counted %d catch-up gaps, want at least 1",
			taker.ID(), ownerID, seq, st.CatchupGaps)
	}
	waitLine(t, logs[taker.ID()], start, "acquired alpha", fmt.Sprintf("barrier from %s through seq %d", ownerID, seq))
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
		Entries: []statesync.Entry{{Domain: "beta", Seq: 1, Term: term, Method: "beta-put", Args: json.RawMessage(`["b-zombie"]`)}},
	}
	before := owner.Status().StaleRefusals
	_, err = c.Component(controlName(owner.ID())).Invoke(context.Background(), "sync-offer", offer)
	if !errors.Is(err, naming.ErrStaleTerm) {
		t.Fatalf("stale sync offer: err = %v, want ErrStaleTerm", err)
	}
	if owner.Status().StaleRefusals <= before {
		t.Fatal("stale offer refusal not counted")
	}
}

// TestAckFromReply pins how the replication stream reads its ack: straight
// from the reply's generic wire form, a bare number, and a reply that is
// not one is an error that names the reply — not a silent ack of zero,
// which would leave the leader's log unreclaimed with nothing said.
func TestAckFromReply(t *testing.T) {
	ack, err := ackFromReply(float64(1 << 40))
	if err != nil || ack.Acked != 1<<40 {
		t.Fatalf("ack = %+v, err = %v", ack, err)
	}
	for _, bad := range []any{nil, true, "7", map[string]any{}, map[string]any{"acked": float64(7)}} {
		if _, err := ackFromReply(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprint(bad)) {
			t.Errorf("reply %v: err = %v, want an error naming the reply", bad, err)
		}
	}
}

// TestReplicaDoesNotAliasRequestLine pins the lifetime rule of raw
// arguments on the replication stream: an offer reaches the successor as
// bytes of the server's pooled request line, which the next frames on the
// connection overwrite, so the replica must copy whatever it keeps. The
// test ships one offer, pushes 64 more of the same shape through the same
// connection — the same pooled lines — and then resumes the first one's
// domain: every entry must be replayed as it was offered.
func TestReplicaDoesNotAliasRequestLine(t *testing.T) {
	namingAddr := startNaming(t)
	_, n := startLedgerNode(t, "o1", namingAddr, nil)
	c, err := amrpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl := c.Component(controlName(n.ID()))
	offer := func(domain, tag string, from int) statesync.Offer {
		o := statesync.Offer{From: "peer", Domain: domain, Term: 1}
		for s := from; s < from+16; s++ {
			o.Entries = append(o.Entries, statesync.Entry{Domain: domain, Seq: uint64(s), Term: 1, Method: "gamma-put",
				Args: json.RawMessage(fmt.Sprintf(`["%s-%04d",%d,{"tag":%q}]`, tag, s, s, tag))})
		}
		return o
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	first := offer("gamma", "first", 1)
	if _, err := ctl.Invoke(ctx, "sync-offer", first); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := ctl.Invoke(ctx, "sync-offer", offer("delta", "later", 1+16*i)); err != nil {
			t.Fatal(err)
		}
	}
	var replayed []statesync.Entry
	n.sync.Resume("gamma", naming.DomainLease{Domain: "gamma", Holder: n.ID(), Term: 2}, "", nil, func(e statesync.Entry) error {
		replayed = append(replayed, e)
		return nil
	})
	if !reflect.DeepEqual(replayed, first.Entries) {
		t.Fatalf("resume after 64 more frames replayed %+v, want %+v", replayed, first.Entries)
	}
}

// TestCaptureDoesNotAliasRequestLine is TestReplicaDoesNotAliasRequestLine
// on the owner's side: a served call's effect is captured in the bytes its
// frame carried the arguments in, which are the server's pooled request
// line, overwritten by the next frames on the connection, so the log must
// copy them. With the owner's stream paused, 16 calls with distinct
// arguments and then 64 more of the same shape to the other domain go
// through one client; once the stream has caught up, the successor must
// replay the 16 exactly as they were sent.
func TestCaptureDoesNotAliasRequestLine(t *testing.T) {
	namingAddr := startNaming(t)
	noSnapshot := func(cfg *Config) { cfg.Snapshot, cfg.Restore = nil, nil }
	_, n1 := startLedgerNode(t, "n1", namingAddr, noSnapshot)
	_, n2 := startLedgerNode(t, "n2", namingAddr, noSnapshot)
	owner, succ := n1, n2
	if waitOwnership(t, n1, n2)["alpha"] == n2 {
		owner, succ = n2, n1
	}
	c, err := amrpc.Dial(owner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stub := c.Component(owner.component)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	caughtUp := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for syncRow(succ, "alpha").ReplicaSeq != owner.sync.Seq("alpha") {
			if time.Now().After(deadline) {
				t.Fatalf("successor stuck at seq %d, owner at %d", syncRow(succ, "alpha").ReplicaSeq, owner.sync.Seq("alpha"))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	if _, err := stub.Invoke(ctx, "alpha-put", "a-warm"); err != nil {
		t.Fatal(err)
	}
	caughtUp()
	owner.sync.Pause(true)
	time.Sleep(50 * time.Millisecond) // let a flush already under way finish
	var want []string
	for i := 0; i < 16; i++ {
		if _, err := stub.Invoke(ctx, "alpha-put", fmt.Sprintf("a-cap-%04d", i), i, map[string]any{"tag": "cap"}); err != nil {
			t.Fatal(err)
		}
		want = append(want, fmt.Sprintf(`["a-cap-%04d",%d,{"tag":"cap"}]`, i, i))
	}
	for i := 0; i < 64; i++ {
		if _, err := stub.Invoke(ctx, "beta-put", fmt.Sprintf("b-later-%04d", i), i, map[string]any{"tag": "later"}); err != nil {
			t.Fatal(err)
		}
	}
	owner.sync.Pause(false)
	caughtUp()
	term, _ := owner.owns("alpha")
	var got []string
	succ.sync.Resume("alpha", naming.DomainLease{Domain: "alpha", Holder: succ.ID(), Term: term + 1}, "", nil, func(e statesync.Entry) error {
		got = append(got, string(e.Args))
		return nil
	})
	if len(got) < len(want) || !reflect.DeepEqual(got[len(got)-len(want):], want) {
		t.Fatalf("resume after 64 more frames replayed %q, want %q last", got, want)
	}
}

// TestClusterReplicatesPastDeepArgument pins the replication stream against
// an argument an amrpc call may carry but an offer may not: nested 62
// levels deep, it is legal in the forwarded call, and four levels too deep
// once wrapped in the offer, its entry and its args. The owner must get
// past that entry — through a snapshot with the app's hooks, as a gap the
// successor records without them — so that the ordinary calls after it
// still bring the successor level with the owner, with no offer error.
func TestClusterReplicatesPastDeepArgument(t *testing.T) {
	deep := any("x")
	for i := 0; i < 62; i++ {
		deep = []any{deep}
	}
	for _, c := range []struct {
		name   string
		mutate func(*Config)
	}{
		{"snapshot hooks", nil},
		{"no snapshot hooks", func(cfg *Config) { cfg.Snapshot, cfg.Restore = nil, nil }},
	} {
		t.Run(c.name, func(t *testing.T) {
			namingAddr := startNaming(t)
			_, n1 := startLedgerNode(t, "n1", namingAddr, c.mutate)
			_, n2 := startLedgerNode(t, "n2", namingAddr, c.mutate)
			owner, entry := n1, n2
			if waitOwnership(t, n1, n2)["alpha"] == n2 {
				owner, entry = n2, n1
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if _, err := entry.Invoke(ctx, "alpha-put", "a-deep", deep); err != nil {
				t.Fatalf("forwarded call with a 62-deep argument: %v", err)
			}
			for i := 0; i < 20; i++ {
				if _, err := entry.Invoke(ctx, "alpha-put", fmt.Sprintf("a-after-%d", i)); err != nil {
					t.Fatal(err)
				}
			}
			last := owner.sync.Seq("alpha")
			var lead, replica view.SyncStatus
			deadline := time.Now().Add(5 * time.Second)
			for replica.ReplicaSeq != last {
				if time.Now().After(deadline) {
					t.Fatalf("successor stuck at seq %d, owner at %d (offer errors %d)", replica.ReplicaSeq, last, lead.OfferErrors)
				}
				time.Sleep(20 * time.Millisecond)
				lead, replica = syncRow(owner, "alpha"), syncRow(entry, "alpha")
			}
			wantSkipped, wantGaps := uint64(0), uint64(0)
			if c.mutate != nil {
				wantSkipped, wantGaps = 1, 1
			}
			if lead.OfferErrors != 0 || lead.Skipped != wantSkipped || replica.Gaps != wantGaps {
				t.Fatalf("owner: offer errors %d, skipped %d; successor: gaps %d; want 0, %d, %d",
					lead.OfferErrors, lead.Skipped, replica.Gaps, wantSkipped, wantGaps)
			}
		})
	}
}

// syncRow returns n's replication status row for domain.
func syncRow(n *Node, domain string) view.SyncStatus {
	for _, st := range n.SyncStatus() {
		if st.Domain == domain {
			return st
		}
	}
	return view.SyncStatus{}
}
