package cluster

// Replicated state handoff: the plane's integration with
// internal/statesync. Every completed admission on an owned domain is
// captured into a per-domain, fence-term-stamped effect log and streamed
// asynchronously to the domain's ring successor. Ownership moves on one
// path, reconcileOwnership, whether a beat saw the membership change or
// the node is leaving (Close), and the new owner resumes the domain's
// *state*, not just its moderation:
//
//   - A release drains in-flight admissions, flushes the log (plus a
//     snapshot when the application provides one) to the successor, and
//     releases the lease with a snapshot barrier at the last sequence
//     captured, whether or not the flush got through. The next grant
//     carries the barrier.
//   - The acquirer hands the rest to statesync.Manager.Resume: restore the
//     replica's snapshot (if any), re-apply its log suffix through the
//     local guarded component — which re-captures each effect at the new
//     term and re-replicates it onward to the *next* successor — and count
//     as catch-up gaps what it could not bring back, a replica short of
//     the barrier among it. After a failover (lease expiry) there is no
//     barrier; the replica is what the dead owner streamed.
//
// The resume completes before the domain is inserted into the owned set,
// so fenced traffic is refused (and retried by routers) until state is
// resumed: callers never observe a new owner serving from a blank slate.

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/cluster/view"
	"repro/internal/moderator"
	"repro/internal/naming"
	"repro/internal/statesync"
)

// replicationLayer is the local moderator's innermost layer while state
// sync is on. Postactions run innermost first, so the capture runs right
// after the body, before any other concern's postaction, and under the
// domain's lock on the routes that take one: a serialized domain's log
// order is its execution order.
const replicationLayer = "replication"

// composeReplication adds the replication layer: one passive aspect per
// bound method, whose postaction appends a successful completion to the
// method's domain log. Capture no-ops for domains this node does not lead.
// The aspect declares no wake list, so the plans' wake targets are
// unchanged.
func (n *Node) composeReplication() error {
	mod := n.cfg.Local.Moderator()
	if err := mod.AddLayer(replicationLayer, moderator.Innermost); err != nil {
		return err
	}
	kind := aspect.Kind(replicationLayer)
	for method, domain := range n.domains {
		capture := &aspect.Func{
			AspectName:      "capture",
			AspectKind:      kind,
			NonBlockingFlag: true,
			Post: func(inv *aspect.Invocation) {
				switch w := inv.Wire(); {
				case inv.Err() != nil: // a failed body left no effect to replicate
				case w != nil: // a served call's, in the bytes its frame carried
					n.sync.CaptureWire(domain, method, w)
				default:
					n.sync.Capture(domain, method, inv.Args())
				}
			},
		}
		if err := mod.RegisterIn(replicationLayer, method, kind, capture); err != nil {
			_ = mod.RemoveLayer(replicationLayer)
			return err
		}
	}
	return nil
}

// syncTransport ships replication offers over the node's pooled amrpc
// control connections, so the stream rides the same data plane (and the
// same chaosnet faults) as forwarded admissions.
type syncTransport struct{ n *Node }

func (t *syncTransport) Offer(ctx context.Context, succ string, o statesync.Offer) (statesync.Ack, error) {
	n := t.n
	n.mu.Lock()
	addr, ok := n.members[succ]
	n.mu.Unlock()
	if !ok {
		return statesync.Ack{}, fmt.Errorf("cluster %s: sync successor %s not in membership: %w",
			n.cfg.ID, succ, amrpc.ErrTransport)
	}
	// Idempotent by construction: the receiver drops duplicate sequence
	// numbers, so a retried offer cannot double-apply. The offer appends
	// its own wire form to the call's frame (it is an amrpc.Appender),
	// once, however often the call is retried.
	res, err := n.controlCall(ctx, succ, addr, "sync-offer", o)
	if err != nil {
		return statesync.Ack{}, err
	}
	ack, err := ackFromReply(res)
	if err != nil {
		return statesync.Ack{}, fmt.Errorf("cluster %s: sync ack from %s: %w", n.cfg.ID, succ, err)
	}
	return ack, nil
}

// ackFromReply reads an Ack out of a sync-offer reply in its generic wire
// form: the acknowledged sequence number, bare.
func ackFromReply(res any) (statesync.Ack, error) {
	acked, ok := res.(float64)
	if !ok {
		return statesync.Ack{}, fmt.Errorf("reply %v is not an acknowledged sequence number", res)
	}
	return statesync.Ack{Acked: uint64(acked)}, nil
}

// inflightFor returns domain's in-flight admission counter, used by the
// graceful-release drain. LoadOrStore evaluates its argument, so it runs
// only on a miss: a counter is allocated once per domain, not per call.
func (n *Node) inflightFor(domain string) *atomic.Int64 {
	c, ok := n.inflight.Load(domain)
	if !ok {
		c, _ = n.inflight.LoadOrStore(domain, new(atomic.Int64))
	}
	return c.(*atomic.Int64)
}

// drainInflight waits (bounded) for domain's in-flight local admissions to
// complete, so a graceful handoff's final flush covers them. Parked
// callers can hold the counter past the bound; they are cut loose by the
// later connection teardown and re-admit through the new owner.
func (n *Node) drainInflight(domain string, timeout time.Duration) bool {
	c := n.inflightFor(domain)
	deadline := time.Now().Add(timeout)
	for c.Load() != 0 {
		if !time.Now().Before(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// syncSuccessors points every owned domain's replication stream at its
// current ring successor (the node that would inherit it).
func (n *Node) syncSuccessors(ring *naming.Ring) {
	if n.sync == nil {
		return
	}
	rest := ring.Without(n.cfg.ID)
	for _, domain := range n.domainSet {
		if _, ok := n.owns(domain); !ok {
			continue
		}
		succ, ok := rest.Owner(domain)
		if !ok {
			succ = ""
		}
		n.sync.SetSuccessor(domain, succ)
	}
}

// handoffRelease is the graceful-release path: drain in-flight work, flush
// log + snapshot to the domain's next owner, release the lease with a
// snapshot barrier at the last sequence captured. A handoff that fails, or
// has no successor to go to, still plants the barrier: the next owner's
// resume then counts what its replica lacks as a catch-up gap. Only with
// state sync off is the release a plain one.
func (n *Node) handoffRelease(domain string, term uint64, succ string) {
	if n.sync == nil {
		_, _ = n.nc.ReleaseLease(domain, n.cfg.ID, term)
		return
	}
	n.drainInflight(domain, 500*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	seq, err := n.sync.Handoff(ctx, domain, succ)
	cancel()
	if err != nil {
		n.logf("cluster %s: handoff %s to %s failed, releasing with a barrier at seq %d: %v", n.cfg.ID, domain, succ, seq, err)
	} else {
		n.logf("cluster %s: handed %s through seq %d to %s", n.cfg.ID, domain, seq, succ)
	}
	n.sync.Release(domain)
	if err := n.nc.ReleaseLeaseWithBarrier(domain, n.cfg.ID, term, seq); err != nil {
		n.logf("cluster %s: release %s at term %d: %v", n.cfg.ID, domain, term, err)
	}
}

// applyEffect is the resume's replay hook: it re-applies one replicated
// effect through the local guarded component — full admission, so guards
// and grouped invariants hold, and the completion is re-captured into the
// new term's log. Its arguments are decoded here, in the generic form the
// wire delivers (float64, map[string]any). An effect whose arguments do
// not decode, or whose replay its guards park longer than the bound, is
// counted as a gap by the resume.
func (n *Node) applyEffect(e statesync.Entry) error {
	var args []any
	if len(e.Args) > 0 {
		if err := json.Unmarshal(e.Args, &args); err != nil {
			return err
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	_, err := n.cfg.Local.Call(aspect.NewInvocation(ctx, n.component, e.Method, args))
	return err
}

// Fail simulates a hard crash for tests and examples: the heartbeat and
// replication stream freeze and the server drops every connection, but no
// graceful release happens — survivors must take over through lease expiry
// and resume state from the replicated log.
func (n *Node) Fail() {
	n.hbPaused.Store(true)
	if n.sync != nil {
		n.sync.Pause(true)
	}
	n.server.Close()
}

// SyncStatus returns the node's per-domain replication view (nil when
// state sync is disabled).
func (n *Node) SyncStatus() []view.SyncStatus {
	if n.sync == nil {
		return nil
	}
	return n.sync.Status()
}
