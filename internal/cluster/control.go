package cluster

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/naming"
)

// controlName is the per-node control component: cluster-internal
// endpoints (wake notification, status introspection) kept off the public
// component name so application traffic and plane traffic cannot collide.
func controlName(nodeID string) string { return "_cluster/" + nodeID }

// control hosts this node's cluster-internal endpoints.
type control struct{ n *Node }

// Name implements amrpc.Component.
func (c *control) Name() string { return controlName(c.n.cfg.ID) }

// Call implements amrpc.Component.
func (c *control) Call(inv *aspect.Invocation) (any, error) {
	switch inv.Method() {
	case "wake":
		return c.wake(inv)
	case "sync-offer":
		return c.syncOffer(inv)
	case "status":
		return c.n.Status(), nil
	default:
		return nil, fmt.Errorf("cluster control %s: unknown method %q", c.n.cfg.ID, inv.Method())
	}
}

// RawArgs implements amrpc.RawComponent: a sync offer reaches syncOffer as
// the bytes the frame carried it in, not as a generic decoded value.
func (c *control) RawArgs(method string) bool { return method == "sync-offer" }

// syncOffer is the replication stream endpoint: a domain leader ships its
// effect log (and snapshots) here, to the node standing ring successor.
// The offer's own term field fences it — the manager refuses terms behind
// the replica's (or behind a leadership this node itself holds), so a
// zombie leader cannot overwrite fresher replicated state. The reply is
// the acknowledged sequence number.
func (c *control) syncOffer(inv *aspect.Invocation) (any, error) {
	if c.n.sync == nil {
		return nil, fmt.Errorf("cluster %s: state sync disabled", c.n.cfg.ID)
	}
	raw, ok := inv.Arg(0).(json.RawMessage)
	if !ok {
		return nil, fmt.Errorf("cluster control %s: sync-offer: want the offer, got %T", c.n.cfg.ID, inv.Arg(0))
	}
	ack, err := c.n.sync.HandleOffer(raw)
	if err != nil {
		if errors.Is(err, naming.ErrStaleTerm) {
			c.n.staleRefusals.Add(1)
		}
		return nil, err
	}
	return ack.Acked, nil
}

// wake is the cross-node wake notification endpoint. It re-kicks the
// target method's wait queue on the local moderator. The operation is
// idempotent — Kick only re-triggers guard evaluation, so duplicated
// deliveries (retries, at-least-once senders) are harmless. When the
// notification carries a fence, it must match this node's live lease on
// the target's domain: a wake fenced at a term this node no longer (or
// never) holds is refused so the sender re-resolves ownership and the
// wake lands on the node that actually parks the waiters.
func (c *control) wake(inv *aspect.Invocation) (any, error) {
	target, err := inv.ArgString(0)
	if err != nil {
		return nil, fmt.Errorf("cluster control %s: wake: %w", c.n.cfg.ID, err)
	}
	domain := c.n.domainOf(target)
	if fence, fenced := amrpc.FenceOf(inv); fenced {
		term, ok := c.n.owns(domain)
		if !ok || term != fence {
			c.n.staleRefusals.Add(1)
			return nil, fmt.Errorf("cluster %s: wake %s (domain %s) at term %d: %w",
				c.n.cfg.ID, target, domain, fence, naming.ErrStaleTerm)
		}
	}
	c.n.wakesReceived.Add(1)
	c.n.cfg.Local.Moderator().Kick(target)
	return true, nil
}
