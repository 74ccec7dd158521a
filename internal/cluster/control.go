package cluster

import (
	"errors"
	"fmt"
	"strconv"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/naming"
)

// controlName is the per-node control component: cluster-internal
// endpoints (wake notification, status introspection) kept off the public
// component name so application traffic and plane traffic cannot collide.
func controlName(nodeID string) string { return "_cluster/" + nodeID }

// control hosts this node's cluster-internal endpoints. The server hands it
// every call in wire form (it is an amrpc.RawComponent): each endpoint
// reads the arguments it needs from their bytes and appends its reply.
type control struct{ n *Node }

// Name implements amrpc.Component.
func (c *control) Name() string { return controlName(c.n.cfg.ID) }

// Call implements amrpc.Component. The endpoints have no in-process
// callers; the server reaches them through CallRaw only.
func (c *control) Call(inv *aspect.Invocation) (any, error) {
	return nil, fmt.Errorf("cluster control %s: %s is served in wire form only", c.n.cfg.ID, inv.Method())
}

// CallRaw implements amrpc.RawComponent.
func (c *control) CallRaw(inv *aspect.Invocation, call amrpc.RawCall, dst []byte) ([]byte, error) {
	switch inv.Method() {
	case "wake":
		return c.wake(call, dst)
	case "sync-offer":
		return c.syncOffer(call, dst)
	case "status":
		return amrpc.AppendValue(dst, c.n.Status())
	default:
		return dst, fmt.Errorf("cluster control %s: unknown method %q", c.n.cfg.ID, inv.Method())
	}
}

// oneArg returns the single argument an endpoint takes.
func (c *control) oneArg(method string, call amrpc.RawCall) ([]byte, error) {
	if len(call.Args) != 1 {
		return nil, fmt.Errorf("cluster control %s: %s: %w: want 1 argument, got %d",
			c.n.cfg.ID, method, amrpc.ErrBadRequest, len(call.Args))
	}
	return call.Args[0], nil
}

// syncOffer is the replication stream endpoint: a domain leader ships its
// effect log (and snapshots) here, to the node standing ring successor.
// The offer's own term field fences it — the manager refuses terms behind
// the replica's (or behind a leadership this node itself holds), so a
// zombie leader cannot overwrite fresher replicated state. The reply is
// the acknowledged sequence number, bare.
func (c *control) syncOffer(call amrpc.RawCall, dst []byte) ([]byte, error) {
	if c.n.sync == nil {
		return dst, fmt.Errorf("cluster %s: state sync disabled", c.n.cfg.ID)
	}
	raw, err := c.oneArg("sync-offer", call)
	if err != nil {
		return dst, err
	}
	ack, err := c.n.sync.HandleOffer(raw)
	if err != nil {
		if errors.Is(err, naming.ErrStaleTerm) {
			c.n.staleRefusals.Add(1)
		}
		return dst, err
	}
	return strconv.AppendUint(dst, ack.Acked, 10), nil
}

// wake is the cross-node wake notification endpoint. It re-kicks the
// target method's wait queue on the local moderator. The operation is
// idempotent — Kick only re-triggers guard evaluation, so duplicated
// deliveries (retries, at-least-once senders) are harmless. When the
// notification carries a fence, it must match this node's live lease on
// the target's domain: a wake fenced at a term this node no longer (or
// never) holds is refused so the sender re-resolves ownership and the
// wake lands on the node that actually parks the waiters.
func (c *control) wake(call amrpc.RawCall, dst []byte) ([]byte, error) {
	raw, err := c.oneArg("wake", call)
	if err != nil {
		return dst, err
	}
	var s amrpc.Scanner
	s.Reset(raw)
	name := s.String()
	if err := s.Done(); err != nil {
		return dst, fmt.Errorf("cluster control %s: wake: %w: target is not a string: %w",
			c.n.cfg.ID, amrpc.ErrBadRequest, err)
	}
	target := string(name)
	domain := c.n.domainOf(target)
	if call.Fence != 0 {
		term, ok := c.n.owns(domain)
		if !ok || term != call.Fence {
			c.n.staleRefusals.Add(1)
			return dst, fmt.Errorf("cluster %s: wake %s (domain %s) at term %d: %w",
				c.n.cfg.ID, target, domain, call.Fence, naming.ErrStaleTerm)
		}
	}
	c.n.wakesReceived.Add(1)
	c.n.cfg.Local.Moderator().Kick(target)
	return append(dst, "true"...), nil
}
