package cluster

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/naming"
)

// controlName is the per-node control component: cluster-internal
// endpoints (replication offers, nudges, route announcements) kept off
// the public component name so application traffic and plane traffic
// cannot collide.
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
	case "sync-offer":
		return c.syncOffer(call, dst)
	case "beat":
		// A nudge: run a beat now. It only queues one, coalesced with any
		// already queued, so the reply never waits on a beat or a peer.
		select {
		case c.n.kick <- struct{}{}:
		default:
		}
		return amrpc.AppendValue(dst, true)
	case "route":
		return c.route(inv, call, dst)
	default:
		return dst, fmt.Errorf("cluster control %s: unknown method %q", c.n.cfg.ID, inv.Method())
	}
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
	if len(call.Args) != 1 {
		return dst, fmt.Errorf("cluster control %s: sync-offer: %w: want 1 argument, got %d",
			c.n.cfg.ID, amrpc.ErrBadRequest, len(call.Args))
	}
	ack, err := c.n.sync.HandleOffer(call.Args[0])
	if err != nil {
		if errors.Is(err, naming.ErrStaleTerm) {
			c.n.staleRefusals.Add(1)
		}
		return dst, err
	}
	return strconv.AppendUint(dst, ack.Acked, 10), nil
}

// route is the announcement endpoint: an acquirer names itself the
// holder of a domain at a term before it serves the domain. The route is
// cached unless the cache already holds a higher term. The term must be a
// positive integer: a JSON number the cache can hold exactly.
func (c *control) route(inv *aspect.Invocation, call amrpc.RawCall, dst []byte) ([]byte, error) {
	call.Bind(inv)
	domain, _ := inv.ArgString(0)
	holder, _ := inv.ArgString(1)
	addr, _ := inv.ArgString(2)
	term, _ := inv.Arg(3).(float64)
	if inv.NumArgs() != 4 || domain == "" || holder == "" || addr == "" ||
		term < 1 || term >= 1<<64 || term != math.Trunc(term) {
		return dst, fmt.Errorf("cluster control %s: route: %w: want domain, holder, address and a positive integer term, got %v",
			c.n.cfg.ID, amrpc.ErrBadRequest, inv.Args())
	}
	c.n.mu.Lock()
	c.n.learnRoute(domain, route{holder: holder, term: uint64(term), addr: addr, fetchedAt: time.Now()})
	c.n.mu.Unlock()
	return amrpc.AppendValue(dst, true)
}
