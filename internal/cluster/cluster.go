// Package cluster is the distributed admission plane: it partitions a
// guarded component's admission domains across a fleet of nodes so that
// one *logical* moderator spans many processes, keeping the paper's
// composition model intact while scaling past a single machine.
//
// Each node runs the full guarded component (moderator, aspect stacks,
// functional core) but is allowed to *execute* admissions only for the
// domains it owns. Ownership is decided by a consistent-hash ring over the
// live membership (naming.Ring) and made safe by term-numbered leases
// granted by the naming service (naming.Store): a node heartbeats its
// membership registration, acquires the leases the ring assigns to it, and
// renews them on every beat. Terms are fencing tokens — every forwarded
// admission carries the term its sender observed, and the receiver
// refuses it (naming.ErrStaleTerm) unless it holds that domain's lease at
// exactly that term. A node also drops ownership locally once a lease's
// remaining validity falls inside a safety margin, so an owner
// partitioned away from the naming service stops executing before anyone
// else can be granted the next term.
//
// The domain map is read from the local moderator at Start: each of its
// method groups is one admission domain, so state shared by guards, and
// every wake a completion sends, stay on the one node that owns it.
//
// Callers see location transparency: any node accepts any method of the
// component, executes locally when it owns the method's domain, and
// otherwise proxies the call over amrpc to the owner — retrying through
// fresh ownership lookups when the fence is refused or the owner dies.
// Failover is lease expiry: when a node dies, its membership entry and
// leases expire, the ring reassigns its domains to survivors at term+1,
// and callers parked on the dead owner are released by its connection
// teardown and re-admitted through the new owner on retry.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amrpc"
	"repro/internal/cluster/view"
	"repro/internal/naming"
	"repro/internal/proxy"
	"repro/internal/statesync"
)

// Config describes one cluster node.
type Config struct {
	// ID is the node's unique cluster identity (required). Its member
	// entry in the naming service is "cluster/member/<ID>"; its lease
	// holder id is the ID itself.
	ID string
	// Local is the node's own guarded component (required). Every node
	// serves it under its name, and the plane reads its domain map from
	// it at Start: each moderator group of the bound methods is one
	// admission domain, named by its sorted methods joined with "+".
	Local *proxy.Proxy
	// Domains optionally renames or coarsens the derived domains: a
	// listed method is admitted in the named domain, an unlisted one in
	// its group's derived domain. Start refuses a map that splits a
	// moderator group (a *SplitGroupError).
	Domains map[string]string
	// Naming is the address of the naming service (required).
	Naming string
	// Idempotent declares the component's methods safe to re-forward when
	// a forwarding attempt dies mid-flight (transport failure with the
	// outcome unknown). Off by default: non-idempotent traffic surfaces
	// the transport error to the caller instead of risking a double
	// execution.
	Idempotent bool

	// MemberTTL bounds how long a dead node stays in the membership
	// (default 1200ms). LeaseTTL bounds how long its domains stay owned
	// (default 1200ms); failover latency is roughly LeaseTTL, and a node
	// stops considering itself owner a quarter of a LeaseTTL before its
	// local lease expiry. Heartbeat is the renewal period (default
	// LeaseTTL/4).
	MemberTTL time.Duration
	LeaseTTL  time.Duration
	Heartbeat time.Duration

	// Snapshot and Restore are the replicated-state-handoff hooks.
	// Snapshot serializes one domain's functional state; Restore installs
	// a snapshot received from the previous owner. Both are optional:
	// without them the plane replicates the effect log only. Catch-up
	// replays the log through the local guarded component, with full
	// admission.
	Snapshot func(domain string) ([]byte, error)
	Restore  func(domain string, data []byte) error
	// DisableStateSync turns replicated state handoff off entirely: no
	// effect capture, no streaming, takeovers resume moderation only.
	DisableStateSync bool

	// DialConn overrides the data-plane dialer for node-to-node traffic —
	// the chaosnet hook. The control-plane connection to the naming
	// service always uses a clean dialer.
	DialConn func(addr string) (net.Conn, error)
	// ServerOptions / ClientOptions apply to the node's amrpc server and
	// its pooled forwarding clients.
	ServerOptions []amrpc.ServerOption
	ClientOptions []amrpc.ClientOption
	// Logf, when set, receives one line per ownership transition and
	// refused fence — the node's operational narrative.
	Logf func(format string, args ...any)
}

// memberPrefix namespaces the membership entries in the naming service.
const memberPrefix = "cluster/member/"

// routeAttempts bounds how many ownership-resolution rounds one call may
// burn before giving up. At the default lease the router's backoff
// pauses sum to at least 1.6s, more than a LeaseTTL, so the rounds span
// a failover window.
const routeAttempts = 25

func (cfg *Config) withDefaults() error {
	if cfg.ID == "" {
		return fmt.Errorf("cluster: config: empty node ID")
	}
	if cfg.Local == nil {
		return fmt.Errorf("cluster: config: nil local proxy")
	}
	if cfg.Naming == "" {
		return fmt.Errorf("cluster: config: empty naming address")
	}
	if cfg.MemberTTL <= 0 {
		cfg.MemberTTL = 1200 * time.Millisecond
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 1200 * time.Millisecond
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = cfg.LeaseTTL / 4
	}
	if cfg.DialConn == nil {
		cfg.DialConn = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	return nil
}

// SplitGroupError is Start's refusal of a Config.Domains map that puts
// methods of one moderator group in different domains: each domain's
// owner would guard part of state the group's guards share.
type SplitGroupError struct {
	Group   []string // the moderator group, sorted
	Domains [2]string
}

func (e *SplitGroupError) Error() string {
	return fmt.Sprintf("cluster: config: Domains splits moderator group [%s] across domains %q and %q",
		strings.Join(e.Group, " "), e.Domains[0], e.Domains[1])
}

// deriveDomains maps every bound method of the local component to its
// admission domain: its moderator group's, renamed or coarsened by
// cfg.Domains.
func deriveDomains(cfg *Config) (map[string]string, error) {
	groupOf := make(map[string][]string)
	for _, g := range cfg.Local.Moderator().Domains() {
		for _, m := range g {
			groupOf[m] = g
		}
	}
	out := make(map[string]string)
	for _, m := range cfg.Local.Methods() {
		g, ok := groupOf[m]
		if !ok {
			g = []string{m} // not yet seen by the moderator: its own group
		}
		derived := strings.Join(g, "+")
		domainFor := func(member string) string {
			if d, ok := cfg.Domains[member]; ok {
				return d
			}
			return derived
		}
		d := domainFor(g[0])
		for _, member := range g[1:] {
			if other := domainFor(member); other != d {
				return nil, &SplitGroupError{Group: g, Domains: [2]string{d, other}}
			}
		}
		out[m] = d
	}
	return out, nil
}

// ownedDomain is one domain this node currently owns.
type ownedDomain struct {
	term uint64
	// localExpiry is the conservative local view of the lease's validity:
	// clock-stamped *before* the acquire/renew RPC was sent, plus TTL.
	// Ownership is asserted only while now < localExpiry - margin.
	localExpiry time.Time
}

// route is the cached ownership of a remote domain.
type route struct {
	holder    string
	term      uint64
	addr      string
	fetchedAt time.Time
}

// Node is one member of the distributed admission plane.
type Node struct {
	cfg       Config
	component string            // the public component name: the local proxy's
	domains   map[string]string // bound method -> admission domain, derived at Start
	domainSet []string          // the distinct domains, sorted
	server    *amrpc.Server
	ln        net.Listener
	addr      string
	sync      *statesync.Manager // nil when DisableStateSync
	nc        *naming.Client     // dialed once in Start; re-dials itself after a break

	mu      sync.Mutex
	owned   map[string]*ownedDomain
	routes  map[string]route
	members map[string]string // member id -> addr, from the last beat
	peers   map[string]*peer  // data-plane connections by address
	closing bool              // Close in progress: the heartbeat must not re-acquire
	closed  bool

	inflight sync.Map // domain -> *atomic.Int64: local admissions in flight

	closeOnce sync.Once
	closeDone chan struct{}
	stop      chan struct{}
	hb        sync.WaitGroup // the heartbeat loop
	wg        sync.WaitGroup // the server and the nudges in flight

	hbPaused atomic.Bool // test hook: freeze the heartbeat to simulate a wedged node

	// kick is the nudge: a peer's "beat" call sends on it to run a beat
	// now. Its one slot coalesces a burst into at most one extra beat.
	kick chan struct{}
	// nudging holds, under mu, the members a nudge is in flight to; true
	// asks for one more once it returns. nudgeIdle is signalled, under
	// mu, whenever a member leaves it.
	nudging   map[string]bool
	nudgeIdle sync.Cond
	nudges    atomic.Uint64 // nudges sent (tests)
	beats     atomic.Uint64 // beats run (tests)

	localCalls     atomic.Uint64
	forwards       atomic.Uint64
	forwardRetries atomic.Uint64
	staleRefusals  atomic.Uint64
	takeovers      atomic.Uint64 // acquisitions at term > 1: domains inherited from a previous owner
}

// Start launches a node: it derives the domain map from the local
// component, listens on addr (host:port, may be ":0"), registers itself
// with the naming service, and begins the ownership heartbeat. With state
// sync on it composes the replication layer on the local moderator
// (statesync.go). The first beat runs synchronously so a freshly started
// node is routable immediately.
func Start(cfg Config, addr string) (*Node, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	domains, err := deriveDomains(&cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	nc, err := naming.DialClient(cfg.Naming)
	if err != nil {
		_ = ln.Close()
		return nil, fmt.Errorf("cluster: node %s: %w", cfg.ID, err)
	}
	fail := func(err error) (*Node, error) {
		_ = ln.Close()
		_ = nc.Close()
		return nil, err
	}
	n := &Node{
		cfg:       cfg,
		component: cfg.Local.Name(),
		domains:   domains,
		domainSet: distinctSorted(domains),
		server:    amrpc.NewServer(cfg.ServerOptions...),
		ln:        ln,
		addr:      ln.Addr().String(),
		nc:        nc,
		owned:     make(map[string]*ownedDomain, 4),
		routes:    make(map[string]route, 4),
		members:   make(map[string]string, 4),
		peers:     make(map[string]*peer, 4),
		closeDone: make(chan struct{}),
		stop:      make(chan struct{}),
		kick:      make(chan struct{}, 1),
		nudging:   make(map[string]bool, 4),
	}
	n.nudgeIdle.L = &n.mu
	if err := n.server.RegisterComponent(&front{n: n}); err != nil {
		return fail(err)
	}
	if err := n.server.RegisterComponent(&control{n: n}); err != nil {
		return fail(err)
	}
	if !cfg.DisableStateSync {
		if (cfg.Snapshot == nil) != (cfg.Restore == nil) {
			// One-sided configuration: a snapshot this node sends cannot be
			// installed by a peer configured the same way (or vice versa) —
			// takeovers then replay the suffix onto a blank baseline and
			// count the discarded prefix as a catch-up gap.
			n.logf("cluster %s: state sync configured with Snapshot=%v but Restore=%v; hooks should come in pairs",
				cfg.ID, cfg.Snapshot != nil, cfg.Restore != nil)
		}
		mgr, err := statesync.NewManager(statesync.Config{
			Node:      cfg.ID,
			Transport: &syncTransport{n: n},
			Snapshot:  cfg.Snapshot,
			Logf:      cfg.Logf,
		})
		if err != nil {
			return fail(err)
		}
		n.sync = mgr
		if err := n.composeReplication(); err != nil {
			mgr.Close()
			return fail(fmt.Errorf("cluster: node %s: replication layer: %w", cfg.ID, err))
		}
	}
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = n.server.Serve(ln)
	}()
	if err := n.beat(); err != nil {
		n.Close()
		return nil, fmt.Errorf("cluster: node %s: initial heartbeat: %w", cfg.ID, err)
	}
	// A join moves ownership: nudge every other member, so an owner the
	// ring now moves a domain away from releases it at once.
	n.mu.Lock()
	others := make(map[string]string, len(n.members))
	for id, addr := range n.members {
		if id != cfg.ID {
			others[id] = addr
		}
	}
	n.mu.Unlock()
	for id, addr := range others {
		n.nudge(id, addr)
	}
	n.hb.Add(1)
	go n.heartbeatLoop()
	return n, nil
}

// Addr returns the node's data-plane address.
func (n *Node) Addr() string { return n.addr }

// ID returns the node's cluster identity.
func (n *Node) ID() string { return n.cfg.ID }

// Close stops the heartbeat, hands each owned domain's replicated state
// to its successor, releases the leases (with snapshot barriers) and the
// membership entry, removes the replication layer, and tears down the
// server and every pooled connection. In-flight handlers (including
// parked callers) are cancelled by the server's connection teardown —
// their callers re-admit through the next owner, which resumes the
// handed-over state before serving.
func (n *Node) Close() {
	n.closeOnce.Do(n.doClose)
	<-n.closeDone
}

func (n *Node) doClose() {
	defer close(n.closeDone)

	// Stop the heartbeat first, and wait out a beat in flight: a beat
	// racing the handover could re-acquire a lease and consume the barrier
	// we are about to plant, or register this node again after the
	// unregister below, leaving a member that is gone listed for a
	// MemberTTL.
	n.mu.Lock()
	n.closing = true
	close(n.stop)
	n.mu.Unlock()
	n.hb.Wait()

	// Hand off along a fresh listing: a member that left since the last
	// beat must not be chosen as a successor. The last beat's view is the
	// fallback when the naming service cannot be reached.
	listed, err := n.listMembers()
	if err != nil {
		n.logf("cluster %s: close: listing members: %v; handing off along the last beat's view", n.cfg.ID, err)
	}
	n.mu.Lock()
	if err == nil {
		n.members = listed
	}
	owned := make(map[string]uint64, len(n.owned))
	for d, o := range n.owned {
		owned[d] = o.term
	}
	members := make(map[string]string, len(n.members))
	memberIDs := make([]string, 0, len(n.members))
	for id, addr := range n.members {
		if id != n.cfg.ID {
			members[id] = addr
			memberIDs = append(memberIDs, id)
		}
	}
	n.mu.Unlock()

	// Graceful handover: for each owned domain, stop admitting, drain,
	// flush the effect log (plus snapshot) to the domain's next owner, and
	// release with a barrier — so survivors converge with state instead of
	// waiting out TTLs. The pooled clients and the server stay up through
	// this phase; the flush rides them.
	succRing := naming.NewRing(0, memberIDs...)
	succs := make(map[string]bool, len(owned))
	for d, term := range owned {
		n.mu.Lock()
		delete(n.owned, d)
		n.mu.Unlock()
		succ, _ := succRing.Owner(d)
		n.handoffRelease(d, term, succ)
		if succ != "" {
			succs[succ] = true
		}
	}
	_, _ = n.nc.Unregister(n.memberKey())
	// Nudge each new owner only now: woken before the unregister, it
	// could read a membership that still lists this node and leave the
	// domain to it. The nudges ride the pooled clients, so they must be
	// sent before those close.
	for succ := range succs {
		n.nudge(succ, members[succ])
	}

	n.mu.Lock()
	for len(n.nudging) > 0 {
		n.nudgeIdle.Wait()
	}
	n.closed = true
	peers := n.peers
	n.peers = map[string]*peer{}
	n.mu.Unlock()
	// The field stays set: a call racing the close fails on the closed
	// client instead of finding no client.
	_ = n.nc.Close()

	if n.sync != nil {
		// A receipt admitted before the removal still runs its capture; a
		// Capture on the closed manager is harmless.
		_ = n.cfg.Local.Moderator().RemoveLayer(replicationLayer)
		n.sync.Close()
	}
	n.server.Close()
	for _, p := range peers {
		_ = p.client.Close()
	}
	n.wg.Wait()
}

func (n *Node) memberKey() string { return memberPrefix + n.cfg.ID }

func (n *Node) logf(format string, args ...any) {
	if n.cfg.Logf != nil {
		n.cfg.Logf(format, args...)
	}
}

// heartbeatLoop beats on every tick and on every nudge. A paused node
// ignores both, so a nudge cannot revive a node Fail has frozen.
func (n *Node) heartbeatLoop() {
	defer n.hb.Done()
	t := time.NewTicker(n.cfg.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-n.stop:
			return
		case <-t.C:
		case <-n.kick:
		}
		if n.hbPaused.Load() {
			continue
		}
		_ = n.beat()
	}
}

// nudge asks member id, at addr, to beat now, without waiting for it. At
// most one nudge per member is in flight; one asked for meanwhile is sent
// when it returns, so a nudge sent after a release is never absorbed by
// one sent before it.
func (n *Node) nudge(id, addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	if _, busy := n.nudging[id]; busy {
		n.nudging[id] = true
		return
	}
	n.nudging[id] = false
	n.wg.Add(1)
	go n.sendNudges(id, addr)
}

func (n *Node) sendNudges(id, addr string) {
	defer n.wg.Done()
	for again := true; again; {
		n.nudges.Add(1)
		ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Heartbeat)
		_, err := n.controlCall(ctx, id, addr, "beat")
		cancel()
		if err != nil {
			n.logf("cluster %s: nudge %s: %v", n.cfg.ID, id, err)
		}
		n.mu.Lock()
		if again = n.nudging[id]; again {
			n.nudging[id] = false
		} else {
			delete(n.nudging, id)
			n.nudgeIdle.Broadcast()
		}
		n.mu.Unlock()
	}
}

// announce tells every member in to that this node holds domain at term:
// in parallel, waiting at most a heartbeat. A member that misses it
// learns the route from its next beat's listing.
func (n *Node) announce(to map[string]string, domain string, term uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), n.cfg.Heartbeat)
	defer cancel()
	var wg sync.WaitGroup
	for id, addr := range to {
		if id == n.cfg.ID {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.controlCall(ctx, id, addr, "route", domain, n.cfg.ID, n.addr, term); err != nil {
				n.logf("cluster %s: announce %s at term %d to %s: %v", n.cfg.ID, domain, term, id, err)
			}
		}()
	}
	wg.Wait()
}

// listMembers reads the membership from the naming service: member id ->
// address.
func (n *Node) listMembers() (map[string]string, error) {
	members, err := n.nc.List()
	if err != nil {
		return nil, err
	}
	memberAddrs := make(map[string]string, len(members))
	for _, e := range members {
		if id, ok := strings.CutPrefix(e.Name, memberPrefix); ok && id != "" {
			memberAddrs[id] = e.Addr
		}
	}
	return memberAddrs, nil
}

// beat is one heartbeat round: renew membership, list the fleet, publish
// the listed membership, reconcile lease ownership against the ring it
// derives, point the replication streams at their successors, refresh the
// routing cache. The membership is published before anything acts on it,
// so a handoff to a member that just joined finds its address.
func (n *Node) beat() error {
	n.beats.Add(1)
	if err := n.nc.Register(n.memberKey(), n.addr, n.cfg.MemberTTL); err != nil {
		return err
	}
	memberAddrs, err := n.listMembers()
	if err != nil {
		return err
	}
	leases, err := n.nc.ListLeases()
	if err != nil {
		return err
	}
	listedAt := time.Now()

	ids := make([]string, 0, len(memberAddrs))
	for id := range memberAddrs {
		ids = append(ids, id)
	}
	ring := naming.NewRing(0, ids...)
	// A member this node has not listed before may have missed the
	// announcements of the domains it owns.
	joined := make(map[string]string)
	n.mu.Lock()
	for id, addr := range memberAddrs {
		if _, known := n.members[id]; !known {
			joined[id] = addr
		}
	}
	n.members = memberAddrs
	n.mu.Unlock()

	n.reconcileOwnership(ring, leases, memberAddrs)
	n.syncSuccessors(ring)
	if len(joined) > 0 {
		for _, domain := range n.domainSet {
			if term, ok := n.owns(domain); ok {
				n.announce(joined, domain, term)
			}
		}
	}
	n.refreshRoutes(leases, memberAddrs, listedAt)
	n.wakeSweep()
	return nil
}

// wakeSweep re-kicks every bound method whose domain this node owns. A
// completion wakes its own domain's waiters in the moderator, and every
// wake span lies inside one domain, so no wake ever has to cross nodes.
// Guard state can still change outside a local completion — a catch-up
// replay, a Restore, state external to the component — and Kick is
// idempotent, so re-evaluating owned wait queues every beat releases a
// caller parked through such a change at worst one heartbeat after its
// precondition becomes true.
func (n *Node) wakeSweep() {
	for method, domain := range n.domains {
		if _, ok := n.owns(domain); ok {
			n.cfg.Local.Moderator().Kick(method)
		}
	}
}

// distinctSorted returns the distinct values of m, sorted.
func distinctSorted(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for _, d := range m {
		out = append(out, d)
	}
	sort.Strings(out)
	return slices.Compact(out)
}

// reconcileOwnership aligns this node's leases with the ring's verdicts,
// given the beat's lease listing and member addresses. Each step it takes
// that another node must follow up wakes that node: a release nudges the
// new owner, an acquire the lease's holder blocks nudges the holder, and a
// domain the listing shows free nudges the member the ring gives it to.
func (n *Node) reconcileOwnership(ring *naming.Ring, leases []naming.DomainLease, memberAddrs map[string]string) {
	for _, domain := range n.domainSet {
		want, ok := ring.Owner(domain)
		n.mu.Lock()
		cur, held := n.owned[domain]
		var curTerm uint64
		if held {
			curTerm = cur.term
		}
		n.mu.Unlock()

		switch {
		case held && ok && want == n.cfg.ID:
			// Still ours by the ring: renew. Only a refused renewal
			// (ErrStaleTerm) means the lease actually moved on — drop and
			// retry next beat through Acquire. A transient naming failure
			// proves nothing: the lease is most likely still live at our
			// term, and dropping ownership would make the next beat
			// re-acquire the SAME term with a fresh effect log, wedging
			// replication (the successor's replica already tracks this
			// term's sequence). Keep ownership and retry; localExpiry was
			// not extended, so the safety margin still stops execution if
			// the naming service stays unreachable.
			stamp := time.Now()
			_, err := n.nc.RenewLease(domain, n.cfg.ID, curTerm, n.cfg.LeaseTTL)
			n.mu.Lock()
			if o, still := n.owned[domain]; still && o.term == curTerm {
				if err == nil {
					o.localExpiry = stamp.Add(n.cfg.LeaseTTL)
				} else if errors.Is(err, naming.ErrStaleTerm) {
					delete(n.owned, domain)
				}
			}
			n.mu.Unlock()
			if errors.Is(err, naming.ErrStaleTerm) {
				n.logf("cluster %s: lost lease on %s at term %d: %v", n.cfg.ID, domain, curTerm, err)
			} else if err != nil {
				n.logf("cluster %s: renew %s at term %d failed, retrying: %v", n.cfg.ID, domain, curTerm, err)
			}
		case held:
			// The ring moved the domain elsewhere (membership changed):
			// stop admitting, drain, flush replicated state to the new
			// owner, and release with a snapshot barrier so it need not
			// wait out TTL *and* resumes our state before serving.
			n.mu.Lock()
			delete(n.owned, domain)
			n.mu.Unlock()
			n.handoffRelease(domain, curTerm, want)
			n.logf("cluster %s: released %s (ring reassigned to %s)", n.cfg.ID, domain, want)
			if addr, ok := memberAddrs[want]; ok {
				n.nudge(want, addr)
			}
		case ok && want == n.cfg.ID:
			// Newly ours: acquire. ErrLeaseHeld means the previous owner
			// has not released yet: nudge it, and pick the lease up when
			// its release nudges us back, or on a later beat.
			n.mu.Lock()
			closing := n.closing
			n.mu.Unlock()
			if closing {
				continue
			}
			stamp := time.Now()
			lease, err := n.nc.AcquireLease(domain, n.cfg.ID, n.cfg.LeaseTTL)
			if errors.Is(err, naming.ErrLeaseHeld) {
				if i := slices.IndexFunc(leases, func(l naming.DomainLease) bool { return l.Domain == domain }); i >= 0 {
					if addr, ok := memberAddrs[leases[i].Holder]; ok {
						n.nudge(leases[i].Holder, addr)
					}
				}
			}
			if err != nil {
				continue
			}
			if n.sync != nil {
				if t, leading := n.sync.Leading(domain); leading && t == lease.Term {
					// Same-term re-acquire: the lease never expired (we
					// dropped it locally, e.g. across a transient renew
					// failure) and AcquireLease extended our own live
					// lease. The effect log, stream, and successor replica
					// are all still coherent at this term — a fresh Lead
					// would restart the sequence at 1 and every new entry
					// would be refused downstream as a duplicate, and a
					// catch-up would replay our own replicated effects onto
					// our own live state. Keep everything as is.
				} else {
					// Catch up BEFORE asserting ownership: fenced traffic is
					// refused (and retried by routers) until the domain's
					// replicated state is resumed here. Replay goes through the
					// local component, so each effect is re-captured into the
					// new term's log and re-replicated to our own successor.
					n.sync.Lead(domain, lease.Term)
					if succ, ok := ring.Without(n.cfg.ID).Owner(domain); ok {
						n.sync.SetSuccessor(domain, succ)
					}
					n.catchUp(domain, lease)
				}
			}
			// Route before serve: every member learns the new route before
			// this node admits under it, so no caller keeps forwarding under
			// the previous holder's term once the domain is served here.
			n.announce(memberAddrs, domain, lease.Term)
			n.mu.Lock()
			n.owned[domain] = &ownedDomain{term: lease.Term, localExpiry: stamp.Add(n.cfg.LeaseTTL)}
			n.mu.Unlock()
			if lease.Term > 1 {
				n.takeovers.Add(1)
			}
			if b := lease.Barrier; b != nil {
				n.logf("cluster %s: acquired %s at term %d, barrier from %s through seq %d", n.cfg.ID, domain, lease.Term, b.From, b.Seq)
			} else {
				n.logf("cluster %s: acquired %s at term %d", n.cfg.ID, domain, lease.Term)
			}
		case ok && !slices.ContainsFunc(leases, func(l naming.DomainLease) bool { return l.Domain == domain }):
			// Free, and the ring gives it to another member: wake that
			// member. A release nudges the owner by the releaser's
			// listing, which a join during the release makes stale; the
			// listed owner then finds the domain is not its own, and the
			// ring's owner would wait for its tick.
			if addr, ok := memberAddrs[want]; ok {
				n.nudge(want, addr)
			}
		}
	}
}

// refreshRoutes rebuilds the routing cache from the beat's lease listing,
// read at listedAt, and its membership. A cached route can be
// newer than the listing: announced by an acquirer, or looked up, while
// the beat ran. Terms only grow, so a cached route at a higher term than
// the listing's is kept, and so is one learned after the listing was
// read for a domain the listing shows free.
func (n *Node) refreshRoutes(leases []naming.DomainLease, memberAddrs map[string]string, listedAt time.Time) {
	now := time.Now()
	n.mu.Lock()
	defer n.mu.Unlock()
	routes := make(map[string]route, len(leases))
	for _, l := range leases {
		addr, ok := memberAddrs[l.Holder]
		if !ok {
			continue // holder no longer in the membership; let lookups refetch
		}
		routes[l.Domain] = route{holder: l.Holder, term: l.Term, addr: addr, fetchedAt: now}
	}
	for d, cur := range n.routes {
		if r, ok := routes[d]; ok && cur.term > r.term || !ok && cur.fetchedAt.After(listedAt) {
			routes[d] = cur
		}
	}
	n.routes = routes
}

// learnRoute caches r for domain unless the cache holds a higher term, and
// returns the route cached. Callers hold n.mu.
func (n *Node) learnRoute(domain string, r route) route {
	if cur, ok := n.routes[domain]; ok && cur.term > r.term {
		return cur
	}
	n.routes[domain] = r
	return r
}

// domainOf maps a method to its admission domain. A method the local
// component does not bind keeps its own name, which no node leases.
func (n *Node) domainOf(method string) string {
	if d, ok := n.domains[method]; ok {
		return d
	}
	return method
}

// owns reports whether this node currently owns domain, and at which term.
// Ownership is asserted conservatively: the lease must have at least a
// quarter of LeaseTTL of locally tracked validity left, so a node cut off
// from the naming service stops executing before the next term can be
// granted.
func (n *Node) owns(domain string) (uint64, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	o, ok := n.owned[domain]
	if !ok {
		return 0, false
	}
	if !time.Now().Before(o.localExpiry.Add(-n.cfg.LeaseTTL / 4)) {
		return 0, false
	}
	return o.term, true
}

// Status is the node's introspection snapshot. The type lives in the
// leaf package view so obs can serve it without importing the plane.
type Status = view.Status

// DomainStatus is one domain's ownership as this node sees it.
type DomainStatus = view.DomainStatus

// SyncStatus is one domain's state-replication view on this node.
type SyncStatus = view.SyncStatus

// Status returns the node's current view of the cluster.
func (n *Node) Status() Status {
	n.mu.Lock()
	members := make([]string, 0, len(n.members))
	for id := range n.members {
		members = append(members, id)
	}
	routes := make(map[string]route, len(n.routes))
	for d, r := range n.routes {
		routes[d] = r
	}
	owned := make(map[string]uint64, len(n.owned))
	for d, o := range n.owned {
		owned[d] = o.term
	}
	n.mu.Unlock()
	sort.Strings(members)

	st := Status{
		Node:      n.cfg.ID,
		Addr:      n.addr,
		Component: n.component,
		Members:   members,

		LocalCalls:     n.localCalls.Load(),
		Forwards:       n.forwards.Load(),
		ForwardRetries: n.forwardRetries.Load(),
		StaleRefusals:  n.staleRefusals.Load(),
		Takeovers:      n.takeovers.Load(),
	}
	if n.sync != nil {
		st.Replication = n.sync.Status()
	}
	for _, domain := range n.domainSet {
		ds := DomainStatus{Domain: domain}
		if term, ok := owned[domain]; ok {
			ds.Owner, ds.Term, ds.Local, ds.Addr = n.cfg.ID, term, true, n.addr
		} else if r, ok := routes[domain]; ok {
			ds.Owner, ds.Term, ds.Addr = r.holder, r.term, r.addr
		}
		st.Domains = append(st.Domains, ds)
	}
	return st
}

// OwnedDomains returns the domains this node currently asserts ownership
// of (tests and metrics).
func (n *Node) OwnedDomains() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]string, 0, len(n.owned))
	for d := range n.owned {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}
