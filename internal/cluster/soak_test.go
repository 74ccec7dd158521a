package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/chaosnet"
)

// crashNode simulates a hard node death: the heartbeat and replication
// stream wedge (so leases are NOT gracefully released, no final state
// flush happens, and failover must go through natural expiry + log
// catch-up) and the server drops every connection mid-flight. The node's
// backend keeps its effects — they are part of the final audit.
func crashNode(n *Node) { n.Fail() }

// syncLag reads a node's replication lag for one domain: captured effects
// not yet acknowledged by the successor. Everything at or below the acked
// mark survives the node's death in the successor's replica.
func syncLag(n *Node, domain string) uint64 {
	for _, st := range n.SyncStatus() {
		if st.Domain == domain && st.Leading {
			return st.Lag
		}
	}
	return 0
}

// waitSyncDrained polls until a node's replication lag for domain is zero
// — every captured effect acknowledged by the successor — so a subsequent
// hard kill loses nothing and the takeover audit can demand exactness.
func waitSyncDrained(t *testing.T, n *Node, domain string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if syncLag(n, domain) == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replication lag on %s/%s never drained", n.ID(), domain)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// liveOwnerOf polls until one of the given (live) nodes owns domain and
// returns it — the holder of the domain's authoritative state copy.
func liveOwnerOf(t *testing.T, nodes []*Node, domain string, timeout time.Duration) *Node {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		for _, n := range nodes {
			if _, ok := n.owns(domain); ok {
				return n
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("no live node ever owned %s", domain)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// gatedNet is the fault surface of the soak: every data-plane dial (driver
// → node and node → node) goes through a chaosnet injector, and any
// address can additionally be partitioned — new dials refused and existing
// connections severed — then healed.
type gatedNet struct {
	inj     *chaosnet.Injector
	mu      sync.Mutex
	blocked map[string]bool
	conns   map[string][]net.Conn
}

func newGatedNet(inj *chaosnet.Injector) *gatedNet {
	return &gatedNet{inj: inj, blocked: map[string]bool{}, conns: map[string][]net.Conn{}}
}

func (g *gatedNet) dial(addr string) (net.Conn, error) {
	g.mu.Lock()
	if g.blocked[addr] {
		g.mu.Unlock()
		return nil, fmt.Errorf("gatednet: %s partitioned", addr)
	}
	g.mu.Unlock()
	c, err := g.inj.DialFunc(addr)()
	if err != nil {
		return nil, err
	}
	g.mu.Lock()
	g.conns[addr] = append(g.conns[addr], c)
	g.mu.Unlock()
	return c, nil
}

func (g *gatedNet) partition(addr string) {
	g.mu.Lock()
	g.blocked[addr] = true
	severed := g.conns[addr]
	g.conns[addr] = nil
	g.mu.Unlock()
	for _, c := range severed {
		_ = c.Close()
	}
}

func (g *gatedNet) heal(addr string) {
	g.mu.Lock()
	g.blocked[addr] = false
	g.mu.Unlock()
}

// TestClusterFailover certifies lease failover on the ledger app: when the
// owner of a domain dies without releasing its lease, the ring reassigns
// after expiry, the new owner acquires at a strictly higher term, and a
// call issued during the failover window simply waits it out — no lost,
// no forged, no duplicated effect.
func TestClusterFailover(t *testing.T) {
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"f1", "f2", "f3"} {
		b, n := startLedgerNode(t, id, namingAddr, nil)
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	victim := owners["alpha"]
	oldTerm, _ := victim.owns("alpha")
	var gateway *Node
	for _, n := range nodes {
		if n != victim {
			gateway = n
			break
		}
	}

	ctx := context.Background()
	if _, err := gateway.Invoke(ctx, "alpha-put", "a-pre"); err != nil {
		t.Fatalf("pre-crash put: %v", err)
	}
	// Let replication drain so the hard kill is deterministic: a-pre is in
	// the successor's replica and the takeover audit can demand exactness.
	waitSyncDrained(t, victim, "alpha", 3*time.Second)
	crashNode(victim)

	// This call lands inside the failover window: the lease is still live
	// on the dead node, so routing must chase transport errors and stale
	// directory entries until a survivor takes over.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := gateway.Invoke(cctx, "alpha-put", "a-post"); err != nil {
		t.Fatalf("put during failover: %v", err)
	}

	// The new owner is a survivor holding a strictly higher term, and it
	// knows the domain was inherited.
	var newOwner *Node
	var newTerm uint64
	for _, n := range nodes {
		if n == victim {
			continue
		}
		if term, ok := n.owns("alpha"); ok {
			newOwner, newTerm = n, term
		}
	}
	if newOwner == nil {
		t.Fatal("no survivor owns alpha after the crash")
	}
	if newTerm <= oldTerm {
		t.Fatalf("failover term %d not above dead owner's term %d", newTerm, oldTerm)
	}
	if newOwner.Status().Takeovers == 0 {
		t.Fatal("takeover not counted on the new owner")
	}

	// Audit: the authoritative copy — the new owner's backend — must hold
	// the domain's WHOLE history exactly once: the pre-crash effect resumed
	// from the replicated log, and the effect admitted during failover. The
	// dead node's backend legitimately keeps its stale copy of a-pre; any
	// third node must hold neither, and nothing may be forged anywhere.
	for id, b := range backends {
		_, unknown := b.snapshot()
		if len(unknown) != 0 {
			t.Fatalf("forged effects on %s: %v", id, unknown)
		}
	}
	auth, _ := backends[newOwner.ID()].snapshot()
	for _, id := range []string{"a-pre", "a-post"} {
		if auth[id] != 1 {
			t.Fatalf("effect %s count %d on new owner %s, want 1 (state not resumed)", id, auth[id], newOwner.ID())
		}
	}
	for _, n := range nodes {
		if n == victim || n == newOwner {
			continue
		}
		ids, _ := backends[n.ID()].snapshot()
		for _, id := range []string{"a-pre", "a-post"} {
			if ids[id] != 0 {
				t.Fatalf("effect %s leaked onto bystander %s", id, n.ID())
			}
		}
	}
	// And the takeover really went through catch-up, not a lucky re-execution.
	resumed := false
	for _, st := range newOwner.SyncStatus() {
		if st.Domain == "alpha" && (st.CatchupApplied > 0 || st.Restored) {
			resumed = true
		}
	}
	if !resumed {
		t.Fatal("new owner reports no catch-up for alpha")
	}
}

// TestClusterFailoverReadmitsParkedCallers pins the park/wake half of
// failover: a caller parked on the dead owner's wait queue is re-admitted
// through the new owner once its guard precondition holds there.
func TestClusterFailoverReadmitsParkedCallers(t *testing.T) {
	namingAddr := startNaming(t)
	_, waitDomain := splitDomains(t, "pa", "pb")
	store := &tokenStore{}
	mkNode := func(id string) *Node {
		cfg := Config{
			ID:         id,
			Local:      newWakeApp(t, store),
			Domains:    map[string]string{"signal": "sig", "wait": waitDomain},
			Naming:     namingAddr,
			Idempotent: true,
			LeaseTTL:   900 * time.Millisecond,
			Heartbeat:  150 * time.Millisecond,
		}
		n, err := Start(cfg, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	na, nb := mkNode("pa"), mkNode("pb")

	// Converge with pb owning the wait domain.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := nb.owns(waitDomain); ok {
			if len(na.Status().Members) == 2 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("pb never owned the wait domain")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Park a caller on pb, entering through pa. Then kill pb: the
	// forwarded call dies with its connection, and pa's routing retries
	// it through the failover until pa itself owns the domain — where it
	// parks again, now on the NEW owner's wait queue.
	waitDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		_, err := na.Invoke(ctx, "wait")
		waitDone <- err
	}()
	time.Sleep(300 * time.Millisecond)
	crashNode(nb)

	// Make the guard precondition true. Whether the retried call is
	// mid-flight or already parked on pa, the owner's admission (entry
	// evaluation or wake sweep) must let it through.
	time.Sleep(200 * time.Millisecond)
	store.add()
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("parked caller not re-admitted after failover: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("caller parked on the dead owner was never re-admitted")
	}
	if _, ok := na.owns(waitDomain); !ok {
		t.Fatal("survivor never took over the wait domain")
	}
	if na.Status().Takeovers == 0 {
		t.Fatal("takeover not counted")
	}
}

// TestClusterChaosSoak is the certification soak of EXPERIMENTS E17:
// ≥1000 guarded invocations across a 3-node cluster whose data plane
// (driver→node and node→node alike) runs through a chaosnet injector,
// while mid-run one node is partitioned and healed and another — the
// owner of a domain — is killed outright. Afterward the effect ledgers
// must show zero lost and zero forged effects, every moderator's
// admission ledger must balance, and no goroutines may leak. The naming
// control plane is deliberately clean: its availability is a separate
// concern from data-plane chaos.
func TestClusterChaosSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	inj := chaosnet.New(chaosnet.Config{
		Seed:             20260808,
		LatencyProb:      0.05,
		LatencyMin:       100 * time.Microsecond,
		LatencyMax:       time.Millisecond,
		CorruptProb:      0.01,
		DropProb:         0.005,
		PartialWriteProb: 0.005,
		ResetProb:        0.002,
		OpsBeforeFaults:  5,
		Record:           true,
	})
	g := newGatedNet(inj)

	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"s1", "s2", "s3"} {
		b, n := startLedgerNode(t, id, namingAddr, func(cfg *Config) {
			cfg.DialConn = g.dial
		})
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)

	victim := owners["alpha"] // killed mid-run
	partitioned := owners["beta"]
	if partitioned == victim {
		for _, n := range nodes {
			if n != victim {
				partitioned = n
				break
			}
		}
	}

	// The drivers reach the cluster like any external client: each worker
	// dials one node of the (mutable) member list, calls it through a
	// retried idempotent stub, with chaos on every dial, and moves on to
	// the next member when a call fails. served counts each node's
	// successful calls by its address.
	var resMu sync.Mutex
	resAddrs := []string{}
	for _, n := range nodes {
		resAddrs = append(resAddrs, n.Addr())
	}
	served := map[string]int{}
	dialMember := func(k int) (string, *amrpc.Client, error) {
		resMu.Lock()
		addr := resAddrs[k%len(resAddrs)]
		resMu.Unlock()
		c, err := amrpc.Dial(addr,
			amrpc.WithDialFunc(func() (net.Conn, error) { return g.dial(addr) }),
			amrpc.WithRetry(amrpc.RetryPolicy{
				MaxAttempts:    2,
				BaseBackoff:    time.Millisecond,
				MaxBackoff:     8 * time.Millisecond,
				AttemptTimeout: 2 * time.Second,
			}))
		return addr, c, err
	}

	// Fault timeline, concurrent with the workload: partition one node's
	// data plane and heal it mid-run, then kill the alpha owner for good.
	// The victim's ledger and replication lag are frozen at the kill: they
	// are the reference for the takeover-resumes-state audit below.
	var preKill map[string]int
	var lagAtKill uint64
	timelineDone := make(chan struct{})
	go func() {
		defer close(timelineDone)
		time.Sleep(500 * time.Millisecond)
		g.partition(partitioned.Addr())
		time.Sleep(700 * time.Millisecond)
		g.heal(partitioned.Addr())
		time.Sleep(300 * time.Millisecond)
		crashNode(victim)
		// Let cancelled in-flight handlers finish their bodies, then freeze
		// the dead node's state: nothing lands on it after the server died.
		time.Sleep(100 * time.Millisecond)
		preKill, _ = backends[victim.ID()].snapshot()
		lagAtKill = syncLag(victim, "alpha")
		resMu.Lock()
		resAddrs = resAddrs[:0]
		for _, n := range nodes {
			if n != victim {
				resAddrs = append(resAddrs, n.Addr())
			}
		}
		resMu.Unlock()
	}()

	const (
		workers   = 10
		perWorker = 110 // 1100 guarded invocations
	)
	overall := time.Now().Add(90 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			member := w // the workers start spread over the nodes
			var addr string
			var c *amrpc.Client
			defer func() {
				if c != nil {
					_ = c.Close()
				}
			}()
			for k := 0; k < perWorker; k++ {
				method, id := "alpha-put", fmt.Sprintf("a-%d-%d", w, k)
				if k%2 == 1 {
					method, id = "beta-put", fmt.Sprintf("b-%d-%d", w, k)
				}
				for {
					if time.Now().After(overall) {
						t.Errorf("worker %d: gave up on %s at the overall deadline", w, id)
						return
					}
					var err error
					if c == nil {
						addr, c, err = dialMember(member)
					}
					if err == nil {
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						_, err = c.Component("cledger", amrpc.WithIdempotent()).Invoke(ctx, method, id)
						cancel()
					}
					if err == nil {
						resMu.Lock()
						served[addr]++
						resMu.Unlock()
						break
					}
					// Every failure class here is transient by design:
					// chaos faults, partition refusals and failover
					// windows all clear up. Meanwhile, try the next node.
					if c != nil {
						_ = c.Close()
						c = nil
					}
					member++
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	<-timelineDone
	if t.Failed() {
		t.FailNow()
	}

	// State-continuity audit: the survivor that took alpha over must hold
	// the victim's whole pre-kill alpha ledger, short of at most the
	// replication lag frozen at the kill (effects captured but never
	// acknowledged die with the leader — that is the bounded-lag contract).
	survivors := make([]*Node, 0, len(nodes)-1)
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}
	for _, n := range survivors {
		if served[n.Addr()] == 0 {
			t.Fatalf("live node %s served no call: the workers did not spread over the nodes", n.ID())
		}
	}
	alphaOwner := liveOwnerOf(t, survivors, "alpha", 5*time.Second)
	authIDs, _ := backends[alphaOwner.ID()].snapshot()
	var missing []string
	preKillAlpha := 0
	for id, cnt := range preKill {
		if cnt == 0 || len(id) == 0 || id[0] != 'a' {
			continue
		}
		preKillAlpha++
		if authIDs[id] == 0 {
			missing = append(missing, id)
		}
	}
	if uint64(len(missing)) > lagAtKill {
		t.Fatalf("takeover state: %d of %d pre-kill alpha effects missing on new owner %s, but lag at kill was only %d: e.g. %v",
			len(missing), preKillAlpha, alphaOwner.ID(), lagAtKill, missing[:min(5, len(missing))])
	}
	t.Logf("takeover state: %s resumed %d/%d pre-kill alpha effects (lag at kill %d)",
		alphaOwner.ID(), preKillAlpha-len(missing), preKillAlpha, lagAtKill)

	// Teardown before the ledger audit: Close waits for handler drain, so
	// backends and moderator ledgers are final. The victim's Close is a
	// no-op handover (its old terms are dead, its zombie flush is fenced
	// off by the new leader's term) but still drains and frees it. The
	// workers closed their clients on the way out.
	for _, n := range nodes {
		n.Close()
	}

	union := map[string]int{}
	for id, b := range backends {
		ids, unknown := b.snapshot()
		if len(unknown) != 0 {
			t.Fatalf("forged effects on %s: %v", id, unknown)
		}
		for k, v := range ids {
			union[k] += v
		}
	}
	var lost []string
	redelivered := 0
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			id := fmt.Sprintf("a-%d-%d", w, k)
			if k%2 == 1 {
				id = fmt.Sprintf("b-%d-%d", w, k)
			}
			n, ok := union[id]
			if !ok {
				lost = append(lost, id)
				continue
			}
			if n > 1 {
				// A retry crossed a failover or partition boundary and the
				// first delivery had in fact executed: absorbed by the
				// idempotent effect, reported but not failed.
				redelivered++
			}
			delete(union, id)
		}
	}
	if len(lost) != 0 {
		t.Fatalf("%d effects lost under chaos+failover, e.g. %v", len(lost), lost[:min(5, len(lost))])
	}
	if len(union) != 0 {
		extra := make([]string, 0, 5)
		for id := range union {
			extra = append(extra, id)
			if len(extra) == 5 {
				break
			}
		}
		t.Fatalf("%d unexpected effects appeared, e.g. %v", len(union), extra)
	}
	for _, n := range nodes {
		st := n.cfg.Local.Moderator().Stats()
		if st.Admissions != st.Completions {
			t.Fatalf("node %s moderator ledger unbalanced after drain: admissions=%d completions=%d",
				n.ID(), st.Admissions, st.Completions)
		}
	}
	stTotal := Status{}
	for _, n := range nodes {
		st := n.Status()
		stTotal.Forwards += st.Forwards
		stTotal.ForwardRetries += st.ForwardRetries
		stTotal.StaleRefusals += st.StaleRefusals
		stTotal.Takeovers += st.Takeovers
	}
	servedBy := map[string]int{}
	for _, n := range nodes {
		servedBy[n.ID()] = served[n.Addr()]
	}
	t.Logf("soak: %d ops, %d redelivered (absorbed), served=%v forwards=%d retries=%d staleRefusals=%d takeovers=%d, faults=%v",
		workers*perWorker, redelivered, servedBy, stTotal.Forwards, stTotal.ForwardRetries,
		stTotal.StaleRefusals, stTotal.Takeovers, inj.Counts())

	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before, %d after teardown", goroutinesBefore, runtime.NumGoroutine())
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterDifferentialOracle runs one seeded operation sequence — with
// aborts, duplicate ids, and a mid-sequence graceful owner handover —
// against the 3-node cluster and against a plain single-node Reference of
// the same guarded component, then demands zero divergences: identical
// per-op outcomes and identical final effect ledgers. The cluster is an
// admission-plane refactor of the Reference, so any observable difference
// is a bug.
func TestClusterDifferentialOracle(t *testing.T) {
	refBackend, refProxy := newLedgerApp(t)

	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"d1", "d2", "d3"} {
		b, n := startLedgerNode(t, id, namingAddr, nil)
		backends[id] = b
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)

	// Enter through a node that owns nothing (with 3 nodes and 2 domains
	// one always exists), so every op crosses the forwarding path; close
	// the alpha owner mid-sequence.
	var gateway *Node
	for _, n := range nodes {
		if n != owners["alpha"] && n != owners["beta"] {
			gateway = n
		}
	}
	if gateway == nil {
		gateway = nodes[0]
		for _, n := range nodes {
			if n != owners["alpha"] {
				gateway = n
				break
			}
		}
	}
	victim := owners["alpha"]
	if victim == gateway {
		victim = owners["beta"]
	}

	rng := rand.New(rand.NewSource(20260808))
	retried := map[string]bool{}
	clusterInvoke := func(method, id string) (any, error) {
		deadline := time.Now().Add(15 * time.Second)
		for {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			res, err := gateway.Invoke(ctx, method, id)
			cancel()
			if err == nil || errors.Is(err, aspect.ErrAborted) || time.Now().After(deadline) {
				return res, err
			}
			// Transient routing failure (handover window): the op will be
			// retried, so its effect count may legitimately exceed the
			// Reference's.
			retried[id] = true
			time.Sleep(20 * time.Millisecond)
		}
	}

	const ops = 300
	var history []struct{ method, id string }
	divergences := 0
	for i := 0; i < ops; i++ {
		if i == ops/2 {
			victim.Close() // graceful handover mid-sequence
		}
		var method, id string
		if len(history) > 10 && rng.Float64() < 0.15 {
			prev := history[rng.Intn(len(history))]
			method, id = prev.method, prev.id
		} else {
			if rng.Intn(2) == 0 {
				method, id = "alpha-put", fmt.Sprintf("a-op-%d", i)
			} else {
				method, id = "beta-put", fmt.Sprintf("b-op-%d", i)
			}
			if rng.Float64() < 0.1 {
				id += "-bad"
			}
			history = append(history, struct{ method, id string }{method, id})
		}

		refRes, refErr := refProxy.Invoke(context.Background(), method, id)
		clRes, clErr := clusterInvoke(method, id)
		switch {
		case errors.Is(refErr, aspect.ErrAborted) != errors.Is(clErr, aspect.ErrAborted):
			divergences++
			t.Errorf("op %d %s(%s): abort divergence: ref=%v cluster=%v", i, method, id, refErr, clErr)
		case (refErr == nil) != (clErr == nil):
			divergences++
			t.Errorf("op %d %s(%s): error divergence: ref=%v cluster=%v", i, method, id, refErr, clErr)
		case refErr == nil && refRes != clRes:
			divergences++
			t.Errorf("op %d %s(%s): result divergence: ref=%v cluster=%v", i, method, id, refRes, clRes)
		}
	}

	// Final-state oracle with handover-with-state semantics: once state is
	// replicated and resumed, an effect legitimately exists on every owner
	// its domain passed through — the ledger must collapse to a single
	// AUTHORITATIVE copy, the current owner's backend, and THAT copy must
	// equal the Reference id-for-id (counts too, except ops the cluster had
	// to redeliver across the handover, where idempotency absorbs the extra
	// count). Stale copies on previous owners are excluded from counting
	// but, like every backend, may hold nothing forged and no id the
	// Reference never saw.
	refIDs, refUnknown := refBackend.snapshot()
	if len(refUnknown) != 0 {
		t.Fatalf("reference saw forged effects: %v", refUnknown)
	}
	var live []*Node
	for _, n := range nodes {
		if n != victim {
			live = append(live, n)
		}
	}
	auth := map[string]int{}
	for domain, prefix := range map[string]byte{"alpha": 'a', "beta": 'b'} {
		owner := liveOwnerOf(t, live, domain, 5*time.Second)
		ids, _ := backends[owner.ID()].snapshot()
		for k, v := range ids {
			if len(k) > 0 && k[0] == prefix {
				auth[k] += v
			}
		}
	}
	seen := map[string]bool{}
	for id, b := range backends {
		ids, unknown := b.snapshot()
		if len(unknown) != 0 {
			t.Fatalf("forged effects on %s: %v", id, unknown)
		}
		for k := range ids {
			seen[k] = true
		}
	}
	for id, want := range refIDs {
		got, ok := auth[id]
		if !ok {
			divergences++
			t.Errorf("ledger divergence: %s on reference, missing from authoritative copy", id)
			continue
		}
		if got != want && !(retried[id] && got > want) {
			divergences++
			t.Errorf("ledger divergence: %s count ref=%d authoritative=%d (retried=%v)", id, want, got, retried[id])
		}
		delete(seen, id)
	}
	for id := range seen {
		divergences++
		t.Errorf("ledger divergence: %s on cluster, never on reference", id)
	}
	if divergences != 0 {
		t.Fatalf("differential oracle: %d divergences", divergences)
	}
	t.Logf("differential oracle: %d ops (incl. aborts + duplicates + mid-run handover), 0 divergences", ops)
}
