package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/naming"
	"repro/internal/proxy"
)

// startNaming runs an in-process naming server on an ephemeral port.
func startNaming(t testing.TB) string {
	t.Helper()
	_, addr := serveNaming(t, nil, "127.0.0.1:0")
	return addr
}

// serveNaming serves store (a fresh one if nil) on addr until the test
// ends, and returns the server and the address it listens on.
func serveNaming(t testing.TB, store *naming.Store, addr string) (*naming.Server, string) {
	t.Helper()
	srv := naming.NewServer(store)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(srv.Close)
	return srv, ln.Addr().String()
}

// ledgerBackend is one node's effect store: an idempotent set-insert per
// admission domain, the certification idiom of the PR 1 soak. Unknown ids
// are forged effects; the audit fails on any.
type ledgerBackend struct {
	mu      sync.Mutex
	ids     map[string]int
	unknown []string
	echoes  [][]any // the arguments of every echo call, in arrival order
}

// echo records the arguments an echo call's body saw and returns the first.
func (b *ledgerBackend) echo(args []any) any {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.echoes = append(b.echoes, args)
	if len(args) == 0 {
		return nil
	}
	return args[0]
}

// echoed returns the arguments of the echo calls from the nth on.
func (b *ledgerBackend) echoed(n int) [][]any {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]any(nil), b.echoes[min(n, len(b.echoes)):]...)
}

func (b *ledgerBackend) put(id, wantPrefix string) (any, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(id) < len(wantPrefix) || id[:len(wantPrefix)] != wantPrefix {
		b.unknown = append(b.unknown, id)
		return nil, fmt.Errorf("ledger: unknown id %q", id)
	}
	b.ids[id]++
	return true, nil
}

func (b *ledgerBackend) snapshot() (map[string]int, []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.ids))
	for k, v := range b.ids {
		out[k] = v
	}
	return out, append([]string(nil), b.unknown...)
}

// snapshotDomain serializes the ids of one admission domain (by prefix) —
// the cluster Snapshot hook of the ledger app.
func (b *ledgerBackend) snapshotDomain(prefix string) ([]byte, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int)
	for k, v := range b.ids {
		if strings.HasPrefix(k, prefix) {
			out[k] = v
		}
	}
	return json.Marshal(out)
}

// restoreDomain replaces one domain's ids with a received snapshot — the
// cluster Restore hook. Replace (not merge): the snapshot IS the domain's
// authoritative state; merging could hide lost effects when ownership
// ping-pongs.
func (b *ledgerBackend) restoreDomain(prefix string, data []byte) error {
	var in map[string]int
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for k := range b.ids {
		if strings.HasPrefix(k, prefix) {
			delete(b.ids, k)
		}
	}
	for k, v := range in {
		b.ids[k] = v
	}
	return nil
}

// ledgerDomains is the method → admission-domain map of the test app: two
// put methods in two distinct domains, so a multi-node cluster splits them,
// and ledgerEcho beside alpha-put.
var ledgerDomains = map[string]string{
	"alpha-put": "alpha",
	"beta-put":  "beta",
	ledgerEcho:  "alpha",
}

// ledgerEcho is the ledger's effect-free method: its body records the
// arguments it sees and returns the first.
const ledgerEcho = "alpha-echo"

// newLedgerApp builds one node's guarded two-domain ledger component.
// Every method carries a pass-through synchronization guard so each call
// runs the full admission protocol (park/wake accounting included).
func newLedgerApp(t testing.TB) (*ledgerBackend, *proxy.Proxy) {
	t.Helper()
	b := &ledgerBackend{ids: make(map[string]int, 2048)}
	mod := moderator.New("cledger")
	p := proxy.New(mod)
	for method, domain := range ledgerDomains {
		m, d := method, domain
		if err := mod.Register(m, aspect.KindSynchronization,
			aspect.New("gate-"+d, aspect.KindSynchronization,
				func(inv *aspect.Invocation) aspect.Verdict {
					if id, err := inv.ArgString(0); err == nil && len(id) > 4 && id[len(id)-4:] == "-bad" {
						return aspect.Abort
					}
					return aspect.Resume
				},
				func(inv *aspect.Invocation) {})); err != nil {
			t.Fatal(err)
		}
		if m == ledgerEcho {
			if err := p.Bind(m, func(inv *aspect.Invocation) (any, error) {
				return b.echo(inv.Args()), nil
			}); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := p.Bind(m, func(inv *aspect.Invocation) (any, error) {
			id, err := inv.ArgString(0)
			if err != nil {
				return nil, err
			}
			return b.put(id, d[:1]) // ids are "a-..." / "b-..." per domain
		}); err != nil {
			t.Fatal(err)
		}
	}
	return b, p
}

// startLedgerNode boots one cluster node serving the ledger app with
// test-friendly (sub-second failover) timings. State sync is on with the
// app's snapshot/restore hooks, so graceful handovers travel the snapshot
// path and hard failovers replay the replicated effect log.
func startLedgerNode(t testing.TB, id, namingAddr string, mutate func(*Config)) (*ledgerBackend, *Node) {
	t.Helper()
	backend, p := newLedgerApp(t)
	cfg := Config{
		ID:         id,
		Local:      p,
		Domains:    ledgerDomains,
		Naming:     namingAddr,
		Idempotent: true,
		LeaseTTL:   900 * time.Millisecond,
		Heartbeat:  150 * time.Millisecond,
		Snapshot: func(domain string) ([]byte, error) {
			return backend.snapshotDomain(domain[:1])
		},
		Restore: func(domain string, data []byte) error {
			return backend.restoreDomain(domain[:1], data)
		},
	}
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := Start(cfg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return backend, n
}

// waitOwnership polls until the cluster has converged: every node sees the
// full membership, and every domain of the test app is owned by exactly
// the node the ring designates — so ownership will not move again unless
// the membership does.
func waitOwnership(t testing.TB, nodes ...*Node) map[string]*Node {
	t.Helper()
	ids := make([]string, len(nodes))
	byID := make(map[string]*Node, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
		byID[n.ID()] = n
	}
	ring := naming.NewRing(0, ids...)
	deadline := time.Now().Add(5 * time.Second)
	for {
		converged := true
		owners := make(map[string]*Node)
		for _, n := range nodes {
			if len(n.Status().Members) != len(nodes) {
				converged = false
			}
		}
		for _, d := range []string{"alpha", "beta"} {
			want, _ := ring.Owner(d)
			if _, ok := byID[want].owns(d); !ok {
				converged = false
				continue
			}
			owners[d] = byID[want]
			// Nobody else may still assert it.
			for _, n := range nodes {
				if n != byID[want] {
					if _, stale := n.owns(d); stale {
						converged = false
					}
				}
			}
		}
		if converged {
			return owners
		}
		if time.Now().After(deadline) {
			t.Fatalf("cluster never converged; owners so far: %v", owners)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestClusterOwnershipAndForwarding(t *testing.T) {
	namingAddr := startNaming(t)
	b1, n1 := startLedgerNode(t, "n1", namingAddr, nil)
	b2, n2 := startLedgerNode(t, "n2", namingAddr, nil)
	owners := waitOwnership(t, n1, n2)

	// Drive both methods through BOTH nodes: the non-owner path must
	// transparently forward.
	ctx := context.Background()
	const per = 10
	for i := 0; i < per; i++ {
		for _, entry := range []struct {
			node   *Node
			method string
			id     string
		}{
			{n1, "alpha-put", fmt.Sprintf("a-n1-%d", i)},
			{n2, "alpha-put", fmt.Sprintf("a-n2-%d", i)},
			{n1, "beta-put", fmt.Sprintf("b-n1-%d", i)},
			{n2, "beta-put", fmt.Sprintf("b-n2-%d", i)},
		} {
			if _, err := entry.node.Invoke(ctx, entry.method, entry.id); err != nil {
				t.Fatalf("%s via %s: %v", entry.method, entry.node.ID(), err)
			}
		}
	}

	// Every effect must have landed exactly once, and exclusively on the
	// backend of its domain's owner: single-owner execution is the whole
	// point of the partitioning.
	ids1, unknown1 := b1.snapshot()
	ids2, unknown2 := b2.snapshot()
	if len(unknown1)+len(unknown2) != 0 {
		t.Fatalf("forged effects: %v %v", unknown1, unknown2)
	}
	backendOf := map[*Node]map[string]int{n1: ids1, n2: ids2}
	for domain, prefix := range map[string]string{"alpha": "a-", "beta": "b-"} {
		owner := owners[domain]
		other := n1
		if owner == n1 {
			other = n2
		}
		for _, src := range []string{"n1", "n2"} {
			for i := 0; i < per; i++ {
				id := fmt.Sprintf("%s%s-%d", prefix, src, i)
				if got := backendOf[owner][id]; got != 1 {
					t.Fatalf("effect %s on owner %s: count %d, want 1", id, owner.ID(), got)
				}
				if got := backendOf[other][id]; got != 0 {
					t.Fatalf("effect %s leaked onto non-owner %s", id, other.ID())
				}
			}
		}
	}

	// The external amrpc path routes identically: a remote caller hitting
	// an arbitrary node is proxied to the owner.
	c, err := amrpc.Dial(n1.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Component("cledger").Invoke(ctx, "beta-put", "b-ext-0"); err != nil {
		t.Fatalf("external call via n1: %v", err)
	}
	betaBackend := b1
	if owners["beta"] == n2 {
		betaBackend = b2
	}
	fresh, _ := betaBackend.snapshot()
	if fresh["b-ext-0"] != 1 {
		t.Fatalf("external effect missing on owner of beta")
	}

	// Status surfaces ownership for both local and remote domains.
	st := n1.Status()
	if len(st.Domains) != 2 || len(st.Members) != 2 {
		t.Fatalf("status incomplete: %+v", st)
	}
	for _, ds := range st.Domains {
		if ds.Owner != owners[ds.Domain].ID() {
			t.Fatalf("status owner of %s = %s, want %s", ds.Domain, ds.Owner, owners[ds.Domain].ID())
		}
		if ds.Term == 0 || ds.Addr == "" {
			t.Fatalf("status of %s missing term/addr: %+v", ds.Domain, ds)
		}
	}
}

// TestRouteBackoffSpansLease pins the claim on routeAttempts: at the
// default lease, even the shortest draw of every pause the router takes between
// its rounds sums to more than a lease, so a call that arrives as an owner
// dies outlasts the dead owner's lease instead of failing.
func TestRouteBackoffSpansLease(t *testing.T) {
	cfg := Config{ID: "n", Local: proxy.New(moderator.New("c")), Naming: "unused"}
	if err := cfg.withDefaults(); err != nil {
		t.Fatal(err)
	}
	var floor time.Duration
	d := routeBackoffBase
	for n := 1; n < routeAttempts; n++ {
		// The pause before attempt n is drawn from [d/2, d].
		for k := 0; k < 1000; k++ {
			if p := amrpc.Backoff(routeBackoffBase, routeBackoffMax, n); p < d/2 {
				t.Fatalf("pause before attempt %d = %v, below its floor %v", n, p, d/2)
			}
		}
		floor += d / 2
		d = min(2*d, routeBackoffMax)
	}
	if floor <= cfg.LeaseTTL {
		t.Fatalf("%d routing rounds pause at least %v in total, not more than the %v lease",
			routeAttempts, floor, cfg.LeaseTTL)
	}
	t.Logf("%d routing rounds pause at least %v in total; lease %v", routeAttempts, floor, cfg.LeaseTTL)
}

func TestClusterAbortPropagatesAsApplicationError(t *testing.T) {
	namingAddr := startNaming(t)
	_, n1 := startLedgerNode(t, "n1", namingAddr, nil)
	_, n2 := startLedgerNode(t, "n2", namingAddr, nil)
	waitOwnership(t, n1, n2)

	// A guard Abort is an application decision: it must surface as
	// aspect.ErrAborted through both nodes (one of them forwarding) and
	// must not be retried into a duplicate admission.
	for _, n := range []*Node{n1, n2} {
		_, err := n.Invoke(context.Background(), "alpha-put", "a-x-bad")
		if !errors.Is(err, aspect.ErrAborted) {
			t.Fatalf("abort via %s: err = %v, want ErrAborted", n.ID(), err)
		}
	}
}

// TestClusterFencing pins the stale-owner discipline: a fenced call is
// honored only at the exact live term, and a node whose lease lapsed
// (wedged heartbeat) refuses its former term even before anyone else takes
// over.
func TestClusterFencing(t *testing.T) {
	namingAddr := startNaming(t)
	_, n1 := startLedgerNode(t, "n1", namingAddr, nil)
	_, n2 := startLedgerNode(t, "n2", namingAddr, nil)
	owners := waitOwnership(t, n1, n2)
	owner := owners["alpha"]
	term, ok := owner.owns("alpha")
	if !ok {
		t.Fatal("owner lost alpha immediately")
	}

	c, err := amrpc.Dial(owner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	// Correct fence: accepted.
	if _, err := c.Component("cledger", amrpc.WithFenceTerm(term)).Invoke(ctx, "alpha-put", "a-f-0"); err != nil {
		t.Fatalf("correctly fenced call refused: %v", err)
	}
	// Wrong term: refused with the rehydrated sentinel.
	if _, err := c.Component("cledger", amrpc.WithFenceTerm(term+7)).Invoke(ctx, "alpha-put", "a-f-1"); !errors.Is(err, naming.ErrStaleTerm) {
		t.Fatalf("future-term fence: err = %v, want ErrStaleTerm", err)
	}
	// Fenced call to a non-owner: refused regardless of term.
	nonOwner := n1
	if owner == n1 {
		nonOwner = n2
	}
	c2, err := amrpc.Dial(nonOwner.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Component("cledger", amrpc.WithFenceTerm(term)).Invoke(ctx, "alpha-put", "a-f-2"); !errors.Is(err, naming.ErrStaleTerm) {
		t.Fatalf("fenced call to non-owner: err = %v, want ErrStaleTerm", err)
	}

	// Wedge the owner's heartbeat. Once its local lease validity (minus
	// the safety margin) lapses, the SAME node refuses the SAME term: a
	// stale owner stops executing before the next term can be granted.
	owner.hbPaused.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if _, stillOwns := owner.owns("alpha"); !stillOwns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("wedged owner never dropped ownership")
		}
		time.Sleep(20 * time.Millisecond)
	}
	before := owner.Status().StaleRefusals
	if _, err := c.Component("cledger", amrpc.WithFenceTerm(term)).Invoke(ctx, "alpha-put", "a-f-3"); !errors.Is(err, naming.ErrStaleTerm) {
		t.Fatalf("stale owner accepted its lapsed term: err = %v", err)
	}
	if owner.Status().StaleRefusals <= before {
		t.Fatal("stale refusal not counted")
	}
}

// TestClusterRidesOutNamingRestart pins that a node's naming connection
// survives the naming service going away and coming back: served again
// on the same address with the same Store, every node's beat succeeds
// within two beats, and every owned domain keeps its owner, its term and
// its ownership record, so nothing is re-acquired. The first beat may
// meet the dead connection; the client re-dials on the next.
func TestClusterRidesOutNamingRestart(t *testing.T) {
	store := naming.NewStore()
	srv, namingAddr := serveNaming(t, store, "127.0.0.1:0")
	var nodes []*Node
	for _, id := range []string{"r1", "r2", "r3"} {
		_, n := startLedgerNode(t, id, namingAddr, slowTicks)
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	before := make(map[string]*ownedDomain)
	for d, n := range owners {
		n.mu.Lock()
		before[d] = n.owned[d]
		n.mu.Unlock()
	}
	var takeovers uint64
	for _, n := range nodes {
		takeovers += n.takeovers.Load()
	}

	srv.Close()
	serveNaming(t, store, namingAddr)
	for _, n := range nodes {
		if err := n.beat(); err != nil {
			if err := n.beat(); err != nil {
				t.Fatalf("%s: second beat after the naming restart: %v", n.ID(), err)
			}
		}
	}
	for d, n := range owners {
		n.mu.Lock()
		o := n.owned[d]
		n.mu.Unlock()
		if o != before[d] {
			t.Fatalf("%s re-acquired %s: ownership record %+v, was %+v", n.ID(), d, o, before[d])
		}
		if l, err := store.LookupLease(d); err != nil || l.Holder != n.ID() || l.Term != before[d].term {
			t.Fatalf("lease on %s after the restart = %+v, %v; want %s at term %d", d, l, err, n.ID(), before[d].term)
		}
	}
	var after uint64
	for _, n := range nodes {
		after += n.takeovers.Load()
	}
	if after != takeovers {
		t.Fatalf("takeovers %d -> %d across the naming restart", takeovers, after)
	}
	ctx := context.Background()
	for i, n := range nodes {
		if _, err := n.Invoke(ctx, "alpha-put", fmt.Sprintf("a-r-%d", i)); err != nil {
			t.Fatalf("put through %s after the restart: %v", n.ID(), err)
		}
	}
}
