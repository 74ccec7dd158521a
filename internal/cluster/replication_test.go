package cluster

// Replication capture is the innermost moderator layer a node composes
// while state sync is on: these tests pin what it captures, that the
// composition shows it, and that a serialized domain's log order is its
// execution order.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// mutexRouteTracer discards every event and samples so rarely that no
// detail op fires. An installed tracer keeps every admission off both
// lock-free routes, so guarded calls take the mutex route.
type mutexRouteTracer struct{}

func (mutexRouteTracer) Trace(moderator.TraceEvent) {}
func (mutexRouteTracer) SampleEvery() int           { return math.MaxInt }

// routeApp binds one method per completion route, each alone in its
// admission domain (so each domain is named after its method):
//
//	pure   a passive NonBlocking aspect: the lock-free pure route
//	cell   a capacity-1 semaphore, uncontended: the optimistic cell route
//	mutex  the same guard; the test installs a tracer before calling it
//	bare   no aspect of its own
//	fails  a guarded method whose body fails
func routeApp(t *testing.T) *proxy.Proxy {
	t.Helper()
	mod := moderator.New("routes")
	p := proxy.New(mod)
	if err := mod.Register("pure", aspect.KindAudit, &aspect.Func{
		AspectName: "audit", AspectKind: aspect.KindAudit, NonBlockingFlag: true,
	}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"cell", "mutex", "fails"} {
		sem, err := syncguard.NewSemaphore(1, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Register(m, aspect.KindSynchronization, sem.Aspect("sem-"+m)); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range []string{"pure", "cell", "mutex", "bare"} {
		if err := p.Bind(m, func(*aspect.Invocation) (any, error) { return true, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Bind("fails", func(*aspect.Invocation) (any, error) {
		return nil, errors.New("body failed")
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// startRouteNode boots p as the only member of a fresh cluster and waits
// until it owns every domain, so every capture lands in a led log.
func startRouteNode(t *testing.T, p *proxy.Proxy, namingAddr string, disableSync bool) *Node {
	t.Helper()
	n, err := Start(Config{
		ID:               "solo",
		Local:            p,
		Naming:           namingAddr,
		MemberTTL:        900 * time.Millisecond,
		LeaseTTL:         900 * time.Millisecond,
		Heartbeat:        150 * time.Millisecond,
		DisableStateSync: disableSync,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	deadline := time.Now().Add(5 * time.Second)
	for len(n.OwnedDomains()) < len(p.Methods()) {
		if time.Now().After(deadline) {
			t.Fatalf("node owns %v, want all of %v", n.OwnedDomains(), p.Methods())
		}
		time.Sleep(10 * time.Millisecond)
	}
	return n
}

// replicationLayers returns the replication layers of p's composition.
func replicationLayers(p *proxy.Proxy) []moderator.LayerInfo {
	var out []moderator.LayerInfo
	for _, l := range p.Moderator().Describe() {
		if l.Name == replicationLayer {
			out = append(out, l)
		}
	}
	return out
}

// TestReplicationLayerCapturesEveryRoute: each completion route captures
// a successful completion exactly once, a bound method with no aspects of
// its own included, and a completion whose body failed is not captured.
func TestReplicationLayerCapturesEveryRoute(t *testing.T) {
	p := routeApp(t)
	n := startRouteNode(t, p, startNaming(t), false)
	mod := p.Moderator()
	ctx := context.Background()
	call := func(method string) {
		t.Helper()
		if _, err := n.Invoke(ctx, method); err != nil {
			t.Fatalf("%s: %v", method, err)
		}
	}

	for _, m := range []string{"pure", "bare", "cell"} {
		call(m)
	}
	if os := mod.OptimisticStats(); os.Admits == 0 {
		t.Fatalf("cell call never took the optimistic route: %+v", os)
	}
	if _, err := n.Invoke(ctx, "fails"); err == nil {
		t.Fatal("fails: body error not returned")
	}
	mod.SetTracer(mutexRouteTracer{})
	before := mod.OptimisticStats()
	call("mutex")
	if after := mod.OptimisticStats(); after.Admits != before.Admits {
		t.Fatalf("mutex call took the optimistic route: %+v -> %+v", before, after)
	}
	mod.SetTracer(nil)

	for domain, want := range map[string]uint64{"pure": 1, "bare": 1, "cell": 1, "mutex": 1, "fails": 0} {
		if got := n.sync.Seq(domain); got != want {
			t.Errorf("domain %s: %d effects captured, want %d", domain, got, want)
		}
	}
}

// TestReplicationLayerComposition: a running node's composition shows the
// replication layer innermost, with one capture aspect per bound method;
// Close removes it, so the proxy can serve a second node; and a node with
// state sync off composes none.
func TestReplicationLayerComposition(t *testing.T) {
	namingAddr := startNaming(t)
	p := routeApp(t)
	check := func(round int) {
		t.Helper()
		layers := p.Moderator().Describe()
		if got := replicationLayers(p); len(got) != 1 {
			t.Fatalf("round %d: %d replication layers, want 1", round, len(got))
		}
		inner := layers[len(layers)-1]
		if inner.Name != replicationLayer {
			t.Fatalf("round %d: innermost layer is %q, want %q", round, inner.Name, replicationLayer)
		}
		for _, m := range p.Methods() {
			got := inner.Methods[m]
			if len(got) != 1 || got[0].Kind != aspect.Kind(replicationLayer) {
				t.Errorf("round %d: method %s in the replication layer: %+v, want one %s aspect",
					round, m, got, replicationLayer)
			}
		}
		if len(inner.Methods) != len(p.Methods()) {
			t.Errorf("round %d: replication layer covers %d methods, want the %d bound",
				round, len(inner.Methods), len(p.Methods()))
		}
	}
	for round := 1; round <= 2; round++ {
		n := startRouteNode(t, p, namingAddr, false)
		check(round)
		n.Close()
		if got := replicationLayers(p); len(got) != 0 {
			t.Fatalf("round %d: replication layer left after Close: %+v", round, got)
		}
	}

	q := routeApp(t)
	startRouteNode(t, q, startNaming(t), true)
	if got := replicationLayers(q); len(got) != 0 {
		t.Fatalf("state sync off, yet a replication layer: %+v", got)
	}
}

// seqLedger records the order in which its node ran alpha-put bodies.
type seqLedger struct {
	mu    sync.Mutex
	order []string
}

func (l *seqLedger) append(id string) {
	l.mu.Lock()
	l.order = append(l.order, id)
	l.mu.Unlock()
}

func (l *seqLedger) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.order)
}

// newSeqLedgerApp builds the test app's serialized domain: alpha-put
// behind a capacity-1 semaphore, so one body runs at a time and the
// order the ledger records is the domain's execution order. beta-put
// gives the ring a second domain.
func newSeqLedgerApp(t *testing.T) (*seqLedger, *proxy.Proxy) {
	t.Helper()
	l := &seqLedger{}
	mod := moderator.New("seqledger")
	p := proxy.New(mod)
	for _, m := range []string{"alpha-put", "beta-put"} {
		sem, err := syncguard.NewSemaphore(1, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Register(m, aspect.KindSynchronization, sem.Aspect("sem-"+m)); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Bind("alpha-put", func(inv *aspect.Invocation) (any, error) {
		id, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		l.append(id)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("beta-put", func(*aspect.Invocation) (any, error) { return true, nil }); err != nil {
		t.Fatal(err)
	}
	return l, p
}

// TestCaptureOrderIsExecutionOrder: concurrent callers drive a serialized
// domain through a non-owner; after a hard kill of the owner, the
// successor's replay of the effect log runs the bodies in the order the
// owner ran them. A capture taken outside the domain's lock would log
// completions in an order the bodies never ran in.
func TestCaptureOrderIsExecutionOrder(t *testing.T) {
	namingAddr := startNaming(t)
	ledgers := map[*Node]*seqLedger{}
	var nodes []*Node
	for _, id := range []string{"o1", "o2", "o3"} {
		l, p := newSeqLedgerApp(t)
		n, err := Start(Config{
			ID:         id,
			Local:      p,
			Domains:    map[string]string{"alpha-put": "alpha", "beta-put": "beta"},
			Naming:     namingAddr,
			Idempotent: true,
			MemberTTL:  900 * time.Millisecond,
			LeaseTTL:   900 * time.Millisecond,
			Heartbeat:  150 * time.Millisecond,
		}, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		ledgers[n] = l
		nodes = append(nodes, n)
	}
	owner := waitOwnership(t, nodes...)["alpha"]
	var gateway *Node
	var survivors []*Node
	for _, n := range nodes {
		if n != owner {
			gateway = n
			survivors = append(survivors, n)
		}
	}

	const callers, per = 8, 200
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := gateway.Invoke(ctx, "alpha-put", fmt.Sprintf("a-%d-%d", c, i)); err != nil {
					errs <- fmt.Errorf("caller %d put %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	ran := ledgers[owner].snapshot()
	if len(ran) != callers*per {
		t.Fatalf("owner %s ran %d bodies, want %d", owner.ID(), len(ran), callers*per)
	}
	waitSyncDrained(t, owner, "alpha", 5*time.Second)
	owner.Fail()

	successor := liveOwnerOf(t, survivors, "alpha", 5*time.Second)
	replayed := ledgers[successor].snapshot()
	if len(replayed) != len(ran) {
		t.Fatalf("successor %s replayed %d effects, want %d", successor.ID(), len(replayed), len(ran))
	}
	for i := range ran {
		if replayed[i] != ran[i] {
			t.Fatalf("replay diverges from execution order at position %d: ran %s, replayed %s",
				i, ran[i], replayed[i])
		}
	}
}
