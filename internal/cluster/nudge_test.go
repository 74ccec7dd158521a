package cluster

// Membership events drive ownership moves: a join, a blocked acquire and
// a release each nudge the node that acts next, and an acquirer announces
// its route to every member before it serves. The tests here run with a
// heartbeat far longer than their deadlines, so they pass only if no
// move waits on a tick.

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/amrpc"
	"repro/internal/naming"
)

// slowTicks gives a node a one-minute lease and membership TTL, so its
// default heartbeat is 15 s: longer than any deadline below.
func slowTicks(cfg *Config) {
	cfg.MemberTTL = time.Minute
	cfg.LeaseTTL = time.Minute
	cfg.Heartbeat = 0
}

// tickFree is the deadline a membership event must converge within.
const tickFree = 2 * time.Second

// TestRefreshRoutesKeepsHigherTerm pins that a beat's lease listing,
// which can be older than a route the node learned while the beat ran,
// never lowers a cached route's term.
func TestRefreshRoutesKeepsHigherTerm(t *testing.T) {
	n := &Node{routes: map[string]route{}}
	listedAt := time.Now()
	n.routes["alpha"] = route{holder: "n2", term: 3, addr: "a2", fetchedAt: listedAt.Add(-time.Second)}
	n.routes["beta"] = route{holder: "n2", term: 5, addr: "a2", fetchedAt: listedAt.Add(time.Millisecond)}
	n.routes["gamma"] = route{holder: "n1", term: 2, addr: "a1", fetchedAt: listedAt.Add(-time.Second)}
	members := map[string]string{"n1": "a1", "n2": "a2"}
	n.refreshRoutes([]naming.DomainLease{{Domain: "alpha", Holder: "n1", Term: 2}}, members, listedAt)

	if r := n.routes["alpha"]; r.holder != "n2" || r.term != 3 {
		t.Fatalf("alpha route = %s at term %d, want n2 at term 3", r.holder, r.term)
	}
	// A route learned after the listing was read survives a listing that
	// shows its domain free; one learned before it does not.
	if r, ok := n.routes["beta"]; !ok || r.term != 5 {
		t.Fatalf("beta route learned after the listing dropped: %+v", r)
	}
	if r, ok := n.routes["gamma"]; ok {
		t.Fatalf("gamma route older than a listing that shows it free kept: %+v", r)
	}
	n.refreshRoutes([]naming.DomainLease{{Domain: "alpha", Holder: "n1", Term: 4}}, members, listedAt)
	if r := n.routes["alpha"]; r.holder != "n1" || r.term != 4 {
		t.Fatalf("alpha route = %s at term %d, want the listing's n1 at term 4", r.holder, r.term)
	}
}

// TestRouteAnnouncement pins the receiving side of an announcement: a
// higher term is cached, a lower one is ignored, and a malformed one — a
// term that is not a positive integer among them — is refused as a bad
// request and caches nothing.
func TestRouteAnnouncement(t *testing.T) {
	_, n := startLedgerNode(t, "r1", startNaming(t), slowTicks)
	c, err := amrpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl := c.Component(controlName(n.ID()))
	ctx := context.Background()
	cached := func() route {
		n.mu.Lock()
		defer n.mu.Unlock()
		return n.routes["gamma"]
	}
	for _, term := range []uint64{7, 5} {
		if _, err := ctl.Invoke(ctx, "route", "gamma", "r2", "127.0.0.1:1", term); err != nil {
			t.Fatalf("announce at term %d: %v", term, err)
		}
	}
	if r := cached(); r.holder != "r2" || r.term != 7 || r.addr != "127.0.0.1:1" {
		t.Fatalf("cached route after terms 7 and 5 = %+v, want r2 at term 7", r)
	}
	for _, args := range [][]any{
		{"gamma", "r3", "127.0.0.1:2"}, {"gamma", "r3", "127.0.0.1:2", 0}, {"gamma", "", "127.0.0.1:2", 9},
		{"gamma", "r3", "127.0.0.1:2", 2.5}, {"gamma", "r3", "127.0.0.1:2", "3"}, {"gamma", "r3", "127.0.0.1:2", 9, "extra"},
	} {
		if _, err := ctl.Invoke(ctx, "route", args...); !errors.Is(err, amrpc.ErrBadRequest) {
			t.Fatalf("announce %v: err = %v, want ErrBadRequest", args, err)
		}
	}
	if r := cached(); r.holder != "r2" || r.term != 7 {
		t.Fatalf("a refused announcement changed the route to %+v", r)
	}
}

// routesConverged reports whether every node's view of each domain names
// the ring's owner at the term it holds.
func routesConverged(nodes []*Node, owners map[string]*Node) error {
	for _, n := range nodes {
		for _, ds := range n.Status().Domains {
			owner := owners[ds.Domain]
			term, _ := owner.owns(ds.Domain)
			if ds.Owner != owner.ID() || ds.Term != term {
				return fmt.Errorf("%s routes %s to %s at term %d, want %s at term %d",
					n.ID(), ds.Domain, ds.Owner, ds.Term, owner.ID(), term)
			}
		}
	}
	return nil
}

// TestClusterJoinConvergesWithoutTick certifies the join trigger and route
// before serve: three nodes started one after another converge, and
// every member routes to the new owners at their terms, long before any
// heartbeat ticks; calls through a node that owns nothing are then never
// refused or retried.
func TestClusterJoinConvergesWithoutTick(t *testing.T) {
	namingAddr := startNaming(t)
	start := time.Now()
	var nodes []*Node
	for _, id := range []string{"j1", "j2", "j3"} {
		_, n := startLedgerNode(t, id, namingAddr, slowTicks)
		nodes = append(nodes, n)
	}
	owners := waitOwnership(t, nodes...)
	for err := routesConverged(nodes, owners); err != nil; err = routesConverged(nodes, owners) {
		if time.Since(start) > tickFree {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if took := time.Since(start); took > tickFree {
		t.Fatalf("join converged in %v, want within %v", took, tickFree)
	}

	var entry *Node
	for _, n := range nodes {
		if len(n.OwnedDomains()) == 0 {
			entry = n
		}
	}
	if entry == nil {
		t.Fatal("every node owns a domain")
	}
	ctx := context.Background()
	for i := 0; i < 50; i++ {
		method, id := "alpha-put", fmt.Sprintf("a-j-%d", i)
		if i%2 == 1 {
			method, id = "beta-put", fmt.Sprintf("b-j-%d", i)
		}
		if _, err := entry.Invoke(ctx, method, id); err != nil {
			t.Fatalf("%s via %s: %v", method, entry.ID(), err)
		}
	}
	for _, n := range nodes {
		if st := n.Status(); st.StaleRefusals != 0 || st.ForwardRetries != 0 {
			t.Errorf("%s: %d stale refusals, %d forward retries; want none",
				n.ID(), st.StaleRefusals, st.ForwardRetries)
		}
	}
}

// TestClusterAnnouncesToNewMember pins the other half of route before
// serve: a member that joined after an acquirer's listing, and so missed
// its announcement, is sent the acquirer's routes by the first beat that
// lists it. Here the entry's cache is set back to the previous term and
// the owner made to forget it has listed the entry, as when that race
// happens.
func TestClusterAnnouncesToNewMember(t *testing.T) {
	namingAddr := startNaming(t)
	var nodes []*Node
	for _, id := range []string{"m1", "m2", "m3"} {
		_, n := startLedgerNode(t, id, namingAddr, slowTicks)
		nodes = append(nodes, n)
	}
	owner := waitOwnership(t, nodes...)["alpha"]
	term, _ := owner.owns("alpha")
	var entry *Node
	for _, n := range nodes {
		if n != owner {
			entry = n
		}
	}
	entry.mu.Lock()
	entry.routes["alpha"] = route{holder: "gone", term: term - 1, addr: "127.0.0.1:1", fetchedAt: time.Now()}
	entry.mu.Unlock()
	owner.mu.Lock()
	delete(owner.members, entry.ID())
	owner.mu.Unlock()

	if err := owner.beat(); err != nil {
		t.Fatal(err)
	}
	entry.mu.Lock()
	r := entry.routes["alpha"]
	entry.mu.Unlock()
	if r.holder != owner.ID() || r.term != term {
		t.Fatalf("%s routes alpha to %s at term %d, want %s at term %d", entry.ID(), r.holder, r.term, owner.ID(), term)
	}
}

// TestClusterLeaveConvergesWithoutTick certifies the release trigger on a
// graceful leave: the ring successor of a closed owner owns its domain,
// with every effect the closed node applied, long before any heartbeat
// ticks.
func TestClusterLeaveConvergesWithoutTick(t *testing.T) {
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	var nodes []*Node
	for _, id := range []string{"l1", "l2", "l3"} {
		b, n := startLedgerNode(t, id, namingAddr, slowTicks)
		backends[id] = b
		nodes = append(nodes, n)
	}
	victim := waitOwnership(t, nodes...)["alpha"]
	var survivors []string
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n.ID())
		}
	}
	const per = 30
	ctx := context.Background()
	for i := 0; i < per; i++ {
		if _, err := victim.Invoke(ctx, "alpha-put", fmt.Sprintf("a-l-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	start := time.Now()
	victim.Close()
	succID, _ := naming.NewRing(0, survivors...).Owner("alpha")
	var succ *Node
	for _, n := range nodes {
		if n.ID() == succID {
			succ = n
		}
	}
	for {
		if _, ok := succ.owns("alpha"); ok {
			break
		}
		if time.Since(start) > tickFree {
			t.Fatalf("successor %s does not own alpha %v after the leave", succID, tickFree)
		}
		time.Sleep(5 * time.Millisecond)
	}
	ids, unknown := backends[succID].snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on %s: %v", succID, unknown)
	}
	for i := 0; i < per; i++ {
		if id := fmt.Sprintf("a-l-%d", i); ids[id] != 1 {
			t.Fatalf("effect %s count %d on successor %s, want 1", id, ids[id], succID)
		}
	}
}

// nudgesSent sums the nudges every node has sent.
func nudgesSent(nodes []*Node) uint64 {
	var sum uint64
	for _, n := range nodes {
		sum += n.nudges.Load()
	}
	return sum
}

// TestClusterNudgesBounded pins the cost of nudges: a converged cluster
// sends none, a burst of them runs at most two extra beats, and a paused
// node ignores them.
func TestClusterNudgesBounded(t *testing.T) {
	namingAddr := startNaming(t)
	var nodes []*Node
	for _, id := range []string{"b1", "b2", "b3"} {
		_, n := startLedgerNode(t, id, namingAddr, nil)
		nodes = append(nodes, n)
	}
	waitOwnership(t, nodes...)
	hb := nodes[0].cfg.Heartbeat
	time.Sleep(hb)
	before := nudgesSent(nodes)
	time.Sleep(3 * hb)
	if sent := nudgesSent(nodes) - before; sent != 0 {
		t.Fatalf("a converged cluster sent %d nudges over 3 heartbeats, want 0", sent)
	}

	// One node, so no peer nudges it, and no tick within the test.
	_, n := startLedgerNode(t, "solo", startNaming(t), slowTicks)
	c, err := amrpc.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctl := c.Component(controlName(n.ID()))
	ctx := context.Background()
	beats := n.beats.Load()
	// Holding the node's mutex parks its first nudged beat once it has
	// read the naming service, so every later nudge arrives while a beat
	// runs.
	n.mu.Lock()
	for i := 0; i < 100; i++ {
		if _, err := ctl.Invoke(ctx, "beat"); err != nil {
			n.mu.Unlock()
			t.Fatalf("beat call %d: %v", i, err)
		}
	}
	n.mu.Unlock()
	time.Sleep(200 * time.Millisecond)
	if extra := n.beats.Load() - beats; extra < 1 || extra > 2 {
		t.Fatalf("100 nudges ran %d extra beats, want 1 or 2", extra)
	}

	n.hbPaused.Store(true)
	beats = n.beats.Load()
	if _, err := ctl.Invoke(ctx, "beat"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	if extra := n.beats.Load() - beats; extra != 0 {
		t.Fatalf("a paused node ran %d beats on a nudge, want 0", extra)
	}
}
