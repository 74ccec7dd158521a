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
	"strings"
	"sync"
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

// logLines collects the lines a node writes through Config.Logf.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (l *logLines) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

// with returns the lines that contain every one of subs.
func (l *logLines) with(subs ...string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range l.lines {
		all := true
		for _, sub := range subs {
			all = all && strings.Contains(line, sub)
		}
		if all {
			out = append(out, line)
		}
	}
	return out
}

// waitLine waits, at most tickFree from start, for l to hold a line with
// every one of subs. A node logs an acquisition just after it starts
// serving the domain, so the line can trail ownership.
func waitLine(t *testing.T, l *logLines, start time.Time, subs ...string) {
	t.Helper()
	for len(l.with(subs...)) == 0 {
		if time.Since(start) > tickFree {
			t.Fatalf("no log line with %q; the acquisitions logged: %q", subs, l.with("acquired"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// logTo returns a Config mutation that slows the node's ticks and
// collects its log lines in l.
func logTo(l *logLines) func(*Config) {
	return func(cfg *Config) {
		slowTicks(cfg)
		cfg.Logf = l.logf
	}
}

// waitOwns waits, at most tickFree from start, for n to own domain.
func waitOwns(t *testing.T, n *Node, domain string, start time.Time) {
	t.Helper()
	for {
		if _, ok := n.owns(domain); ok {
			return
		}
		if time.Since(start) > tickFree {
			t.Fatalf("%s does not own %s %v after the membership change", n.ID(), domain, tickFree)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterJoinHandsOffOnFirstOffer certifies a join's handoff: the
// releasing owner's beat publishes the membership it listed before it
// hands off, so its first offer reaches the newcomer. No failed attempt is
// logged, the newcomer's lease carries the releaser's barrier, and the
// newcomer serves the domain with every effect the releaser applied.
func TestClusterJoinHandsOffOnFirstOffer(t *testing.T) {
	if a, _ := naming.NewRing(0, "c1", "c2").Owner("alpha"); a != "c1" {
		t.Fatalf("ring layout: alpha goes to %s of [c1 c2], want c1", a)
	}
	if b, _ := naming.NewRing(0, "c1", "c2").Owner("beta"); b != "c2" {
		t.Fatalf("ring layout: beta goes to %s of [c1 c2], want c2", b)
	}
	namingAddr := startNaming(t)
	var log1, log2 logLines
	_, n1 := startLedgerNode(t, "c1", namingAddr, logTo(&log1))
	for _, d := range []string{"alpha", "beta"} {
		if _, ok := n1.owns(d); !ok {
			t.Fatalf("a lone c1 does not own %s", d)
		}
	}
	const per = 10
	ctx := context.Background()
	for i := 0; i < per; i++ {
		if _, err := n1.Invoke(ctx, "beta-put", fmt.Sprintf("b-j-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	start := time.Now()
	b2, n2 := startLedgerNode(t, "c2", namingAddr, logTo(&log2))
	waitOwns(t, n2, "beta", start)
	if lines := log1.with("handoff", "failed"); len(lines) != 0 {
		t.Fatalf("c1 logged failed handoff attempts: %q", lines)
	}
	waitLine(t, &log2, start, "acquired beta", fmt.Sprintf("barrier from c1 through seq %d", per))
	if st := syncRow(n2, "beta"); !st.Restored || st.CatchupGaps != 0 {
		t.Fatalf("c2 beta: restored=%v, catch-up gaps %d; want a restored snapshot and no gap", st.Restored, st.CatchupGaps)
	}
	if _, ok := n1.owns("alpha"); !ok {
		t.Fatal("the join moved alpha off c1")
	}
	if _, err := n1.Invoke(ctx, "beta-put", "b-j-after"); err != nil {
		t.Fatalf("put through c1 after the join: %v", err)
	}
	ids, unknown := b2.snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on c2: %v", unknown)
	}
	for i := 0; i <= per; i++ {
		id := fmt.Sprintf("b-j-%d", i)
		if i == per {
			id = "b-j-after"
		}
		if ids[id] != 1 {
			t.Fatalf("effect %s count %d on c2, want 1", id, ids[id])
		}
	}
}

// TestClusterCloseHandsOffAlongFreshListing certifies that Close picks
// each successor from a fresh listing. The owner of alpha is closed right
// after its ring successor, within a heartbeat, so its last beat still
// lists the departed node; the third node must still acquire alpha, with
// the owner's barrier and snapshot and no catch-up gap, without a tick.
func TestClusterCloseHandsOffAlongFreshListing(t *testing.T) {
	ids := []string{"n1", "n2", "n3"}
	ring := naming.NewRing(0, ids...)
	ownerID, _ := ring.Owner("alpha")
	succID, _ := ring.Without(ownerID).Owner("alpha")
	// Closing the successor must not nudge the owner, or the owner's beat
	// would refresh its view and hide the stale one.
	if b, _ := ring.Owner("beta"); b == succID {
		if next, _ := ring.Without(succID).Owner("beta"); next == ownerID {
			t.Fatalf("ring layout: closing %s hands beta to alpha's owner %s", succID, ownerID)
		}
	}
	namingAddr := startNaming(t)
	backends := map[string]*ledgerBackend{}
	logs := map[string]*logLines{}
	var nodes []*Node
	for _, id := range ids {
		logs[id] = &logLines{}
		b, n := startLedgerNode(t, id, namingAddr, logTo(logs[id]))
		backends[id] = b
		nodes = append(nodes, n)
	}
	// A failure is a story across three nodes: print every node's log.
	t.Cleanup(func() {
		if t.Failed() {
			for _, id := range ids {
				for _, l := range logs[id].with("") {
					t.Log(l)
				}
			}
		}
	})
	owners := waitOwnership(t, nodes...)
	owner := owners["alpha"]
	var succ, third *Node
	for _, n := range nodes {
		switch n.ID() {
		case ownerID:
		case succID:
			succ = n
		default:
			third = n
		}
	}
	const per = 20
	ctx := context.Background()
	for i := 0; i < per; i++ {
		if _, err := owner.Invoke(ctx, "alpha-put", fmt.Sprintf("a-c-%d", i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}

	start := time.Now()
	succ.Close()
	owner.Close()
	waitOwns(t, third, "alpha", start)
	waitLine(t, logs[third.ID()], start, "acquired alpha", fmt.Sprintf("barrier from %s through seq %d", ownerID, per))
	if st := syncRow(third, "alpha"); !st.Restored || st.CatchupGaps != 0 {
		t.Fatalf("%s alpha: restored=%v, catch-up gaps %d; want a restored snapshot and no gap", third.ID(), st.Restored, st.CatchupGaps)
	}
	got, unknown := backends[third.ID()].snapshot()
	if len(unknown) != 0 {
		t.Fatalf("forged effects on %s: %v", third.ID(), unknown)
	}
	for i := 0; i < per; i++ {
		if id := fmt.Sprintf("a-c-%d", i); got[id] != 1 {
			t.Fatalf("effect %s count %d on %s, want 1", id, got[id], third.ID())
		}
	}
}

// TestClusterFreeDomainWakesRingOwner certifies that a domain no one
// holds does not wait for its ring owner's tick. A release nudges the new
// owner by the releaser's listing; a join during the release makes that
// listing stale, so the nudged node is not the ring's owner and the
// domain is left free. Here the owner drops alpha without nudging anyone,
// as that race leaves it, and one beat of another member must wake it.
func TestClusterFreeDomainWakesRingOwner(t *testing.T) {
	namingAddr := startNaming(t)
	var nodes []*Node
	for _, id := range []string{"f1", "f2", "f3"} {
		_, n := startLedgerNode(t, id, namingAddr, slowTicks)
		nodes = append(nodes, n)
	}
	owner := waitOwnership(t, nodes...)["alpha"]
	owner.mu.Lock()
	term := owner.owned["alpha"].term
	delete(owner.owned, "alpha")
	owner.mu.Unlock()
	if _, err := owner.nc.ReleaseLease("alpha", owner.ID(), term); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	for _, n := range nodes {
		if n != owner {
			if err := n.beat(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}
	waitOwns(t, owner, "alpha", start)
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
