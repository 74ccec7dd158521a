package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amrpc"
	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
	"repro/internal/cluster"
	"repro/internal/moderator"
	"repro/internal/naming"
	"repro/internal/proxy"
)

// The cluster_forward application: a ledger with two posting methods, each
// alone in its admission domain, so a three-node ring places the domains
// on at most two nodes and leaves one node that owns neither.
const ledgerComponent = "ledger"

var (
	clusterMethods = []string{"post-east", "post-west"}
	clusterDomains = map[string]string{"post-east": "east", "post-west": "west"}
	clusterNodeIDs = []string{"node-a", "node-b", "node-c"}
)

// ledger is one node's functional component and its guarded proxy. Every
// method echoes its argument, so a reply delivered to the wrong call shows.
type ledger struct {
	proxy  *proxy.Proxy
	posted [2]atomic.Uint64 // by index into clusterMethods
	serverSpans
}

func newLedger(callers, siteBase int) (*ledger, error) {
	l := &ledger{serverSpans: serverSpans{siteBase: siteBase, calls: make([]atomic.Uint64, callers)}}
	mod := moderator.New(ledgerComponent)
	l.proxy = proxy.New(mod)
	for i, method := range clusterMethods {
		// A real guard with room for every caller: the full admission
		// protocol runs on every call and nobody parks.
		sem, err := syncguard.NewSemaphore(64, method)
		if err != nil {
			return nil, err
		}
		if err := mod.Register(method, aspect.KindSynchronization, sem.Aspect("sem-"+method)); err != nil {
			return nil, err
		}
		idx, name := i, "body:"+method
		err = l.proxy.Bind(method, func(inv *aspect.Invocation) (any, error) {
			tr, site, c, n := l.next(inv)
			var t0 time.Time
			if tr != nil {
				t0 = time.Now()
			}
			id, err := inv.ArgString(0)
			if err != nil {
				return nil, err
			}
			l.posted[idx].Add(1)
			if tr != nil {
				tr.record(site, reqID(c, n), kindInFirst, kindOp, name, t0, time.Now())
			}
			return id, nil
		})
		if err != nil {
			return nil, err
		}
	}
	return l, nil
}

type clusterForward struct {
	in      *inputs
	naming  *naming.Server
	nmDone  chan struct{}
	nodes   []*cluster.Node
	apps    []*ledger
	entry   *cluster.Node
	clients []*amrpc.Client
	stubs   []*amrpc.Stub
	methods []int    // caller -> index into clusterMethods
	issued  []uint64 // per caller
	noSync  bool

	convergeS float64
	lagMax    atomic.Uint64
	drainMs   float64
}

// setupCluster starts a naming service and three nodes with the default
// lease and membership timings, waits for ownership to converge, and dials
// every caller to the node that owns neither domain.
func setupCluster(in *inputs, callers int, tr *tracer, noSync bool) (*clusterForward, error) {
	w := &clusterForward{in: in, noSync: noSync, issued: make([]uint64, callers), nmDone: make(chan struct{})}
	nmLn, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	w.naming = naming.NewServer(nil)
	go func() {
		defer close(w.nmDone)
		_ = w.naming.Serve(nmLn) // returns when close() closes the server
	}()
	fail := func(err error) (*clusterForward, error) {
		w.close()
		return nil, err
	}

	started := time.Now()
	for _, id := range clusterNodeIDs {
		app, err := newLedger(callers, callers)
		if err != nil {
			return fail(err)
		}
		node, err := cluster.Start(cluster.Config{
			ID:               id,
			Local:            app.proxy,
			Domains:          clusterDomains,
			Naming:           nmLn.Addr().String(),
			Idempotent:       true,
			DisableStateSync: noSync,
		}, "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		w.apps = append(w.apps, app)
		w.nodes = append(w.nodes, node)
	}
	if err := w.converge(30 * time.Second); err != nil {
		return fail(err)
	}
	w.convergeS = time.Since(started).Seconds()

	for _, n := range w.nodes {
		if len(n.OwnedDomains()) == 0 {
			w.entry = n
			break
		}
	}
	if w.entry == nil {
		return fail(fmt.Errorf("cluster_forward: every node owns a domain"))
	}
	for c := 0; c < callers; c++ {
		cl, err := amrpc.Dial(w.entry.Addr())
		if err != nil {
			return fail(err)
		}
		w.clients = append(w.clients, cl)
		var sopts []amrpc.StubOption
		if tr != nil {
			sopts = append(sopts, amrpc.WithPriority(c+1))
		}
		w.stubs = append(w.stubs, cl.Component(ledgerComponent, sopts...))
		w.methods = append(w.methods, in.methodOrder[c%len(clusterMethods)])
	}
	const warmCalls = 200
	for c := range w.stubs {
		op := w.op(c, nil)
		for i := uint64(0); i < warmCalls; i++ {
			if !op(i) {
				return fail(fmt.Errorf("cluster_forward: warm call %d of caller %d failed", i, c))
			}
		}
		w.issued[c] = warmCalls
	}
	return w, nil
}

// ringOwner returns the index of the node the ring designates for domain.
func ringOwner(ring *naming.Ring, domain string) int {
	id, _ := ring.Owner(domain)
	return slices.Index(clusterNodeIDs, id)
}

// converge waits until every node sees the full membership, every domain
// is owned by exactly the node the ring designates, and (with state sync
// on) each owner's stream has its successor: from then on ownership moves
// only if the membership does.
func (w *clusterForward) converge(timeout time.Duration) error {
	ring := naming.NewRing(0, clusterNodeIDs...)
	deadline := time.Now().Add(timeout)
	for {
		ok := true
		for _, n := range w.nodes {
			if len(n.Status().Members) != len(w.nodes) {
				ok = false
			}
		}
		owned := 0
		for _, n := range w.nodes {
			owned += len(n.OwnedDomains())
		}
		if owned != len(clusterMethods) {
			ok = false
		}
		for _, domain := range clusterDomains {
			owner := w.nodes[ringOwner(ring, domain)]
			if !slices.Contains(owner.OwnedDomains(), domain) {
				ok = false
			}
			if !w.noSync && syncStatusOf(owner, domain).Successor == "" {
				ok = false
			}
		}
		if ok {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster_forward: ownership did not converge in %s", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func syncStatusOf(n *cluster.Node, domain string) cluster.SyncStatus {
	for _, st := range n.SyncStatus() {
		if st.Domain == domain {
			return st
		}
	}
	return cluster.SyncStatus{}
}

func (w *clusterForward) op(c int, tr *tracer) func(i uint64) bool {
	stub := w.stubs[c]
	method := clusterMethods[w.methods[c]]
	ctx := context.Background()
	tickets := w.in.tickets
	call := func(i uint64) bool {
		t := &tickets[i&(numTickets-1)]
		res, err := stub.Invoke(ctx, method, t.open[:1]...)
		return err == nil && res == t.id
	}
	if tr == nil {
		return call
	}
	name := "amrpc.invoke:" + method
	return func(i uint64) bool {
		t0 := time.Now()
		ok := call(i)
		tr.record(c, reqID(c, i), kindOp, -1, name, t0, time.Now())
		return ok
	}
}

func (w *clusterForward) arm(tr *tracer) {
	for _, app := range w.apps {
		app.arm(tr)
	}
}

func (w *clusterForward) run(ph phase, tr *tracer) phaseResult {
	w.arm(tr)
	defer w.arm(nil)
	// The replication lag is sampled while the callers run.
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if !w.noSync {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stop:
					return
				case <-tick.C:
					var lag uint64
					for _, n := range w.nodes {
						for _, st := range n.SyncStatus() {
							if st.Leading {
								lag += st.Lag
							}
						}
					}
					if lag > w.lagMax.Load() {
						w.lagMax.Store(lag)
					}
				}
			}
		}()
	}
	res := runCallers(len(w.stubs), 1, ph, func(c int, rec *recorder) {
		w.issued[c] += rec.drive(c, w.op(c, tr))
	})
	close(stop)
	sampler.Wait()
	return res
}

// sent returns the calls issued per method.
func (w *clusterForward) sent() [2]uint64 {
	var out [2]uint64
	for c, n := range w.issued {
		out[w.methods[c]] += n
	}
	return out
}

// drain waits until each owner's successor holds the owner's whole effect
// log, and records how long that took from the last op.
func (w *clusterForward) drain(timeout time.Duration) error {
	ring := naming.NewRing(0, clusterNodeIDs...)
	start := time.Now()
	for {
		behind := ""
		for _, domain := range clusterDomains {
			st := syncStatusOf(w.nodes[ringOwner(ring, domain)], domain)
			succ := slices.Index(clusterNodeIDs, st.Successor)
			if succ < 0 {
				behind = fmt.Sprintf("domain %s has no successor", domain)
				continue
			}
			if r := syncStatusOf(w.nodes[succ], domain); r.ReplicaSeq != st.LastSeq {
				behind = fmt.Sprintf("domain %s: successor %s at seq %d, owner at %d", domain, st.Successor, r.ReplicaSeq, st.LastSeq)
			}
		}
		if behind == "" {
			w.drainMs = float64(time.Since(start).Microseconds()) / 1e3
			return nil
		}
		if time.Since(start) > timeout {
			return fmt.Errorf("replication did not drain in %s: %s", timeout, behind)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *clusterForward) gate() []string {
	var bad []string
	ring := naming.NewRing(0, clusterNodeIDs...)
	sent := w.sent()
	if !w.noSync {
		if err := w.drain(10 * time.Second); err != nil {
			bad = append(bad, err.Error())
		}
	}
	var total uint64
	for mi, method := range clusterMethods {
		total += sent[mi]
		domain := clusterDomains[method]
		owner := ringOwner(ring, domain)
		for ni, app := range w.apps {
			want := uint64(0)
			if ni == owner {
				want = sent[mi]
			}
			if got := app.posted[mi].Load(); got != want {
				bad = append(bad, fmt.Sprintf("%s executed %d times on %s, want %d", method, got, clusterNodeIDs[ni], want))
			}
		}
		if !w.noSync {
			st := syncStatusOf(w.nodes[owner], domain)
			if st.LastSeq != sent[mi] {
				bad = append(bad, fmt.Sprintf("domain %s: %d effects captured, want %d", domain, st.LastSeq, sent[mi]))
			}
			if st.Overflows != 0 || st.Skipped != 0 {
				bad = append(bad, fmt.Sprintf("domain %s: %d overflows, %d skipped", domain, st.Overflows, st.Skipped))
			}
		}
	}
	for ni, n := range w.nodes {
		st := n.Status()
		if st.StaleRefusals != 0 {
			bad = append(bad, fmt.Sprintf("%s refused %d stale fences", clusterNodeIDs[ni], st.StaleRefusals))
		}
		ms := w.apps[ni].proxy.Moderator().Stats()
		if ms.Admissions != ms.Completions {
			bad = append(bad, fmt.Sprintf("%s: admissions %d != completions %d", clusterNodeIDs[ni], ms.Admissions, ms.Completions))
		}
	}
	if f := w.entry.Status().Forwards; f != total {
		bad = append(bad, fmt.Sprintf("entry node forwarded %d calls, want %d", f, total))
	}
	for c, cl := range w.clients {
		if r := cl.Stats().Retries; r != 0 {
			bad = append(bad, fmt.Sprintf("caller %d retried %d times", c, r))
		}
	}
	return bad
}

func (w *clusterForward) layers(m map[string]float64, _ []span, scale float64) error {
	mods := make([]*moderator.Moderator, len(w.apps))
	for i, app := range w.apps {
		mods[i] = app.proxy.Moderator()
	}
	moderatorCounters(m, mods...)
	// The nodes' servers are not reachable from outside the plane, so the
	// wire counters here are the callers' side only.
	amrpcCounters(m, nil, w.clients)

	var total, forwards, retries, stale uint64
	for _, n := range w.issued {
		total += n
	}
	for _, n := range w.nodes {
		st := n.Status()
		forwards += st.Forwards
		retries += st.ForwardRetries
		stale += st.StaleRefusals
		for _, ss := range st.Replication {
			m["statesync.overflows"] += float64(ss.Overflows)
			m["statesync.skipped"] += float64(ss.Skipped)
			m["statesync.offer_errors"] += float64(ss.OfferErrors)
		}
	}
	if total > 0 {
		m["cluster.forwards_per_call"] = float64(forwards) / float64(total)
	}
	m["cluster.forward_retries"] = float64(retries)
	m["cluster.stale_refusals"] = float64(stale)
	m["cluster.converge_s"] = w.convergeS
	m["statesync.lag_max"] = float64(w.lagMax.Load())
	m["statesync.drain_ms"] = w.drainMs
	return clusterProbes(w, scale, m)
}

func (w *clusterForward) close() {
	for _, cl := range w.clients {
		_ = cl.Close() // the run is over; nothing is in flight
	}
	for _, n := range w.nodes {
		n.Close()
	}
	w.naming.Close()
	<-w.nmDone
}
