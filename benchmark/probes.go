package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/amrpc"
	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
	"repro/internal/naming"
	"repro/internal/obs"
	"repro/internal/statesync"
	"repro/internal/waitq"
)

// probeRounds is the number of timed rounds per probe; the median round is
// reported, so one preempted round does not move the number.
const probeRounds = 9

// scaled shrinks an iteration count for the smoke test; a probe never runs
// fewer than 64 iterations.
func scaled(n int, scale float64) int {
	if n = int(float64(n) * scale); n < 64 {
		n = 64
	}
	return n
}

// nsPerCall times rounds of n calls of fn and returns the median round's
// nanoseconds per call.
func nsPerCall(n int, fn func(i int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// medianCallUs times each of n calls of fn on its own and returns the
// median, in microseconds.
func medianCallUs(n int, fn func(i int) error) (float64, error) {
	us := make([]float64, n)
	for i := range us {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	return median(us), nil
}

// probeInproc prices the in-process layers of one open+assign pair from
// the inside out: bare body, guard hooks, admission, the whole proxy call,
// and the proxy call with observability hooks on.
func probeInproc(in *inputs, scale float64, m map[string]float64) error {
	n := scaled(50000, scale)
	tickets := in.tickets
	ctx := context.Background()
	var firstErr error
	note := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	srv, err := ticket.NewServer(4)
	if err != nil {
		return err
	}
	m["ticket.body_pair_ns"] = nsPerCall(n, func(i int) {
		t := &tickets[i&(numTickets-1)]
		note(srv.Open(ticket.Ticket{ID: t.id, Summary: t.summary}))
		_, err := srv.Assign()
		note(err)
	})

	buf, err := syncguard.NewBuffer(4, ticket.MethodOpen, ticket.MethodAssign)
	if err != nil {
		return err
	}
	producer, consumer := buf.ProducerAspect(), buf.ConsumerAspect()
	openInv := aspect.NewInvocation(ctx, ticket.ComponentName, ticket.MethodOpen, tickets[0].open)
	assignInv := aspect.NewInvocation(ctx, ticket.ComponentName, ticket.MethodAssign, nil)
	m["aspects.guard_pair_ns"] = nsPerCall(n, func(int) {
		ok := producer.Precondition(openInv) == aspect.Resume
		producer.Postaction(openInv)
		ok = ok && consumer.Precondition(assignInv) == aspect.Resume
		consumer.Postaction(assignInv)
		if !ok {
			note(fmt.Errorf("probe: syncguard refused an uncontended pair"))
		}
	})

	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
	if err != nil {
		return err
	}
	mod := g.Moderator()
	m["moderator.admit_pair_ns"] = nsPerCall(n, func(int) {
		adm, err := mod.Preactivation(openInv)
		note(err)
		mod.Postactivation(openInv, adm)
		adm, err = mod.Preactivation(assignInv)
		note(err)
		mod.Postactivation(assignInv, adm)
	})

	pair := func(g *ticket.Guarded) func(int) {
		p := g.Proxy()
		return func(i int) {
			t := &tickets[i&(numTickets-1)]
			_, err := p.Invoke(ctx, ticket.MethodOpen, t.open...)
			note(err)
			_, err = p.Invoke(ctx, ticket.MethodAssign)
			note(err)
		}
	}
	if g, err = ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4}); err != nil {
		return err
	}
	invoke := pair(g)
	m["proxy.invoke_pair_ns"] = nsPerCall(n, invoke)
	m["proxy.self_pair_ns"] = m["proxy.invoke_pair_ns"] - m["moderator.admit_pair_ns"] - m["ticket.body_pair_ns"]
	before := mallocCount()
	for i := 0; i < n; i++ {
		invoke(i)
	}
	m["proxy.allocs_per_pair"] = float64(mallocCount()-before) / float64(n)

	observed, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4, Obs: obs.NewCollector()})
	if err != nil {
		return err
	}
	m["obs.hooks_on_pair_ns"] = nsPerCall(n, pair(observed))
	return firstErr
}

// probeWaitq ping-pongs two goroutines through Queue.Wait/Notify: one
// hand-off is a notify, the peer's wake, and its re-acquisition of the
// shared mutex — the step on every blocking admission's path.
func probeWaitq(_ *inputs, scale float64, m map[string]float64) error {
	n := scaled(20000, scale)
	var mu sync.Mutex
	queues := [2]*waitq.Queue{waitq.New("ping", waitq.FIFO, &mu), waitq.New("pong", waitq.FIFO, &mu)}
	turn := 0
	ctx := context.Background()
	var waitErr error
	player := func(me int) {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n*probeRounds; i++ {
			for turn != me {
				if err := queues[me].Wait(ctx, 0, uint64(i)); err != nil {
					waitErr = err
					return
				}
			}
			turn = 1 - me
			queues[1-me].Notify()
		}
	}
	var wg sync.WaitGroup
	wg.Add(2)
	t0 := time.Now()
	go func() { defer wg.Done(); player(0) }()
	go func() { defer wg.Done(); player(1) }()
	wg.Wait()
	m["waitq.wake_handoff_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(2*n*probeRounds)
	return waitErr
}

// noopComponent answers every call with nothing: a round trip to it is
// amrpc and the loopback alone.
type noopComponent struct{}

func (noopComponent) Name() string                         { return "noop" }
func (noopComponent) Call(*aspect.Invocation) (any, error) { return nil, nil }

func probeAmrpc(in *inputs, scale float64, m map[string]float64) error {
	srv := amrpc.NewServer()
	if err := srv.RegisterComponent(noopComponent{}); err != nil {
		return err
	}
	sv, err := serve(srv)
	if err != nil {
		return err
	}
	defer sv.close()

	dials := scaled(200, scale)
	m["amrpc.dial_us"], err = medianCallUs(dials, func(int) error {
		cl, err := amrpc.Dial(sv.addr)
		if err != nil {
			return err
		}
		return cl.Close()
	})
	if err != nil {
		return err
	}

	cl, err := amrpc.Dial(sv.addr)
	if err != nil {
		return err
	}
	defer cl.Close()
	stub := cl.Component("noop")
	ctx := context.Background()
	small := make([]any, 1)
	rtt := func(arg string, n int) (float64, error) {
		small[0] = arg
		return medianCallUs(n, func(int) error {
			_, err := stub.Invoke(ctx, "nop", small...)
			return err
		})
	}
	// 16 bytes and 1 KiB of the workload's own ticket text.
	var text []byte
	for i := 0; len(text) < 1024; i++ {
		text = append(text, in.tickets[i&(numTickets-1)].summary...)
	}
	n := scaled(10000, scale)
	if _, err = rtt(string(text[:16]), n/10); err != nil { // warm the connection
		return err
	}
	before := mallocCount()
	if m["amrpc.noop_rtt_us"], err = rtt(string(text[:16]), n); err != nil {
		return err
	}
	m["amrpc.allocs_per_call"] = float64(mallocCount()-before) / float64(n)
	m["amrpc.noop_rtt_1k_us"], err = rtt(string(text[:1024]), n)
	return err
}

func probeNaming(_ *inputs, scale float64, m map[string]float64) error {
	ln, err := listenLoopback()
	if err != nil {
		return err
	}
	srv := naming.NewServer(nil)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns when srv.Close is called below
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	nc, err := naming.DialClient(ln.Addr().String())
	if err != nil {
		return err
	}
	defer nc.Close()
	if _, err := nc.AcquireLease("east", "node-a", time.Minute); err != nil {
		return err
	}
	m["naming.lookup_lease_us"], err = medianCallUs(scaled(5000, scale), func(int) error {
		_, err := nc.LookupLease("east")
		return err
	})
	if err != nil {
		return err
	}
	ring := naming.NewRing(0, clusterNodeIDs...)
	domains := [2]string{"east", "west"}
	m["naming.ring_owner_ns"] = nsPerCall(scaled(100000, scale), func(i int) {
		ring.Owner(domains[i&1])
	})
	return nil
}

// ackTransport is the fastest successor possible: it acknowledges every
// offer without leaving the process, so what is timed is statesync alone.
type ackTransport struct{}

func (ackTransport) Offer(_ context.Context, _ string, o statesync.Offer) (statesync.Ack, error) {
	ack := o.SnapSeq
	if n := len(o.Entries); n > 0 {
		ack = o.Entries[n-1].Seq
	}
	return statesync.Ack{Acked: ack}, nil
}

func probeStatesync(in *inputs, scale float64, m map[string]float64) error {
	mgr, err := statesync.NewManager(statesync.Config{Node: "probe", Transport: ackTransport{}, Capacity: 1 << 16})
	if err != nil {
		return err
	}
	mgr.Lead("east", 1)
	mgr.SetSuccessor("east", "sink")
	tickets := in.tickets
	m["statesync.capture_ns"] = nsPerCall(scaled(50000, scale), func(i int) {
		mgr.Capture("east", clusterMethods[0], tickets[i&(numTickets-1)].open[:1])
	})
	mgr.Close()

	// One graceful hand-off of a 512-entry log: forced snapshot, flush,
	// drain to nothing pending.
	snap := func(string) ([]byte, error) { return []byte(`{"ledger":"state"}`), nil }
	rounds := scaled(32, scale) / 2
	us := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		mgr, err := statesync.NewManager(statesync.Config{
			Node: "probe", Transport: ackTransport{}, Snapshot: snap,
			Interval: time.Hour, // only Handoff flushes, never the ticker
		})
		if err != nil {
			return err
		}
		mgr.Lead("east", uint64(r+1))
		mgr.SetSuccessor("east", "succ")
		for i := 0; i < 512; i++ {
			mgr.Capture("east", clusterMethods[0], tickets[i&(numTickets-1)].open[:1])
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		t0 := time.Now()
		_, err = mgr.Handoff(ctx, "east", "succ")
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		cancel()
		mgr.Close()
		if err != nil {
			return err
		}
	}
	m["statesync.handoff_us"] = median(us)
	return nil
}

// clusterProbes prices the forward hop and the replication plane on the
// live cluster, after its gate: the same call from one unloaded
// caller through the entry node and straight at the owner, and the same
// closed loop against a cluster with state sync off.
func clusterProbes(w *clusterForward, scale float64, m map[string]float64) error {
	n := scaled(4000, scale)
	ctx := context.Background()
	method := clusterMethods[w.methods[0]]
	ring := naming.NewRing(0, clusterNodeIDs...)
	owner := w.nodes[ringOwner(ring, clusterDomains[method])]
	tickets := w.in.tickets
	callVia := func(stub *amrpc.Stub) (float64, error) {
		return medianCallUs(n, func(i int) error {
			t := &tickets[i&(numTickets-1)]
			res, err := stub.Invoke(ctx, method, t.open[:1]...)
			if err == nil && res != t.id {
				err = fmt.Errorf("probe: %s echoed %v, want %q", method, res, t.id)
			}
			return err
		})
	}
	direct, err := amrpc.Dial(owner.Addr())
	if err != nil {
		return err
	}
	defer direct.Close()
	viaEntry, err := callVia(w.clients[0].Component(ledgerComponent))
	if err != nil {
		return err
	}
	if m["cluster.owner_direct_us"], err = callVia(direct.Component(ledgerComponent)); err != nil {
		return err
	}
	m["cluster.forward_us"] = viaEntry - m["cluster.owner_direct_us"]

	ab := phase{segments: 5, segLen: time.Duration(float64(500*time.Millisecond) * scale), warmup: time.Duration(float64(250*time.Millisecond) * scale)}
	on := w.run(ab, nil)
	bare, err := setupCluster(w.in, len(w.stubs), nil, true)
	if err != nil {
		return err
	}
	off := bare.run(ab, nil)
	bare.close()
	if on.failed+off.failed > 0 {
		return fmt.Errorf("probe: %d calls failed in the state-sync A/B", on.failed+off.failed)
	}
	if base := median(off.perSegment["throughput_ops_s"]); base > 0 {
		m["statesync.plane_overhead_pct"] = (1 - median(on.perSegment["throughput_ops_s"])/base) * 100
	}
	return nil
}
