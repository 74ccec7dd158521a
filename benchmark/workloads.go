package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/amrpc"
	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/moderator"
)

// instance is one live deployment of a workload.
type instance interface {
	// run drives the workload's closed loop through one phase. With a
	// tracer the harness records a span around each of its calls into a
	// layer; without one the loop is the bare calls.
	run(ph phase, tr *tracer) phaseResult
	// gate checks at quiescence that every op issued since set-up took
	// effect exactly once, and returns what did not hold.
	gate() []string
	// layers fills in the per-layer metrics only this deployment can give:
	// the public counters of the layers it exercises, read at quiescence,
	// what the traced phase's spans say about them, and probes that need
	// the live deployment. It runs after the gate and may issue more ops.
	layers(m map[string]float64, spans []span, scale float64) error
	close()
}

// workload is one entry of the benchmark's workload table. Its op is the
// unit every end-to-end number is stated in.
type workload struct {
	name string
	op   string
	// setups is how many times a run sets the workload up to report the
	// median as setup_s. Cheap set-ups are repeated more often: the first
	// few happen in a process still faulting its heap in, and the median
	// should be of the ones after.
	setups int
	// sites is the number of span-recording sites for a given caller count.
	sites func(callers int) int
	// setup builds the deployment and drives a fixed number of ops through
	// every caller's path, so lazily built state exists before timing. A
	// non-nil tracer deploys the harness-owned spans inside the program's
	// boundary (wrapper component, method body), idle until a traced phase.
	setup func(in *inputs, callers int, tr *tracer) (instance, error)
	// probes are the isolated probes of the layers that carry this
	// workload's load. Each probe has one home, so a set measures it once;
	// its metrics read 0 on the other workloads. Probes that need the live
	// deployment are part of instance.layers.
	probes []probe
}

// A probe is an isolated call sequence into one layer's public API, fed
// the workload's own inputs. Probes run after the workload's phases, on an
// otherwise idle process.
type probe func(in *inputs, scale float64, m map[string]float64) error

// pipelineDepth is the number of calls rpc_pipelined keeps in flight on
// its one connection.
const pipelineDepth = 16

var workloads = []workload{
	{
		name:   "inproc_fast",
		op:     "one open + one assign through Proxy.Invoke",
		setups: 101,
		sites:  func(callers int) int { return callers },
		setup:  setupInprocFast,
		probes: []probe{probeInproc},
	},
	{
		name:   "inproc_handoff",
		op:     "one open by the producer and its assign by the consumer",
		setups: 101,
		sites:  func(int) int { return 2 },
		setup:  setupInprocHandoff,
		probes: []probe{probeWaitq},
	},
	{
		name:   "rpc_sequential",
		op:     "one open + one assign, two round trips on the caller's own connection",
		setups: 31,
		sites:  func(callers int) int { return 2 * callers },
		setup: func(in *inputs, callers int, tr *tracer) (instance, error) {
			return setupRPCTicket(in, tr, 64, callers, 1, 200)
		},
		probes: []probe{probeAmrpc},
	},
	{
		name:   "rpc_pipelined",
		op:     "one open + one assign, two round trips on the shared connection",
		setups: 31,
		sites:  func(int) int { return 2 * pipelineDepth },
		setup: func(in *inputs, _ int, tr *tracer) (instance, error) {
			return setupRPCTicket(in, tr, 4, 1, pipelineDepth, 25,
				amrpc.WithMaxConcurrentPerConn(64))
		},
	},
	{
		name:   "cluster_forward",
		op:     "one call: client -> non-owner node -> fenced forward -> owner -> replicated effect",
		setups: 3,
		sites:  func(callers int) int { return 2 * callers },
		setup: func(in *inputs, callers int, tr *tracer) (instance, error) {
			return setupCluster(in, callers, tr, false)
		},
		probes: []probe{probeNaming, probeStatesync},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runCallers starts n callers on a fresh recorder (one clock read per
// batch ops), waits for all of them, and reduces the phase.
func runCallers(n, batch int, ph phase, caller func(c int, rec *recorder)) phaseResult {
	rec := newRecorder(n, batch, ph)
	var wg sync.WaitGroup
	rec.begin()
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			caller(c, rec)
		}(c)
	}
	wg.Wait()
	return rec.finish()
}

// inprocBatch is the number of in-process ops one clock read covers: a
// clock read per op would be 10-20 % of a sub-microsecond op.
const inprocBatch = 64

// ---------------------------------------------------------------- inproc_fast

type inprocFast struct {
	in     *inputs
	gs     []*ticket.Guarded
	issued []uint64 // pairs issued per caller; each written by its caller only
}

func setupInprocFast(in *inputs, callers int, _ *tracer) (instance, error) {
	w := &inprocFast{in: in, issued: make([]uint64, callers)}
	for c := 0; c < callers; c++ {
		g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
		if err != nil {
			return nil, err
		}
		w.gs = append(w.gs, g)
	}
	const warmPairs = 2000
	for c := range w.gs {
		op := w.op(c, nil)
		for i := uint64(0); i < warmPairs; i++ {
			if !op(i) {
				return nil, fmt.Errorf("inproc_fast: warm pair %d of caller %d failed", i, c)
			}
		}
		w.issued[c] = warmPairs
	}
	return w, nil
}

// ticketCalls returns the two halves of a pair on an in-process guarded
// ticket service: open places t, assign must return exactly t.
func ticketCalls(g *ticket.Guarded) (open, assign func(t *ticketIn) bool) {
	p := g.Proxy()
	ctx := context.Background()
	open = func(t *ticketIn) bool {
		_, err := p.Invoke(ctx, ticket.MethodOpen, t.open...)
		return err == nil
	}
	assign = func(t *ticketIn) bool {
		res, err := p.Invoke(ctx, ticket.MethodAssign)
		if err != nil {
			return false
		}
		got, ok := res.(ticket.Ticket)
		return ok && got.ID == t.id && got.Summary == t.summary
	}
	return open, assign
}

func (w *inprocFast) op(c int, tr *tracer) func(i uint64) bool {
	open, assign := ticketCalls(w.gs[c])
	tickets := w.in.tickets
	if tr == nil {
		return func(i uint64) bool {
			t := &tickets[i&(numTickets-1)]
			return open(t) && assign(t)
		}
	}
	return func(i uint64) bool {
		t := &tickets[i&(numTickets-1)]
		t0 := time.Now()
		ok := open(t)
		t1 := time.Now()
		ok = ok && assign(t)
		t2 := time.Now()
		req := reqID(c, i)
		tr.record(c, req, kindFirst, kindOp, "proxy.invoke:open", t0, t1)
		tr.record(c, req, kindSecond, kindOp, "proxy.invoke:assign", t1, t2)
		tr.record(c, req, kindOp, -1, "op:inproc_fast", t0, t2)
		return ok
	}
}

func (w *inprocFast) run(ph phase, tr *tracer) phaseResult {
	return runCallers(len(w.gs), inprocBatch, ph, func(c int, rec *recorder) {
		w.issued[c] += rec.drive(c, w.op(c, tr))
	})
}

func (w *inprocFast) gate() []string {
	var bad []string
	for c, g := range w.gs {
		bad = append(bad, ticketGate(fmt.Sprintf("caller %d", c), g, w.issued[c])...)
	}
	return bad
}

func (w *inprocFast) layers(m map[string]float64, _ []span, _ float64) error {
	mods := make([]*moderator.Moderator, len(w.gs))
	for i, g := range w.gs {
		mods[i] = g.Moderator()
	}
	moderatorCounters(m, mods...)
	return nil
}

func (w *inprocFast) close() {}

// ticketGate is the quiescence check of one guarded ticket service that
// has served `pairs` opens and as many assigns.
func ticketGate(who string, g *ticket.Guarded, pairs uint64) []string {
	var bad []string
	st := g.Moderator().Stats()
	if st.Admissions != st.Completions {
		bad = append(bad, fmt.Sprintf("%s: admissions %d != completions %d", who, st.Admissions, st.Completions))
	}
	if st.Admissions != 2*pairs {
		bad = append(bad, fmt.Sprintf("%s: admissions %d, want %d (two per pair)", who, st.Admissions, 2*pairs))
	}
	if n := g.Server().Size(); n != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d tickets left in the buffer", who, n))
	}
	if o, a := g.Server().Opened(), g.Server().Assigned(); o != pairs || a != pairs {
		bad = append(bad, fmt.Sprintf("%s: opened %d assigned %d, want %d each", who, o, a, pairs))
	}
	return bad
}

// ------------------------------------------------------------- inproc_handoff

type inprocHandoff struct {
	in     *inputs
	g      *ticket.Guarded
	issued uint64 // ops (open + its assign) issued; written between phases only
}

func setupInprocHandoff(in *inputs, _ int, _ *tracer) (instance, error) {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 1})
	if err != nil {
		return nil, err
	}
	w := &inprocHandoff{in: in, g: g}
	const warmOps = 2000
	if failed := w.pump(warmOps, nil); failed != 0 {
		return nil, fmt.Errorf("inproc_handoff: %d of %d warm ops failed", failed, warmOps)
	}
	return w, nil
}

// ops returns the producer's and the consumer's side of an op. With a
// one-slot buffer the i-th assign returns the i-th ticket opened, so the
// consumer checks the exact sequence.
func (w *inprocHandoff) ops(tr *tracer) (produce, consume func(i uint64) bool) {
	open, assign := ticketCalls(w.g)
	tickets := w.in.tickets
	produce = func(i uint64) bool { return open(&tickets[i&(numTickets-1)]) }
	consume = func(i uint64) bool { return assign(&tickets[i&(numTickets-1)]) }
	if tr == nil {
		return produce, consume
	}
	spanned := func(site, kind int, name string, op func(uint64) bool) func(uint64) bool {
		return func(i uint64) bool {
			t0 := time.Now()
			ok := op(i)
			tr.record(site, reqID(0, i), kind, -1, name, t0, time.Now())
			return ok
		}
	}
	return spanned(0, kindFirst, "proxy.invoke:open", produce),
		spanned(1, kindSecond, "proxy.invoke:assign", consume)
}

// pump drives n balanced ops outside any recorder (warm-up, calibration)
// and returns how many failed.
func (w *inprocHandoff) pump(n uint64, tr *tracer) (failed uint64) {
	produce, consume := w.ops(tr)
	var pf, cf uint64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			if !produce(i) {
				pf++
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := uint64(0); i < n; i++ {
			if !consume(i) {
				cf++
			}
		}
	}()
	wg.Wait()
	w.issued += n
	return pf + cf
}

func (w *inprocHandoff) run(ph phase, tr *tracer) phaseResult {
	// Both sides must issue the same number of ops or the longer one parks
	// for ever, so the phase is laid out in ops, not seconds: a calibration
	// burst gives the rate, and the rate turns the warm-up and the segment
	// length into counts.
	const calibOps = 256 * inprocBatch
	t0 := time.Now()
	calibFailed := w.pump(calibOps, tr)
	rate := calibOps / time.Since(t0).Seconds()
	count := func(d time.Duration) uint64 {
		n := uint64(rate*d.Seconds()) / inprocBatch * inprocBatch
		if n < inprocBatch {
			n = inprocBatch
		}
		return n
	}
	warmOps, segOps := count(ph.warmup), count(ph.segLen)
	if ph.warmup <= 0 {
		warmOps = 0
	}
	produce, consume := w.ops(tr)
	res := runCallers(2, inprocBatch, ph, func(c int, rec *recorder) {
		if c == 0 {
			rec.driveCounted(0, warmOps, segOps, true, produce)
		} else {
			rec.driveCounted(1, warmOps, segOps, false, consume)
		}
	})
	res.failed += calibFailed
	w.issued += warmOps + segOps*uint64(ph.segments)
	return res
}

func (w *inprocHandoff) gate() []string { return ticketGate("handoff", w.g, w.issued) }

func (w *inprocHandoff) layers(m map[string]float64, _ []span, _ float64) error {
	moderatorCounters(m, w.g.Moderator())
	return nil
}

func (w *inprocHandoff) close() {}

// ------------------------------------------------- rpc_sequential, rpc_pipelined

// serverSpans is the server side of a traced deployment: the state a
// harness-owned hook inside the program's boundary needs to tie its span
// to the caller's. No id crosses the wire yet, so a traced deployment marks
// each caller's stub with amrpc.WithPriority(caller+1) — inert under the
// default FIFO wake policy, forwarded by the cluster router — and, as each
// caller has one call in flight, the n-th call seen for a caller is its
// n-th call.
type serverSpans struct {
	tr       atomic.Pointer[tracer]
	siteBase int
	calls    []atomic.Uint64 // per caller, since the traced phase began
}

// arm switches span recording on (from call zero) or off, at quiescence.
func (s *serverSpans) arm(tr *tracer) {
	for i := range s.calls {
		s.calls[i].Store(0)
	}
	s.tr.Store(tr)
}

// next says whether the call carrying inv is traced and, if so, where its
// span goes and which of its caller's calls it is.
func (s *serverSpans) next(inv *aspect.Invocation) (tr *tracer, site, caller int, n uint64) {
	tr = s.tr.Load()
	caller = inv.Priority - 1
	if tr == nil || caller < 0 || caller >= len(s.calls) {
		return nil, 0, 0, 0
	}
	return tr, s.siteBase + caller, caller, s.calls[caller].Add(1) - 1
}

// tracedComponent is the harness-owned wrapper the traced deployments
// register with the amrpc server in place of the proxy: the span it
// records around Proxy.Call is everything below the transport (proxy,
// admission, park, body), so the client span minus it is amrpc's own time.
type tracedComponent struct {
	inner amrpc.Component
	serverSpans
}

func (t *tracedComponent) Name() string { return t.inner.Name() }

func (t *tracedComponent) Call(inv *aspect.Invocation) (any, error) {
	tr, site, c, n := t.next(inv)
	if tr == nil {
		return t.inner.Call(inv)
	}
	t0 := time.Now()
	res, err := t.inner.Call(inv)
	t1 := time.Now()
	if n%2 == 0 {
		tr.record(site, reqID(c, n/2), kindInFirst, kindFirst, "component.call:open", t0, t1)
	} else {
		tr.record(site, reqID(c, n/2), kindInSecond, kindSecond, "component.call:assign", t0, t1)
	}
	return res, err
}

// served is an amrpc server on a loopback port and the goroutine
// accepting for it.
type served struct {
	srv  *amrpc.Server
	addr string
	done chan struct{}
}

func serve(srv *amrpc.Server) (*served, error) {
	ln, err := listenLoopback()
	if err != nil {
		return nil, err
	}
	s := &served{srv: srv, addr: ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		_ = srv.Serve(ln) // returns when close() closes the server
	}()
	return s, nil
}

func (s *served) close() {
	s.srv.Close()
	<-s.done
}

type rpcTicket struct {
	in      *inputs
	g       *ticket.Guarded
	server  *served
	clients []*amrpc.Client
	stubs   []*amrpc.Stub // one per caller
	comp    *tracedComponent
	issued  []uint64
}

// setupRPCTicket deploys one guarded ticket service behind amrpc on
// loopback TCP, dialled by conns connections carrying perConn callers each.
func setupRPCTicket(in *inputs, tr *tracer, capacity, conns, perConn, warmPairs int, opts ...amrpc.ServerOption) (instance, error) {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: capacity})
	if err != nil {
		return nil, err
	}
	callers := conns * perConn
	w := &rpcTicket{in: in, g: g, issued: make([]uint64, callers)}
	srv := amrpc.NewServer(opts...)
	if tr == nil {
		err = srv.Register(g.Proxy())
	} else {
		w.comp = &tracedComponent{inner: g.Proxy(), serverSpans: serverSpans{siteBase: callers, calls: make([]atomic.Uint64, callers)}}
		err = srv.RegisterComponent(w.comp)
	}
	if err != nil {
		return nil, err
	}
	if w.server, err = serve(srv); err != nil {
		return nil, err
	}
	for i := 0; i < conns; i++ {
		cl, err := amrpc.Dial(w.server.addr)
		if err != nil {
			w.close()
			return nil, err
		}
		w.clients = append(w.clients, cl)
		for j := 0; j < perConn; j++ {
			var sopts []amrpc.StubOption
			if tr != nil {
				sopts = append(sopts, amrpc.WithPriority(len(w.stubs)+1))
			}
			w.stubs = append(w.stubs, cl.Component(ticket.ComponentName, sopts...))
		}
	}
	errs := make(chan error, callers)
	for c := range w.stubs {
		go func(c int) {
			op := w.op(c, nil)
			for i := 0; i < warmPairs; i++ {
				if !op(uint64(i)) {
					errs <- fmt.Errorf("rpc: warm pair %d of caller %d failed", i, c)
					return
				}
			}
			w.issued[c] = uint64(warmPairs)
			errs <- nil
		}(c)
	}
	for range w.stubs {
		if e := <-errs; e != nil && err == nil {
			err = e
		}
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *rpcTicket) op(c int, tr *tracer) func(i uint64) bool {
	stub := w.stubs[c]
	ctx := context.Background()
	tickets, byID := w.in.tickets, w.in.byID
	// Callers share the buffer, so an assign may return another caller's
	// ticket: the check is that it is one of the generated tickets, intact.
	open := func(i uint64) bool {
		_, err := stub.Invoke(ctx, ticket.MethodOpen, tickets[i&(numTickets-1)].open...)
		return err == nil
	}
	assign := func() bool {
		res, err := stub.Invoke(ctx, ticket.MethodAssign)
		if err != nil {
			return false
		}
		got, ok := res.(map[string]any)
		if !ok {
			return false
		}
		id, _ := got["id"].(string)
		want, known := byID[id]
		return known && got["summary"] == want
	}
	if tr == nil {
		return func(i uint64) bool { return open(i) && assign() }
	}
	return func(i uint64) bool {
		t0 := time.Now()
		ok := open(i)
		t1 := time.Now()
		ok = ok && assign()
		t2 := time.Now()
		req := reqID(c, i)
		tr.record(c, req, kindFirst, kindOp, "amrpc.invoke:open", t0, t1)
		tr.record(c, req, kindSecond, kindOp, "amrpc.invoke:assign", t1, t2)
		tr.record(c, req, kindOp, -1, "op:rpc_pair", t0, t2)
		return ok
	}
}

func (w *rpcTicket) run(ph phase, tr *tracer) phaseResult {
	if w.comp != nil {
		w.comp.arm(tr)
		defer w.comp.arm(nil)
	}
	// A caller that stops after a whole pair strands nobody: its own open
	// precedes its own assign, so the buffer never holds fewer tickets
	// than there are assigns outstanding.
	return runCallers(len(w.stubs), 1, ph, func(c int, rec *recorder) {
		w.issued[c] += rec.drive(c, w.op(c, tr))
	})
}

func (w *rpcTicket) gate() []string {
	var pairs uint64
	for _, n := range w.issued {
		pairs += n
	}
	bad := ticketGate("rpc", w.g, pairs)
	ss := w.server.srv.Stats()
	if ss.Requests != 2*pairs {
		bad = append(bad, fmt.Sprintf("rpc: server saw %d requests, want %d", ss.Requests, 2*pairs))
	}
	return bad
}

func (w *rpcTicket) layers(m map[string]float64, spans []span, _ float64) error {
	moderatorCounters(m, w.g.Moderator())
	amrpcCounters(m, []amrpc.ServerStats{w.server.srv.Stats()}, w.clients)
	// Each client span's child is the wrapper component's span of the same
	// call: the child is everything below the transport, the rest is amrpc.
	m["trace.client_span_us"], m["amrpc.self_us"], m["amrpc.component_us"] =
		selfAndChild(spans, map[int]int{kindFirst: kindInFirst, kindSecond: kindInSecond})
	return nil
}

func (w *rpcTicket) close() {
	for _, cl := range w.clients {
		_ = cl.Close() // the run is over; nothing is in flight
	}
	if w.server != nil {
		w.server.close()
	}
}

// ------------------------------------------------------------ layer counters

// moderatorCounters reads the admission counters of one or more moderators
// (summed) into the moderator.* and waitq.* layer metrics.
func moderatorCounters(m map[string]float64, mods ...*moderator.Moderator) {
	var st moderator.Stats
	var opt moderator.OptimisticStats
	var ring moderator.RingStats
	var waits, notifies, broadcasts, cancels uint64
	for _, mod := range mods {
		s := mod.Stats()
		st.Admissions += s.Admissions
		st.Blocks += s.Blocks
		st.Completions += s.Completions
		o := mod.OptimisticStats()
		opt.Admits += o.Admits
		opt.Fallbacks += o.Fallbacks
		opt.Conflicts += o.Conflicts
		r := mod.RingStats()
		ring.Submitted += r.Submitted
		ring.Batches += r.Batches
		ring.BatchedOps += r.BatchedOps
		ring.Parks += r.Parks
		ring.FullFallbacks += r.FullFallbacks
		ring.MutexBypasses += r.MutexBypasses
		for _, q := range mod.QueueStats() {
			waits += q.Waits
			notifies += q.Notifies
			broadcasts += q.Broadcasts
			cancels += q.Cancels
		}
	}
	share := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	m["moderator.blocks_per_admission"] = share(st.Blocks, st.Admissions)
	m["moderator.optimistic_share"] = share(opt.Admits, st.Admissions)
	m["moderator.optimistic_fallback_share"] = share(opt.Fallbacks+opt.Conflicts, st.Admissions)
	m["moderator.ring_submit_share"] = share(ring.Submitted, st.Admissions)
	m["moderator.ring_mean_batch"] = share(ring.BatchedOps, ring.Batches)
	m["moderator.ring_parks"] = float64(ring.Parks)
	m["moderator.ring_full_fallbacks"] = float64(ring.FullFallbacks)
	m["moderator.mutex_bypass_share"] = share(ring.MutexBypasses, st.Admissions)
	m["moderator.lost"] = float64(st.Admissions) - float64(st.Completions)
	m["waitq.waits"] = float64(waits)
	m["waitq.notifies"] = float64(notifies)
	m["waitq.broadcasts"] = float64(broadcasts)
	m["waitq.cancels"] = float64(cancels)
	m["waitq.reblocks_per_wait"] = share(st.Blocks, waits)
}

// amrpcCounters reads the wire counters of the servers and clients a
// workload ran (summed) into the amrpc.* layer metrics.
func amrpcCounters(m map[string]float64, servers []amrpc.ServerStats, clients []*amrpc.Client) {
	var s amrpc.ServerStats
	for _, x := range servers {
		s.Requests += x.Requests
		s.ChecksumDrops += x.ChecksumDrops
		s.Malformed += x.Malformed
		s.ErrorReplies += x.ErrorReplies
		s.Queued += x.Queued
		s.Rejected += x.Rejected
		s.Sheds += x.Sheds
		s.Flushes += x.Flushes
		s.FlushFrames += x.FlushFrames
	}
	if s.Flushes > 0 {
		m["amrpc.frames_per_flush"] = float64(s.FlushFrames) / float64(s.Flushes)
	}
	if s.Requests > 0 {
		m["amrpc.queued_share"] = float64(s.Queued) / float64(s.Requests)
	}
	m["amrpc.rejected"] = float64(s.Rejected)
	m["amrpc.sheds"] = float64(s.Sheds)
	m["amrpc.checksum_drops"] = float64(s.ChecksumDrops)
	m["amrpc.malformed"] = float64(s.Malformed)
	m["amrpc.error_replies"] = float64(s.ErrorReplies)
	var retries, transport, reconnects uint64
	for _, cl := range clients {
		cs := cl.Stats()
		retries += cs.Retries
		transport += cs.TransportErrors
		reconnects += cs.Reconnects
	}
	m["amrpc.client_retries"] = float64(retries)
	m["amrpc.client_transport_errors"] = float64(transport)
	m["amrpc.reconnects"] = float64(reconnects)
}
