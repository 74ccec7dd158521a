// Batched admission: per-domain submission rings drained flat-combining
// style, amortizing the domain mutex across a whole batch of contended
// guarded invocations.
//
// The admission ladder so far: a pure plan runs with no lock at all
// (preactivateFast), and a guarded-but-uncontended plan runs under the
// domain's seqlock guard cell alone (preactivateOptimistic). What remains
// is the genuinely contended case — waiters parked, or the cell lost to a
// concurrent admission — where before this file every caller serialized on
// the domain mutex: one lock acquisition, one guard-state evaluation, and
// one wake fan-out per invocation.
//
// A submission ring turns that serialization into batching. A contended
// caller enqueues a ringOp into its domain's bounded MPSC ring and
// spin-waits for a verdict. The first enqueuer to win the domain's
// draining flag becomes the drainer: it collects everything in the ring,
// acquires the domain mutex ONCE, takes the guard cell ONCE, evaluates
// every batched precondition stack and runs every batched postaction
// against that single guard-state access, coalesces the batch's wake
// obligations into one fan-out pass, and publishes per-op verdicts back
// through the slots. Everyone else in the batch gets mutex-path semantics
// for the price of two atomic operations and a short spin.
//
// # Observable equivalence
//
// The drainer holds exactly the locks the mutex path holds (d.mu, then
// d.cell) while running exactly the hooks the mutex path would run, in a
// serial order (ring order), so any guarded plan — including plans whose
// wake span crosses domains — batches safely:
//
//   - An admitted pre-op increments d.admissions and returns a receipt,
//     exactly as preactivateMutex would.
//   - An aborted pre-op rolls back admitted prefixes in reverse, counts
//     d.aborts, and carries the byte-identical error.
//   - A Block verdict cannot park inside the drainer (the drainer is some
//     other caller's goroutine), so it reuses the optimistic path's
//     verdict handoff: roll back the layer, pre-register the waiter in
//     m.waiters while still holding the cell (the anti-stranding
//     invariant), and hand an optResume — stamped with the batch's
//     post-release cell sequence — back to the submitter, which parks via
//     preactivateMutex without re-running the layer's hooks when the
//     sequence proves no guard state moved in between. d.blocks is
//     counted at the actual park, as on every other path.
//   - A post-op runs its postactions under the cell in reverse admission
//     order; its wake obligation is deferred into the batch accumulator.
//
// Coalescing the wake pass is sound because woken waiters cannot act
// early: a waiter returns from waitq.Wait only after reacquiring the
// domain mutex, which the drainer holds until the local pass is done — so
// k broadcasts of one queue inside a single mutex hold are
// indistinguishable from one, and every waiter observes the batch's FINAL
// guard state, never an intermediate one. WakeSingle mode is the one case
// where the count itself is semantics (each completion frees capacity for
// exactly one waiter), so there the accumulator preserves multiplicity
// via waitq.NotifyN. Foreign-domain targets are woken after the local
// mutex is released, one domain at a time — the same no-two-mutexes
// discipline as the mutex path.
//
// # Contention gate
//
// Combining pays only when the caller would otherwise block: handing an op
// to a drainer trades one mutex acquisition for a cross-goroutine round
// trip (enqueue, election or spin, publish), which is a net loss whenever
// the mutex would have been free. So a ring-eligible caller first probes
// the domain mutex with TryLock (in preactivatePlan/Postactivation, before
// enqueueing). A successful probe means the lock is uncontended RIGHT NOW
// — keep it and enter the mutex path with the acquisition already paid;
// releasing it to re-lock would wake a mutex waiter only to out-race it,
// and a waiter that keeps losing flips the mutex into starvation mode. A
// failed probe means some holder (often a drainer mid-batch) is inside —
// enqueue, because the wait is being paid either way and batching amortizes
// it. The gate makes batch formation self-reinforcing exactly under
// contention: the drainer holds the mutex for the whole batch, so
// concurrent arrivals fail their probes and join the next batch. On a host
// where the mutex never backs up (one processor, or low guarded traffic),
// the probe keeps the ring out of the way entirely.
// WithRingContentionGate(false) restores unconditional routing for the
// deterministic schedulers and the differential oracle.
//
// # Liveness
//
// Submitters never block while holding anything: they spin on their op's
// published flag (tight, then yielding), re-attempting the drainer
// election on every iteration, and past the spin budget they park on the
// op's one-buffered future channel — on an oversubscribed host a
// yield-forever submitter would occupy a kernel thread and convoy the very
// drain it waits on. The classic flat-combining stranding window — an op
// enqueued after the drainer's scan but before the flag release, whose
// submitter may already be parked — is closed on the release side: every
// drainer re-checks the ring after dropping the flag and re-elects itself
// if anything arrived (drainAndRelease); a submitter still spinning closes
// it from its side by self-electing. A full ring falls back to the mutex
// path, so the ring bounds memory, never admission.
package moderator

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/aspect"
	"repro/internal/waitq"
)

// ringSize bounds one domain's submission ring. Deeper than any plausible
// batch (the drainer runs as soon as the flag is free, so batches grow
// only while a drain is in progress), small enough that a full ring — the
// mutex-path spillover — signals real overload to Pressure.
const ringSize = 256

// ringSpinBudget bounds a submitter's tight polling iterations before it
// starts yielding the processor between election attempts.
const ringSpinBudget = 64

// ringBuckets is the number of power-of-two batch-size histogram buckets:
// bucket i counts batches of size in [2^i, 2^(i+1)), the last bucket is
// open-ended.
const ringBuckets = 9

type ringOpKind uint8

const (
	ringPre ringOpKind = iota + 1
	ringPost
)

// ringOp is one batched operation: a pre-activation awaiting a verdict or
// a post-activation awaiting its postactions and wake obligation. The
// submitter owns the op before enqueue and after observing state == 1;
// the drainer owns it in between. state's Store/Load pair orders the
// verdict fields, so no other synchronization is needed.
type ringOp struct {
	kind ringOpKind
	inv  *aspect.Invocation
	plan *compiledPlan
	// adm carries the receipt: in for post-ops, out for admitted pre-ops.
	adm *Admission
	// err is an aborted pre-op's error.
	err error
	// resume is a blocked pre-op's verdict handoff (see optimistic.go).
	resume *optResume
	// state is 0 while pending, 1 once the drainer has published the
	// verdict fields above, 2 while the submitter sleeps on wake (set by
	// the submitter after its spin phase; the publisher that swaps a 2 owes
	// one token on wake).
	state atomic.Uint32
	// wake is the op's future: one-buffered so the publisher never blocks,
	// empty whenever the op is in the pool (a token is sent only to a
	// submitter that already committed to receiving it).
	wake chan struct{}
}

var ringOpPool = sync.Pool{New: func() any { return &ringOp{wake: make(chan struct{}, 1)} }}

func (op *ringOp) publish() {
	if op.state.Swap(1) == 2 {
		op.wake <- struct{}{}
	}
}

func putRingOp(op *ringOp) {
	op.kind, op.inv, op.plan, op.adm, op.err, op.resume = 0, nil, nil, nil, nil, nil
	op.state.Store(0)
	ringOpPool.Put(op)
}

// submitRing is one domain's bounded MPSC submission ring plus the
// drainer's scratch state and the batching counters. Producers contend
// only on tail; head is written by the drainer alone; the draining flag
// elects at most one drainer at a time, which is also what guards the
// scratch slices and the accumulator.
type submitRing struct {
	slots [ringSize]atomic.Pointer[ringOp]

	_        [64]byte // pad: slots vs producer word
	tail     atomic.Uint64
	_        [64]byte // pad: producer word vs drainer word
	head     atomic.Uint64
	_        [64]byte // pad: drainer word vs election word
	draining atomic.Uint32
	_        [64]byte // pad: election word vs counters

	// Producer-written counters.
	submitted     atomic.Uint64
	fullFallbacks atomic.Uint64
	bypasses      atomic.Uint64

	// Drainer-written counters (atomic only so RingStats can read them
	// without the flag).
	batches    atomic.Uint64
	batchedOps atomic.Uint64
	maxBatch   atomic.Uint64
	preOps     atomic.Uint64
	postOps    atomic.Uint64
	parks      atomic.Uint64
	wakePasses atomic.Uint64
	buckets    [ringBuckets]atomic.Uint64

	// Drainer-only scratch, guarded by the draining flag.
	scratch []*ringOp
	blocked []*ringOp
	posts   []*ringOp
	acc     wakeAcc
}

func newSubmitRing() *submitRing {
	return &submitRing{
		scratch: make([]*ringOp, 0, ringSize),
		blocked: make([]*ringOp, 0, 16),
		posts:   make([]*ringOp, 0, ringSize),
	}
}

// depth returns the number of enqueued-but-undrained ops. The two loads
// race benignly; the result is advisory (Pressure, obs).
func (r *submitRing) depth() int64 {
	d := int64(r.tail.Load()) - int64(r.head.Load())
	if d < 0 {
		return 0
	}
	return d
}

// enqueue reserves a slot by CAS on tail and publishes the op into it.
// It reports false when the ring is full (the stale-head read can only
// under-estimate free space, so a false full is possible under extreme
// churn but a torn enqueue is not).
func (r *submitRing) enqueue(op *ringOp) bool {
	for {
		t := r.tail.Load()
		if t-r.head.Load() >= ringSize {
			return false
		}
		if r.tail.CompareAndSwap(t, t+1) {
			r.slots[t%ringSize].Store(op)
			return true
		}
	}
}

// wakeAcc accumulates one batch's wake obligations: per-method completion
// counts for targeted plans (insertion-ordered, so the pass is
// deterministic for a given batch) and a count of untargeted completions,
// each of which owes the conservative everything-broadcast.
type wakeAcc struct {
	methods      []string
	counts       []int
	conservative int
}

func (a *wakeAcc) reset() {
	a.methods = a.methods[:0]
	a.counts = a.counts[:0]
	a.conservative = 0
}

func (a *wakeAcc) empty() bool { return len(a.methods) == 0 && a.conservative == 0 }

func (a *wakeAcc) addPlan(plan *compiledPlan) {
	if !plan.targeted {
		a.conservative++
		return
	}
	for _, t := range plan.wakeTargets {
		found := false
		for i, m := range a.methods {
			if m == t {
				a.counts[i]++
				found = true
				break
			}
		}
		if !found {
			a.methods = append(a.methods, t)
			a.counts = append(a.counts, 1)
		}
	}
}

// wakeQueueLockedN delivers one queue's share of a coalesced wake pass
// covering n completions. Broadcast mode needs one broadcast no matter
// how many completions the batch held; WakeSingle preserves the count,
// because there each completion's single wake-up IS the capacity signal.
func wakeQueueLockedN(q *waitq.Queue, mode WakeMode, n int) {
	if mode == WakeSingle {
		q.NotifyN(n)
	} else {
		q.Broadcast()
	}
}

// wakeMethodLockedN wakes one method's queues for n coalesced
// completions. The domain's mutex must be held.
func wakeMethodLockedN(d *domain, method string, mode WakeMode, n int) {
	for k, q := range d.queues {
		if k.method == method {
			wakeQueueLockedN(q, mode, n)
		}
	}
}

// preactivateRing batches one contended guarded pre-activation through the
// domain's submission ring. The caller has already checked tb == nil,
// m.opts.batched, and !plan.pure. The final return reports whether the
// attempt was terminal: if false with a non-nil resume, the drainer hit a
// Block verdict and the caller must park via preactivateMutex carrying it;
// if false with a nil resume, the ring was full and the caller falls back
// to the plain mutex path. The contention probe runs at the call site,
// before this function.
func (m *Moderator) preactivateRing(cs *compState, inv *aspect.Invocation, plan *compiledPlan, d *domain, sh *Shadow) (*Admission, error, *optResume, bool) {
	r := d.ring
	op := ringOpPool.Get().(*ringOp)
	op.kind, op.inv, op.plan = ringPre, inv, plan
	if !r.enqueue(op) {
		putRingOp(op)
		r.fullFallbacks.Add(1)
		return nil, nil, nil, false
	}
	r.submitted.Add(1)
	m.awaitRingOp(d, r, op)
	adm, err, resume := op.adm, op.err, op.resume
	putRingOp(op)
	if resume != nil {
		return nil, nil, resume, false
	}
	if sh != nil {
		sh.observe(cs, plan, inv, err == nil)
	}
	return adm, err, nil, true
}

// postactivateRing batches one contended guarded post-activation. It
// reports false (ring full) when the caller must complete via the mutex
// path instead; on true the receipt has been consumed and the wake
// obligation discharged. The contention probe runs at the call site,
// before this function.
func (m *Moderator) postactivateRing(inv *aspect.Invocation, adm *Admission, d *domain) bool {
	r := d.ring
	op := ringOpPool.Get().(*ringOp)
	op.kind, op.inv, op.plan, op.adm = ringPost, inv, adm.plan, adm
	if !r.enqueue(op) {
		putRingOp(op)
		r.fullFallbacks.Add(1)
		return false
	}
	r.submitted.Add(1)
	m.awaitRingOp(d, r, op)
	putRingOp(op)
	return true
}

// awaitRingOp waits for op's verdict: a tight spin, then a yielding spin,
// then a real park on the op's future. Winning the drainer election at any
// point guarantees the op is published: the op was enqueued before the
// attempt, the flag excludes concurrent drainers, and drainRing consumes
// everything up to the tail it observes after the win.
//
// The park matters when the host oversubscribes processors (GOMAXPROCS
// above the core count, or a loaded machine): a submitter that only ever
// yields occupies a kernel thread, and the kernel time-slices it against
// whatever preempted holder the drain is stuck behind — millisecond
// convoys from a microsecond critical section. A parked submitter costs
// one futex sleep and lets the kernel run the holder immediately.
func (m *Moderator) awaitRingOp(d *domain, r *submitRing, op *ringOp) {
	for spins := 0; ; spins++ {
		if op.state.Load() != 0 {
			return
		}
		if r.draining.CompareAndSwap(0, 1) {
			m.drainAndRelease(d, r)
			return
		}
		switch {
		case spins < ringSpinBudget:
			// Tight spin: the common multicore case, where the running
			// drainer publishes within a few hundred nanoseconds.
		case spins < 4*ringSpinBudget:
			runtime.Gosched()
		default:
			if op.state.CompareAndSwap(0, 2) {
				<-op.wake
			}
			return
		}
	}
}

// drainAndRelease drains, releases the flag, and re-checks: an op enqueued
// after the drain's scan whose submitter has already parked cannot
// self-elect, so the releasing drainer is the one that must pick it up.
// The caller must hold the draining flag.
func (m *Moderator) drainAndRelease(d *domain, r *submitRing) {
	for {
		m.drainRing(d)
		r.draining.Store(0)
		if r.tail.Load() == r.head.Load() {
			return
		}
		if !r.draining.CompareAndSwap(0, 1) {
			// Someone else won the re-election; their release re-checks.
			return
		}
	}
}

// drainRing is the flat-combining drain: collect the batch, take the
// domain mutex and guard cell once, evaluate every op against that single
// guard-state access, then one coalesced wake pass. The caller must hold
// the domain's draining flag.
func (m *Moderator) drainRing(d *domain) {
	r := d.ring
	h, t := r.head.Load(), r.tail.Load()
	if h == t {
		return
	}
	batch := r.scratch[:0]
	for i := h; i < t; i++ {
		slot := &r.slots[i%ringSize]
		op := slot.Load()
		// A producer that won its tail CAS but has not yet stored the op
		// leaves a transient nil; it is about to complete, so spin briefly.
		for spins := 0; op == nil; spins++ {
			if spins >= guardSpinBudget {
				runtime.Gosched()
			}
			op = slot.Load()
		}
		slot.Store(nil)
		batch = append(batch, op)
	}
	r.head.Store(t)
	r.scratch = batch

	blocked := r.blocked[:0]
	posts := r.posts[:0]
	r.acc.reset()

	d.mu.Lock()
	d.cell.lock()
	for _, op := range batch {
		if op.kind == ringPre {
			r.preOps.Add(1)
			if m.ringEvalPre(op, d) {
				blocked = append(blocked, op)
			} else {
				// Admits and aborts are terminal here: publishing while the
				// locks are still held lets those callers' method bodies
				// overlap the rest of the drain.
				op.publish()
			}
		} else {
			r.postOps.Add(1)
			ringEvalPost(op, &r.acc)
			posts = append(posts, op)
		}
	}
	ver := d.cell.unlock()
	// Blocked ops carry the batch's post-release cell sequence: the first
	// submitter to reacquire the cell parks on the carried verdict without
	// re-running its layer's hooks; any later one re-evaluates, which is
	// the spurious-wake case re-parking callers already tolerate.
	for _, op := range blocked {
		op.resume.ver = ver
		op.publish()
	}
	r.blocked = blocked

	dt := m.domains.Load()
	mode := m.opts.wakeMode
	if !r.acc.empty() {
		r.wakePasses.Add(1)
		for i, meth := range r.acc.methods {
			if dt.byMethod[meth] == d {
				wakeMethodLockedN(d, meth, mode, r.acc.counts[i])
			}
		}
		if r.acc.conservative > 0 {
			for _, q := range d.queues {
				wakeQueueLockedN(q, mode, r.acc.conservative)
			}
		}
	}
	d.mu.Unlock()

	if !r.acc.empty() {
		for i, meth := range r.acc.methods {
			if od := dt.byMethod[meth]; od != nil && od != d {
				od.mu.Lock()
				wakeMethodLockedN(od, meth, mode, r.acc.counts[i])
				od.mu.Unlock()
			}
		}
		if r.acc.conservative > 0 {
			for _, od := range dt.all {
				if od == d {
					continue
				}
				od.mu.Lock()
				for _, q := range od.queues {
					wakeQueueLockedN(q, mode, r.acc.conservative)
				}
				od.mu.Unlock()
			}
		}
	}
	// Post-op submitters return only after the whole fan-out, preserving
	// the mutex path's contract that Postactivation's wakes have been
	// delivered when it returns.
	for _, op := range posts {
		op.publish()
	}
	r.posts = posts

	n := uint64(len(batch))
	r.batches.Add(1)
	r.batchedOps.Add(n)
	if n > r.maxBatch.Load() {
		r.maxBatch.Store(n)
	}
	b := 0
	for s := n; s > 1 && b < ringBuckets-1; s >>= 1 {
		b++
	}
	r.buckets[b].Add(1)
}

// ringEvalPre evaluates one batched pre-activation under the held mutex
// and cell, mirroring preactivateMutex's layer loop. It reports whether
// the op blocked (verdict handed off via op.resume); admits and aborts
// are recorded on the op directly.
func (m *Moderator) ringEvalPre(op *ringOp, d *domain) (blocked bool) {
	plan := op.plan
	inv := op.inv
	k := 0
	for li := range plan.layers {
		l := &plan.layers[li]
		mark := k
		for i := l.lo; i < l.hi; i++ {
			e := &plan.entries[i]
			v := e.a.Precondition(inv)
			if v == aspect.Resume {
				k++
				continue
			}
			if v == aspect.Block {
				// Layer-atomic rollback, then the verdict handoff. The
				// waiter pre-registration happens under the cell, which is
				// what keeps the lock-free completers honest (they check
				// m.waiters under the cell before skipping the fan-out).
				cancelReverse(plan.aspects[mark:k], inv)
				m.waiters.Add(1)
				r := d.ring
				r.parks.Add(1)
				op.resume = &optResume{layer: li, k: mark, kind: e.kind, by: e.a}
				return true
			}
			var abortErr error
			if v == aspect.Abort {
				abortErr = inv.Err()
				if abortErr == nil {
					abortErr = aspect.ErrAborted
				}
			} else {
				abortErr = fmt.Errorf("moderator %s: aspect %q returned invalid verdict %v: %w",
					m.name, e.a.Name(), v, aspect.ErrAborted)
			}
			cancelReverse(plan.aspects[:k], inv)
			d.aborts.Add(1)
			op.err = fmt.Errorf("moderator %s: %s pre-activation (layer %s): %w",
				m.name, inv.Method(), l.name, abortErr)
			return false
		}
	}
	d.admissions.Add(1)
	// The shared receipt is fast-eligible (its completion may take the
	// optimistic post path), so hand it out only when that path is
	// actually enabled; otherwise the pooled, non-fast receipt keeps
	// WithOptimisticAdmission(false) meaning what it says.
	if plan.sharedAdm != nil && m.opts.optimistic {
		op.adm = plan.sharedAdm
	} else {
		op.adm = newAdmission(plan, d, false, false)
	}
	return false
}

// ringEvalPost runs one batched post-activation's postactions (reverse
// admission order, under the held cell) and defers its wake obligation
// into the batch accumulator.
func ringEvalPost(op *ringOp, acc *wakeAcc) {
	adm := op.adm
	admitted := adm.admitted
	for i := len(admitted) - 1; i >= 0; i-- {
		admitted[i].Postaction(op.inv)
	}
	acc.addPlan(adm.plan)
	op.adm = nil
	releaseAdmission(adm)
}

// RingStats are cumulative counters for the batched admission path,
// summed over the moderator's admission domains. Like OptimisticStats,
// they are intentionally NOT part of Stats: which path served an
// admission is an implementation detail the Reference does not share.
type RingStats struct {
	Submitted     uint64 // ops enqueued into a submission ring
	Batches       uint64 // drain passes executed
	BatchedOps    uint64 // ops consumed by drain passes
	MaxBatch      uint64 // largest single batch
	PreOps        uint64 // batched pre-activations
	PostOps       uint64 // batched post-activations
	Parks         uint64 // batched evaluations that hit Block and handed off
	WakePasses    uint64 // coalesced wake passes performed
	FullFallbacks uint64 // enqueues refused by a full ring (mutex fallback)
	MutexBypasses uint64 // contention probes that found the mutex free (mutex path)
	Depth         int64  // ops currently enqueued across all rings
	// BatchSizes is the power-of-two batch-size histogram: bucket i counts
	// batches of size in [2^i, 2^(i+1)), the last bucket open-ended.
	BatchSizes [ringBuckets]uint64
}

// RingStats returns a snapshot of the batched-admission counters.
func (m *Moderator) RingStats() RingStats {
	var s RingStats
	for _, d := range m.domains.Load().all {
		r := d.ring
		s.Submitted += r.submitted.Load()
		s.Batches += r.batches.Load()
		s.BatchedOps += r.batchedOps.Load()
		if mb := r.maxBatch.Load(); mb > s.MaxBatch {
			s.MaxBatch = mb
		}
		s.PreOps += r.preOps.Load()
		s.PostOps += r.postOps.Load()
		s.Parks += r.parks.Load()
		s.WakePasses += r.wakePasses.Load()
		s.FullFallbacks += r.fullFallbacks.Load()
		s.MutexBypasses += r.bypasses.Load()
		s.Depth += r.depth()
		for i := range r.buckets {
			s.BatchSizes[i] += r.buckets[i].Load()
		}
	}
	return s
}

// Pressure reports the admission pressure a new invocation of method
// would face: the moderator-wide parked-waiter count plus the method's
// ring depth. It is lock-free and advisory — the load-shedding watermark
// input for admission-aware servers (see internal/amrpc).
func (m *Moderator) Pressure(method string) int {
	p := int(m.waiters.Load())
	if d := m.domains.Load().byMethod[method]; d != nil {
		p += int(d.ring.depth())
	}
	return p
}
