package moderator

// Tests for the optimistic guard-cell admission path (optimistic.go):
// the happy path and its counters, the tracer gate, the two racy-window
// regression tests for the PR 2 stranded-caller bug class on the new
// path, the waiter gate of the pure route, and era-pinned snapshot
// reclamation (reclaim.go).

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
)

// optSemStack registers the canonical guarded-fast stack on method "m":
// a capacity-1 self-waking semaphore between two NonBlocking audits. It
// returns a func reading the semaphore's current occupancy.
func optSemStack(t *testing.T, m Admitter) func() int {
	t.Helper()
	var mu sync.Mutex
	used := 0
	pre := &aspect.Func{
		AspectName: "audit-pre", AspectKind: aspect.KindAudit, NonBlockingFlag: true,
	}
	sem := &aspect.Func{
		AspectName: "sem", AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			mu.Lock()
			defer mu.Unlock()
			if used >= 1 {
				return aspect.Block
			}
			used++
			return aspect.Resume
		},
		Post: func(*aspect.Invocation) {
			mu.Lock()
			used--
			mu.Unlock()
		},
		CancelFn: func(*aspect.Invocation) {
			mu.Lock()
			used--
			mu.Unlock()
		},
		WakeList: []string{"m"},
	}
	post := &aspect.Func{
		AspectName: "audit-post", AspectKind: aspect.KindMetrics, NonBlockingFlag: true,
	}
	for _, reg := range []struct {
		kind aspect.Kind
		a    aspect.Aspect
	}{{aspect.KindAudit, pre}, {aspect.KindSynchronization, sem}, {aspect.KindMetrics, post}} {
		if err := m.Register("m", reg.kind, reg.a); err != nil {
			t.Fatal(err)
		}
	}
	return func() int {
		mu.Lock()
		defer mu.Unlock()
		return used
	}
}

func TestOptimisticGuardedAdmission(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)
	inv := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	const rounds = 100
	for i := 0; i < rounds; i++ {
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		if adm == nil || !adm.shared || !adm.fast {
			t.Fatalf("round %d: want the plan's shared fast receipt, got %+v", i, adm)
		}
		m.Postactivation(inv, adm)
	}
	os := m.OptimisticStats()
	if os.Admits != rounds || os.Completes != rounds {
		t.Fatalf("optimistic counters = %+v, want %d admits and completes", os, rounds)
	}
	if os.Parks != 0 || os.Fallbacks != 0 || os.Conflicts != 0 {
		t.Fatalf("uncontended run took fallbacks: %+v", os)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
	st := m.Stats()
	if st.Admissions != rounds || st.Completions != rounds || st.Blocks != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTracerForcesMutexRoute(t *testing.T) {
	m := forceMutexRoute(New("opt"))
	occupancy := optSemStack(t, m)
	inv := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	for i := 0; i < 10; i++ {
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		m.Postactivation(inv, adm)
	}
	if os := m.OptimisticStats(); os != (OptimisticStats{}) {
		t.Fatalf("cell route ran under a tracer: %+v", os)
	}
	if st := m.Stats(); st.Admissions != 10 || st.Completions != 10 {
		t.Fatalf("stats = %+v", st)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// TestOptimisticPreFallbackOnMidEvaluationWaiter pins the pre-activation
// half of the PR 2 stranded-caller bug class on the optimistic path: a
// waiter that appears AFTER the outer waiters gate passed but BEFORE the
// guard cell is acquired must force the mutex fallback, and no wake may
// be lost — every parked caller eventually admits.
func TestOptimisticPreFallbackOnMidEvaluationWaiter(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)

	// A takes the semaphore's only slot, optimistically.
	invA := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}

	type outcome struct{ err error }
	results := make(chan outcome, 2)
	runCaller := func() {
		inv := aspect.NewInvocation(context.Background(), "opt", "m", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		results <- outcome{err}
	}

	// One-shot hook: when C's optimistic pre-activation is inside the racy
	// window, park B mid-flight. The hook runs before the cell is taken,
	// so B's own (mutex-path) park cannot deadlock against C.
	var fired atomic.Bool
	m.setAdmitHook(func(p admitPoint, _ *domain) {
		if p != hookOptimisticPre || !fired.CompareAndSwap(false, true) {
			return
		}
		go runCaller() // B: blocks on the held semaphore and parks
		waitWaiting(t, m, "m", 1)
	})

	go runCaller() // C: hits the hook, then must fall back and park too
	waitWaiting(t, m, "m", 2)
	m.setAdmitHook(nil)

	if os := m.OptimisticStats(); os.Fallbacks == 0 {
		t.Fatalf("expected a waiter-forced fallback, counters = %+v", os)
	}

	// A releases the slot; B and C must both admit and complete.
	m.Postactivation(invA, admA)
	for i := 0; i < 2; i++ {
		select {
		case r := <-results:
			if r.err != nil {
				t.Fatalf("caller %d failed: %v", i, r.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("caller %d stranded: Waiting=%d stats=%+v opt=%+v",
				i, m.Waiting("m"), m.Stats(), m.OptimisticStats())
		}
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
	if m.Waiting("m") != 0 {
		t.Fatalf("callers still parked: %d", m.Waiting("m"))
	}
}

// TestOptimisticPostFallbackWakesWaiter pins the post-activation half: a
// caller that parks after the completer's outer waiters gate passed but
// before the guard cell is acquired must push the completion onto the
// mutex path, whose wake fan-out releases the waiter. Skipping the
// fan-out here is exactly how a caller would be stranded forever.
func TestOptimisticPostFallbackWakesWaiter(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)

	invA := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	var fired atomic.Bool
	m.setAdmitHook(func(p admitPoint, _ *domain) {
		if p != hookOptimisticPost || !fired.CompareAndSwap(false, true) {
			return
		}
		go func() { // B: blocks on the held semaphore and parks
			inv := aspect.NewInvocation(context.Background(), "opt", "m", nil)
			adm, err := m.Preactivation(inv)
			if err == nil {
				m.Postactivation(inv, adm)
			}
			done <- err
		}()
		waitWaiting(t, m, "m", 1)
	})

	// A completes: the optimistic post must detect B and fall back; the
	// mutex path's fan-out then wakes B.
	m.Postactivation(invA, admA)
	m.setAdmitHook(nil)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("woken caller failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("caller stranded after optimistic completion: Waiting=%d opt=%+v",
			m.Waiting("m"), m.OptimisticStats())
	}
	if os := m.OptimisticStats(); os.Fallbacks == 0 {
		t.Fatalf("expected the completion to fall back, counters = %+v", os)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// TestOptimisticBlockHandoffParksOnce drives a Block verdict through the
// optimistic path and checks the handoff bookkeeping: the caller parks
// (counted once, like the Reference would), the optimistic evaluation is
// not re-run when nothing touched guard state, and the waiter
// pre-registration is balanced.
func TestOptimisticBlockHandoffParksOnce(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)

	invA := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		inv := aspect.NewInvocation(context.Background(), "opt", "m", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		done <- err
	}()
	waitWaiting(t, m, "m", 1)
	if os := m.OptimisticStats(); os.Parks != 1 {
		t.Fatalf("optimistic parks = %+v, want exactly one handoff", os)
	}
	if st := m.Stats(); st.Blocks != 1 {
		t.Fatalf("blocks = %d, want 1 (the handoff must not double-count)", st.Blocks)
	}
	if w := m.waiters.Load(); w != 1 {
		t.Fatalf("waiters = %d, want 1 (pre-registration must be consumed by the park)", w)
	}
	m.Postactivation(invA, admA)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if w := m.waiters.Load(); w != 0 {
		t.Fatalf("waiters leaked: %d", w)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// TestOptimisticCancelWhileParked exercises the abandon path after an
// optimistic Block handoff: cancelling the parked caller must run Abandon
// and Cancel under the guard cell and leave the guard balanced.
func TestOptimisticCancelWhileParked(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)

	invA := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		inv := aspect.NewInvocation(ctx, "opt", "m", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		done <- err
	}()
	waitWaiting(t, m, "m", 1)
	cancel()
	if err := <-done; err == nil {
		t.Fatal("cancelled parked caller admitted")
	}
	if w := m.waiters.Load(); w != 0 {
		t.Fatalf("waiters leaked: %d", w)
	}
	m.Postactivation(invA, admA)
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
	if st := m.Stats(); st.Aborts != 1 {
		t.Fatalf("aborts = %d, want 1", st.Aborts)
	}
}

func TestReclaimChurnDrains(t *testing.T) {
	m := New("reclaim")
	occupancy := optSemStack(t, m)
	inv := aspect.NewInvocation(context.Background(), "reclaim", "m", nil)
	const churns = 10
	for i := 0; i < churns; i++ {
		if err := m.RegisterIn(BaseLayer, "m", aspect.KindMetrics, &aspect.Func{
			AspectName: "churn", AspectKind: aspect.KindMetrics, NonBlockingFlag: true,
		}); err != nil {
			t.Fatal(err)
		}
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		m.Postactivation(inv, adm)
		if _, err := m.Unregister(BaseLayer, "m", aspect.KindMetrics); err != nil {
			t.Fatal(err)
		}
	}
	rs := m.TryReclaim()
	if rs.Pending != 0 {
		t.Fatalf("quiescent moderator still holds %d retired snapshots: %+v", rs.Pending, rs)
	}
	if rs.Era < 2*churns || rs.Reclaimed != rs.Retired {
		t.Fatalf("reclaim stats = %+v, want era >= %d and everything reclaimed", rs, 2*churns)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// TestReclaimParkedCallerPins: a caller parked mid-pre-activation holds
// its era pin, so the snapshot it admitted under survives republication
// until the caller returns; afterwards the retired list drains to empty.
func TestReclaimParkedCallerPins(t *testing.T) {
	m := New("reclaim")
	occupancy := optSemStack(t, m)

	invA := aspect.NewInvocation(context.Background(), "reclaim", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { // parks under the current snapshot, pinning its era
		inv := aspect.NewInvocation(context.Background(), "reclaim", "m", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		done <- err
	}()
	waitWaiting(t, m, "m", 1)

	if err := m.RegisterIn(BaseLayer, "m", aspect.KindMetrics, &aspect.Func{
		AspectName: "churn", AspectKind: aspect.KindMetrics, NonBlockingFlag: true,
	}); err != nil {
		t.Fatal(err)
	}
	rs := m.TryReclaim()
	if rs.Pending == 0 {
		t.Fatalf("retired snapshot reclaimed while a parked caller pins its era: %+v", rs)
	}

	m.Postactivation(invA, admA)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rs = m.TryReclaim()
		if rs.Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("retired snapshots never drained: %+v", rs)
		}
		time.Sleep(time.Millisecond)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// TestWaiterKeepsPureStackOffFastPath pins the fast-path gate for the pure
// route: a caller parked on one method must force an admission of a pure
// stack on another method onto the mutex path, whose conservative
// broadcast is what wakes the parked caller. The waiters counter is
// moderator-wide, not per-domain.
func TestWaiterKeepsPureStackOffFastPath(t *testing.T) {
	m := New("comp")
	var token atomic.Int64
	gate := &aspect.Func{
		AspectName: "token-gate",
		AspectKind: aspect.KindSynchronization,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			if token.Load() == 0 {
				return aspect.Block
			}
			return aspect.Resume
		},
	}
	if err := m.Register("gate", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}
	// The whole stack of "pure" declares NonBlocking, so with no waiters
	// it would take the lock-free fast path and never broadcast.
	if err := m.Register("pure", aspect.KindMetrics,
		&aspect.Func{AspectName: "pure-mark", AspectKind: aspect.KindMetrics, NonBlockingFlag: true}); err != nil {
		t.Fatal(err)
	}

	parked := make(chan error, 1)
	go func() {
		i := aspect.NewInvocation(context.Background(), "comp", "gate", nil)
		adm, err := m.Preactivation(i)
		if err == nil {
			m.Postactivation(i, adm)
		}
		parked <- err
	}()
	waitWaiting(t, m, "gate", 1)

	// Open the gate WITHOUT waking anyone: only the pure invocation's
	// completion broadcast can release the parked caller — and only if
	// the waiters counter pushed it off the fast path.
	token.Store(1)
	i := aspect.NewInvocation(context.Background(), "comp", "pure", nil)
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	if adm.fast {
		t.Error("pure admission took the fast path with a caller parked")
	}
	m.Postactivation(i, adm)

	select {
	case err := <-parked:
		if err != nil {
			t.Fatalf("parked caller failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked caller never woke: the pure completion skipped the wake fan-out")
	}
}
