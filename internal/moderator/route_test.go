package moderator

// Tests for the admission routes as interchangeable lock-acquisition
// strategies around the one pre-activation and the one post-activation
// driver: the helper that forces the mutex route from a condition the
// dispatcher observes, the pure route's contract violation, the upgrade
// window, and the route-equivalence table.

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
)

// mutexRouteTracer discards every event and samples so rarely that no
// detail op ever fires. An installed tracer is one of the conditions that
// keep an admission off both lock-free routes, so installing this one puts
// every call on the mutex route from its first instruction.
type mutexRouteTracer struct{}

func (mutexRouteTracer) Trace(TraceEvent) {}
func (mutexRouteTracer) SampleEvery() int { return math.MaxInt }

func forceMutexRoute(m *Moderator) *Moderator {
	m.SetTracer(mutexRouteTracer{})
	return m
}

// hookLog records which hook of which aspect ran, in order.
type hookLog struct {
	mu  sync.Mutex
	seq []string
}

func (h *hookLog) add(hook, name string) {
	h.mu.Lock()
	h.seq = append(h.seq, hook+" "+name)
	h.mu.Unlock()
}

func (h *hookLog) snapshot() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]string(nil), h.seq...)
}

// recorded returns an aspect that logs all four hooks and answers its
// precondition with verdict() (Resume when nil).
func (h *hookLog) recorded(name string, nonBlocking bool, verdict func() aspect.Verdict) *aspect.Func {
	return &aspect.Func{
		AspectName: name, AspectKind: aspect.KindAudit, NonBlockingFlag: nonBlocking,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			h.add("pre", name)
			if verdict == nil {
				return aspect.Resume
			}
			return verdict()
		},
		Post:      func(*aspect.Invocation) { h.add("post", name) },
		CancelFn:  func(*aspect.Invocation) { h.add("cancel", name) },
		AbandonFn: func(*aspect.Invocation) { h.add("abandon", name) },
	}
}

// TestRoutePureBlockIsContractViolation: on the pure route nothing is held
// that a park could release, so a Block from a NonBlocking-declaring aspect
// is rejected like an Abort — rolled back, counted, never parked.
func TestRoutePureBlockIsContractViolation(t *testing.T) {
	m := New("route")
	log := &hookLog{}
	var lying atomic.Bool
	lying.Store(true)
	for _, a := range []*aspect.Func{
		log.recorded("a", true, nil),
		log.recorded("b", true, nil),
		log.recorded("c", true, func() aspect.Verdict {
			if lying.Load() {
				return aspect.Block
			}
			return aspect.Resume
		}),
	} {
		if err := m.Register("m", aspect.KindAudit, a); err != nil {
			t.Fatal(err)
		}
	}
	inv := aspect.NewInvocation(context.Background(), "route", "m", nil)
	adm, err := m.Preactivation(inv)
	if err == nil || adm != nil {
		t.Fatalf("Block on the pure route admitted: adm=%v err=%v", adm, err)
	}
	if !errors.Is(err, aspect.ErrAborted) || !strings.Contains(err.Error(), `NonBlocking aspect "c" returned Block`) {
		t.Fatalf("err = %v, want ErrAborted naming the lying aspect", err)
	}
	want := []string{"pre a", "pre b", "pre c", "cancel b", "cancel a"}
	if got := log.snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("hooks = %v, want %v", got, want)
	}
	if st := m.Stats(); st.Aborts != 1 || st.Blocks != 0 || st.Admissions != 0 {
		t.Fatalf("stats = %+v, want one abort and no block", st)
	}
	if w, p := m.Waiting("m"), m.Pressure(); w != 0 || p != 0 {
		t.Fatalf("waiting = %d, pressure = %d after the rejection", w, p)
	}
	lying.Store(false)
	adm, err = m.Preactivation(inv)
	if err != nil {
		t.Fatalf("next call on the same method: %v", err)
	}
	m.Postactivation(inv, adm)
	if st := m.Stats(); st.Admissions != 1 || st.Completions != 1 {
		t.Fatalf("stats after the next call = %+v", st)
	}
}

// TestRouteUpgradeReevaluatesWhenCellMoved stages a completion inside the
// upgrade window — after the blocked caller released the cell, before it
// holds the mutex. The completer frees the slot and its wake fan-out finds
// nobody queued, so the carried Block verdict is stale: the upgrader must
// notice the cell version moved and re-evaluate, or it parks with nobody
// left to wake it.
func TestRouteUpgradeReevaluatesWhenCellMoved(t *testing.T) {
	m := New("opt")
	occupancy := optSemStack(t, m)
	invA := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	admA, err := m.Preactivation(invA)
	if err != nil {
		t.Fatal(err)
	}
	var fired atomic.Bool
	var pressureInWindow atomic.Int64
	m.setAdmitHook(func(p admitPoint, _ *domain) {
		if p != hookUpgrade || !fired.CompareAndSwap(false, true) {
			return
		}
		// The upgrader is committed to parking and must already count,
		// or this completion could take the cell and skip its fan-out.
		pressureInWindow.Store(int64(m.Pressure()))
		m.Postactivation(invA, admA)
	})
	defer m.setAdmitHook(nil)

	invB := aspect.NewInvocation(context.Background(), "opt", "m", nil)
	done := make(chan error, 1)
	var admB *Admission
	go func() {
		var err error
		admB, err = m.Preactivation(invB)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("upgrader parked on a stale verdict: Waiting=%d stats=%+v", m.Waiting("m"), m.Stats())
	}
	if !fired.Load() {
		t.Fatal("the upgrade window was never reached")
	}
	if got := pressureInWindow.Load(); got != 1 {
		t.Fatalf("pressure inside the upgrade window = %d, want the pre-registered upgrader", got)
	}
	if os := m.OptimisticStats(); os.Parks != 1 || os.Completes != 0 {
		t.Fatalf("optimistic counters = %+v, want one upgrade and the window's completion on the mutex", os)
	}
	if st := m.Stats(); st.Blocks != 0 || st.Admissions != 2 {
		t.Fatalf("stats = %+v, want two admissions and no park", st)
	}
	if p := m.Pressure(); p != 0 {
		t.Fatalf("pre-registration leaked: pressure = %d", p)
	}
	m.Postactivation(invB, admB)
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

// routeStrategy is one way of holding locks around the admission drivers.
type routeStrategy struct {
	name      string
	reference bool // the single-mutex Reference, the baseline
	pure      bool // every aspect declares NonBlocking: no lock at all
	tracer    bool // mutex route from the first instruction
	touch     bool // move the cell version inside the upgrade window
	// blocking selects the scenarios the strategy can express: a Block
	// is a contract violation on the pure route, turns the cell route
	// into an upgrade, and is the only way to reach an upgrade.
	blocking, nonBlocking bool
}

var routeStrategies = []routeStrategy{
	{name: "reference", reference: true, blocking: true, nonBlocking: true},
	{name: "pure", pure: true, nonBlocking: true},
	{name: "cell", nonBlocking: true},
	{name: "upgrade", blocking: true},
	{name: "upgrade-touched", touch: true, blocking: true},
	{name: "mutex", tracer: true, blocking: true, nonBlocking: true},
}

// routeScenario scripts one transition of the pre-activation state machine
// on a two-layer stack: layer "outer" holds aspect outer; the base layer
// holds first, gate, last, and gate answers its first precondition with
// verdict.
type routeScenario struct {
	name    string
	verdict aspect.Verdict
	cancel  bool // a parked caller is cancelled, not woken
	hooks   []string
}

var routeScenarios = []routeScenario{
	{name: "all-resume", verdict: aspect.Resume, hooks: []string{
		"pre outer", "pre first", "pre gate", "pre last",
		"post last", "post gate", "post first", "post outer"}},
	{name: "abort-after-admitted-layer", verdict: aspect.Abort, hooks: []string{
		"pre outer", "pre first", "pre gate", "cancel first", "cancel outer"}},
	{name: "invalid-verdict", verdict: aspect.Verdict(99), hooks: []string{
		"pre outer", "pre first", "pre gate", "cancel first", "cancel outer"}},
	{name: "block-wake-admit", verdict: aspect.Block, hooks: []string{
		"pre outer", "pre first", "pre gate", "cancel first",
		"pre first", "pre gate", "pre last",
		"post last", "post gate", "post first", "post outer"}},
	{name: "block-cancel", verdict: aspect.Block, cancel: true, hooks: []string{
		"pre outer", "pre first", "pre gate", "cancel first", "abandon gate", "cancel outer"}},
}

// routeOutcome is everything a caller can observe of one scripted run.
type routeOutcome struct {
	hooks []string
	stats Stats
	err   string
}

func runRouteScenario(t *testing.T, sc routeScenario, st routeStrategy) routeOutcome {
	t.Helper()
	var impl Admitter
	var m *Moderator
	if st.reference {
		impl = NewReference("route")
	} else {
		m = New("route")
		impl = m
		if st.tracer {
			forceMutexRoute(m)
		}
	}
	log := &hookLog{}
	var verdict atomic.Int64
	verdict.Store(int64(sc.verdict))
	if err := impl.AddLayer("outer", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := impl.RegisterIn("outer", "m", aspect.KindAudit, log.recorded("outer", st.pure, nil)); err != nil {
		t.Fatal(err)
	}
	for _, a := range []*aspect.Func{
		log.recorded("first", st.pure, nil),
		log.recorded("gate", st.pure, func() aspect.Verdict { return aspect.Verdict(verdict.Load()) }),
		log.recorded("last", st.pure, nil),
	} {
		if err := impl.Register("m", aspect.KindAudit, a); err != nil {
			t.Fatal(err)
		}
	}
	var cellTries atomic.Int64
	if m != nil {
		m.setAdmitHook(func(p admitPoint, d *domain) {
			switch p {
			case hookOptimisticPre:
				cellTries.Add(1)
			case hookUpgrade:
				if st.touch {
					// What any mutex-route hook evaluation in the domain
					// does to the cell, minus the hooks: the verdict stays
					// true, only the version moves.
					d.cell.lock()
					d.cell.unlock()
				}
			}
		})
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	inv := aspect.NewInvocation(ctx, "route", "m", nil)
	type result struct {
		adm *Admission
		err error
	}
	done := make(chan result, 1)
	go func() {
		adm, err := impl.Preactivation(inv)
		done <- result{adm, err}
	}()
	if sc.verdict == aspect.Block {
		waitWaiting(t, impl, "m", 1)
		if sc.cancel {
			cancel()
		} else {
			verdict.Store(int64(aspect.Resume))
			impl.Kick("m")
		}
	}
	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("pre-activation never returned: Waiting=%d stats=%+v", impl.Waiting("m"), impl.Stats())
	}
	out := routeOutcome{}
	if res.err != nil {
		out.err = res.err.Error()
	} else {
		impl.Postactivation(inv, res.adm)
	}
	out.hooks = log.snapshot()
	out.stats = impl.Stats()

	// The strategy must have held what its name says.
	if m != nil {
		os := m.OptimisticStats()
		wantTries, wantParks := int64(0), uint64(0)
		switch {
		case st.pure || st.tracer:
		case st.blocking:
			wantTries, wantParks = 1, 1
		default:
			wantTries = 1
		}
		if cellTries.Load() != wantTries || os.Parks != wantParks || os.Conflicts+os.Fallbacks != 0 {
			t.Fatalf("took another route: %d cell attempts, counters %+v", cellTries.Load(), os)
		}
		if st.pure && res.adm != nil && !res.adm.plan.pure {
			t.Fatalf("pure strategy ran an impure plan")
		}
		if p := m.Pressure(); p != 0 {
			t.Fatalf("pressure = %d at quiescence", p)
		}
	}
	return out
}

// TestRouteEquivalence runs every transition of the pre-activation state
// machine on every strategy that can express it and on the Reference, and
// requires the identical hook sequence, ledger and error text: a strategy
// may change what an admission costs, never what it does. The one licensed
// difference is upgrade-touched, where the moved cell version makes the
// blocked layer re-evaluate once before it parks — a spurious wake-up
// without the park.
func TestRouteEquivalence(t *testing.T) {
	for _, sc := range routeScenarios {
		t.Run(sc.name, func(t *testing.T) {
			var ref routeOutcome
			for _, st := range routeStrategies {
				if blocks := sc.verdict == aspect.Block; blocks && !st.blocking || !blocks && !st.nonBlocking {
					continue
				}
				got := runRouteScenario(t, sc, st)
				want := sc.hooks
				if st.touch {
					// "pre first, pre gate, cancel first" happens twice.
					want = append(append([]string(nil), sc.hooks[:4]...), sc.hooks[1:]...)
				}
				if !reflect.DeepEqual(got.hooks, want) {
					t.Errorf("%s: hooks = %v, want %v", st.name, got.hooks, want)
				}
				if st.reference {
					ref = got
					continue
				}
				if got.stats != ref.stats {
					t.Errorf("%s: stats = %+v, reference %+v", st.name, got.stats, ref.stats)
				}
				if got.err != ref.err {
					t.Errorf("%s: error %q, reference %q", st.name, got.err, ref.err)
				}
			}
		})
	}
}
