package moderator

// Compiled-plan cache invalidation. Plans are resolved at publish time
// (publishLocked), so every composition mutation — RegisterIn,
// Unregister, AddLayer, RemoveLayer, GroupMethods — must atomically
// replace the plan a NEW invocation resolves, while in-flight invocations
// keep the snapshot they loaded. The deterministic tests below pin each
// mutation's visibility edge; the stress test races admissions against
// layer churn under -race and checks, for every invocation that ran
// inside a mutation-free window, that it saw exactly the published
// composition of that window. After every mutation, planMismatch
// re-resolves the published snapshot and checks the compiled plans
// against it.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
)

// planMismatch re-resolves every method of m's published composition
// snapshot straight from its layers' banks and reports the first way the
// compiled plans disagree: a guarded method with no plan, plan entries
// (layer and aspect name, in order) that differ from a fresh walk of the
// layers, or a wake-target list that is not the sorted union of the
// entries' wake spans. Both sides read one immutable snapshot, so any
// difference is a plan-compiler defect. It also checks the invariant
// post-activation's wake fan-out relies on: every plan's method and every
// one of its wake targets map to the plan's domain in the current domain
// table.
func planMismatch(m *Moderator) error {
	cs := m.comp.Load()
	dt := m.domains.Load()
	for _, l := range cs.layers {
		for meth := range l.aspects {
			if cs.plans[meth] == nil {
				return fmt.Errorf("method %q is guarded in layer %q but has no plan", meth, l.name)
			}
		}
	}
	for meth, p := range cs.plans {
		if dt.byMethod[meth] != p.d {
			return fmt.Errorf("plan %q is bound to a domain the domain table no longer maps it to", meth)
		}
		for _, w := range p.wakeTargets {
			if dt.byMethod[w] != p.d {
				return fmt.Errorf("plan %q wakes %q outside its admission domain", meth, w)
			}
		}
		var want, got []string
		wakes := map[string]bool{}
		for _, l := range cs.layers {
			for _, e := range l.aspects[meth] {
				want = append(want, l.name+"/"+e.a.Name())
				for _, w := range wakeSpan(e.a) {
					wakes[w] = true
				}
			}
		}
		for _, e := range p.entries {
			got = append(got, e.layer+"/"+e.a.Name())
		}
		if !slices.Equal(got, want) {
			return fmt.Errorf("plan %q entries %v, snapshot resolves %v", meth, got, want)
		}
		wantWakes := make([]string, 0, len(wakes))
		for w := range wakes {
			wantWakes = append(wantWakes, w)
		}
		sort.Strings(wantWakes)
		if !slices.Equal(p.wakeTargets, wantWakes) {
			return fmt.Errorf("plan %q wake targets %v, snapshot declares %v", meth, p.wakeTargets, wantWakes)
		}
	}
	return nil
}

// assertPlansMatch fails the test when planMismatch finds a difference.
func assertPlansMatch(t *testing.T, m *Moderator) {
	t.Helper()
	if err := planMismatch(m); err != nil {
		t.Fatal(err)
	}
}

// markerAspect stamps an invocation attribute from its precondition so a
// caller can tell whether a given invocation ran it.
func markerAspect(name string, pure bool, key any) *aspect.Func {
	return &aspect.Func{
		AspectName:      name,
		AspectKind:      aspect.KindAudit,
		NonBlockingFlag: pure,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			inv.SetAttr(key, true)
			return aspect.Resume
		},
	}
}

func admitOnce(t *testing.T, m *Moderator, method string) *aspect.Invocation {
	t.Helper()
	inv := aspect.NewInvocation(context.Background(), "plan", method, nil)
	adm, err := m.Preactivation(inv)
	if err != nil {
		t.Fatalf("preactivation(%s): %v", method, err)
	}
	m.Postactivation(inv, adm)
	return inv
}

func TestPlanCacheInvalidationOnRegisterUnregister(t *testing.T) {
	t.Parallel()
	m := New("plan")
	type key struct{}
	if err := m.Register("m", aspect.KindAudit, markerAspect("mark", true, key{})); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	if inv := admitOnce(t, m, "m"); inv.Attr(key{}) == nil {
		t.Fatal("registered aspect did not run")
	}
	if n, err := m.Unregister(BaseLayer, "m", aspect.KindAudit); err != nil || n != 1 {
		t.Fatalf("unregister: n=%d err=%v", n, err)
	}
	assertPlansMatch(t, m)
	if inv := admitOnce(t, m, "m"); inv.Attr(key{}) != nil {
		t.Fatal("stale plan: unregistered aspect still ran")
	}
}

func TestPlanCacheInvalidationOnLayerChurn(t *testing.T) {
	t.Parallel()
	m := New("plan")
	type baseKey struct{}
	type fluxKey struct{}
	if err := m.Register("m", aspect.KindAudit, markerAspect("base-mark", true, baseKey{})); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	if err := m.AddLayer("flux", Outermost); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	if err := m.RegisterIn("flux", "m", aspect.KindAudit, markerAspect("flux-mark", false, fluxKey{})); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	inv := admitOnce(t, m, "m")
	if inv.Attr(baseKey{}) == nil || inv.Attr(fluxKey{}) == nil {
		t.Fatal("layered plan incomplete")
	}
	if err := m.RemoveLayer("flux"); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	inv = admitOnce(t, m, "m")
	if inv.Attr(fluxKey{}) != nil {
		t.Fatal("stale plan: removed layer's aspect still ran")
	}
	if inv.Attr(baseKey{}) == nil {
		t.Fatal("base aspect vanished with the removed layer")
	}
}

// TestPlanCacheRepointsDomainOnGrouping pins the groupLocked republish: a
// plan compiled before GroupMethods binds the method's pre-merge domain;
// if grouping did not recompile, a caller parked via the stale plan would
// sit on a queue Kick (which resolves the CURRENT domain table) can no
// longer reach, and would strand forever.
func TestPlanCacheRepointsDomainOnGrouping(t *testing.T) {
	t.Parallel()
	m := New("plan")
	open := false
	if err := m.Register("a", aspect.KindSynchronization, &aspect.Func{
		AspectName: "gate",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if !open {
				return aspect.Block
			}
			return aspect.Resume
		},
		WakeList: []string{"a"},
	}); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	// The registration above compiled a plan binding a's domain. Merge it
	// with b's (both untouched, so the merge is legal) — the plan must be
	// recompiled against the merged domain.
	if err := m.GroupMethods("b", "a"); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	done := make(chan error, 1)
	go func() {
		inv := aspect.NewInvocation(context.Background(), "plan", "a", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("a") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(50 * time.Microsecond)
	}
	open = true // racy only if the plan's domain diverged from Kick's
	m.Kick("a")
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("kicked caller failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale plan domain: kicked caller stayed parked")
	}
}

// TestGroupingMovesWholeDomains: a merge moves every method of the merged
// domains, not just the methods it names. Otherwise grouping one method of
// a wake span into another, already active domain would split the span —
// the guard's hooks would touch one guard state under two domain mutexes,
// and its completions would wake a method outside their domain.
func TestGroupingMovesWholeDomains(t *testing.T) {
	t.Parallel()
	for _, merge := range []func(m *Moderator) error{
		func(m *Moderator) error { return m.GroupMethods("p", "c") },
		func(m *Moderator) error {
			return m.Register("c", aspect.KindSynchronization, &aspect.Func{
				AspectName: "c-wakes-p", AspectKind: aspect.KindSynchronization, WakeList: []string{"p"}})
		},
	} {
		m := New("plan")
		mustRegister(t, m, "p", aspect.KindSynchronization, &aspect.Func{
			AspectName: "p-wakes-q", AspectKind: aspect.KindSynchronization, WakeList: []string{"q"}})
		admitComplete(t, m, "c") // c's domain is active, so it absorbs p's
		if err := merge(m); err != nil {
			t.Fatal(err)
		}
		assertPlansMatch(t, m)
		if got, want := m.Domains(), [][]string{{"c", "p", "q"}}; !slices.EqualFunc(got, want, slices.Equal) {
			t.Fatalf("domains = %v, want %v", got, want)
		}
	}
}

// TestPlanCacheInFlightKeepsSnapshot: an invocation admitted before a
// mutation completes under the composition it was admitted with, even
// after the aspect is unregistered mid-flight.
func TestPlanCacheInFlightKeepsSnapshot(t *testing.T) {
	t.Parallel()
	m := New("plan")
	var posts atomic.Int32
	if err := m.Register("m", aspect.KindAudit, &aspect.Func{
		AspectName:      "count",
		AspectKind:      aspect.KindAudit,
		NonBlockingFlag: true,
		Post:            func(*aspect.Invocation) { posts.Add(1) },
	}); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	inv := aspect.NewInvocation(context.Background(), "plan", "m", nil)
	adm, err := m.Preactivation(inv)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := m.Unregister(BaseLayer, "m", aspect.KindAudit); err != nil || n != 1 {
		t.Fatalf("unregister: n=%d err=%v", n, err)
	}
	assertPlansMatch(t, m)
	m.Postactivation(inv, adm)
	if posts.Load() != 1 {
		t.Fatalf("in-flight receipt lost its postaction: posts=%d", posts.Load())
	}
}

// TestPlanCacheChurnRace races a mutator (alternating AddLayer+RegisterIn
// and RemoveLayer of a "flux" layer) against admitting readers. Mutation
// counters bracket each mutation (started before, completed after), so a
// reader whose whole admission fell inside a mutation-free window knows
// exactly which composition was published and asserts it saw precisely
// that — new invocations see a mutation atomically, never a torn or stale
// plan. Run with -race for the memory-model half of the claim.
func TestPlanCacheChurnRace(t *testing.T) {
	t.Parallel()
	m := New("plan")
	type baseKey struct{}
	type fluxKey struct{}
	// Base guard is pure; the flux marker is not, so churn also toggles
	// the plan between fast-path-eligible and mutex-only.
	if err := m.Register("m", aspect.KindAudit, markerAspect("base-mark", true, baseKey{})); err != nil {
		t.Fatal(err)
	}
	assertPlansMatch(t, m)
	flux := markerAspect("flux-mark", false, fluxKey{})

	var started, completed atomic.Uint64
	stop := make(chan struct{})
	mutErr := make(chan error, 1)
	var mutator sync.WaitGroup
	mutator.Add(1)
	go func() {
		defer mutator.Done()
		for k := uint64(1); ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			started.Add(1)
			var err error
			if k%2 == 1 { // odd mutation: flux appears
				if err = m.AddLayer("flux", Outermost); err == nil {
					err = m.RegisterIn("flux", "m", aspect.KindAudit, flux)
				}
			} else { // even mutation: flux disappears
				err = m.RemoveLayer("flux")
			}
			if err == nil {
				err = planMismatch(m)
			}
			if err != nil {
				mutErr <- fmt.Errorf("mutation %d: %w", k, err)
				return
			}
			completed.Add(1)
		}
	}()

	const readers = 4
	wantChecked := uint64(400)
	if testing.Short() {
		wantChecked = 50
	}
	var checked atomic.Uint64
	errs := make(chan error, readers)
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			deadline := time.Now().Add(20 * time.Second)
			for checked.Load() < wantChecked && time.Now().Before(deadline) {
				before := completed.Load()
				inv := aspect.NewInvocation(context.Background(), "plan", "m", nil)
				adm, err := m.Preactivation(inv)
				if err != nil {
					errs <- err
					return
				}
				m.Postactivation(inv, adm)
				after := started.Load()
				if inv.Attr(baseKey{}) == nil {
					errs <- errors.New("base aspect missing from plan")
					return
				}
				if before != after {
					continue // a mutation overlapped: no stable state to assert
				}
				// Exactly `before` mutations had fully completed and none
				// started: flux is present iff that count is odd.
				sawFlux := inv.Attr(fluxKey{}) != nil
				if want := before%2 == 1; sawFlux != want {
					errs <- fmt.Errorf("after %d mutations: flux ran=%v, want %v (stale or torn plan)",
						before, sawFlux, want)
					return
				}
				checked.Add(1)
			}
		}()
	}
	wg.Wait()
	close(stop)
	mutator.Wait()
	select {
	case err := <-mutErr:
		t.Fatal(err)
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if got := checked.Load(); got < wantChecked {
		t.Fatalf("only %d/%d admissions landed in mutation-free windows; raceable but unasserted", got, wantChecked)
	}
}
