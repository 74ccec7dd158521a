package moderator

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/waitq"
)

// trace records hook invocations in order. Hooks run under the moderator's
// admission lock, but tests read from other goroutines, so it carries its
// own mutex.
type trace struct {
	mu     sync.Mutex
	events []string
}

func (tr *trace) add(e string) {
	tr.mu.Lock()
	tr.events = append(tr.events, e)
	tr.mu.Unlock()
}

func (tr *trace) snapshot() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, len(tr.events))
	copy(out, tr.events)
	return out
}

// tracer builds an aspect that records pre/post/cancel events.
func tracer(tr *trace, name string, kind aspect.Kind, pre func(*aspect.Invocation) aspect.Verdict) *aspect.Func {
	return &aspect.Func{
		AspectName: name,
		AspectKind: kind,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			v := aspect.Resume
			if pre != nil {
				v = pre(inv)
			}
			tr.add(name + ".pre:" + v.String())
			return v
		},
		Post:     func(inv *aspect.Invocation) { tr.add(name + ".post") },
		CancelFn: func(inv *aspect.Invocation) { tr.add(name + ".cancel") },
	}
}

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

func TestUnguardedMethodAdmitsImmediately(t *testing.T) {
	m := New("comp")
	i := inv("open")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatalf("preactivation: %v", err)
	}
	m.Postactivation(i, adm)
	s := m.Stats()
	if s.Admissions != 1 || s.Completions != 1 || s.Blocks != 0 || s.Aborts != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestSingleAspectResumeFlow(t *testing.T) {
	m := New("comp")
	tr := &trace{}
	if err := m.Register("open", aspect.KindSynchronization, tracer(tr, "sync", aspect.KindSynchronization, nil)); err != nil {
		t.Fatal(err)
	}
	i := inv("open")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	tr.add("body")
	m.Postactivation(i, adm)
	want := []string{"sync.pre:resume", "body", "sync.post"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestLayerOnionOrdering(t *testing.T) {
	// The paper's Figure 14: auth-pre, sync-pre, method, sync-post, auth-post.
	m := New("comp")
	tr := &trace{}
	if err := m.AddLayer("authentication", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("authentication", "open", aspect.KindAuthentication,
		tracer(tr, "auth", aspect.KindAuthentication, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("open", aspect.KindSynchronization,
		tracer(tr, "sync", aspect.KindSynchronization, nil)); err != nil {
		t.Fatal(err)
	}
	i := inv("open")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	tr.add("body")
	m.Postactivation(i, adm)
	want := []string{"auth.pre:resume", "sync.pre:resume", "body", "sync.post", "auth.post"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestWithinLayerOrdering(t *testing.T) {
	// Registration order for preconditions, reverse for postactions.
	m := New("comp")
	tr := &trace{}
	for _, n := range []string{"a", "b", "c"} {
		if err := m.Register("m", aspect.Kind("k-"+n), tracer(tr, n, aspect.Kind("k-"+n), nil)); err != nil {
			t.Fatal(err)
		}
	}
	i := inv("m")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	m.Postactivation(i, adm)
	want := []string{"a.pre:resume", "b.pre:resume", "c.pre:resume", "c.post", "b.post", "a.post"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestRegistrationOrderPreserved(t *testing.T) {
	// Registration order holds across kinds, not grouped by kind: a and c
	// share a bank cell, b sits between them. Preconditions run in that
	// order, postactions in reverse, and Describe lists it.
	m := New("comp")
	tr := &trace{}
	for _, n := range []string{"a", "b", "c"} {
		kind := aspect.Kind("k-1")
		if n == "b" {
			kind = "k-2"
		}
		if err := m.Register("m", kind, tracer(tr, n, kind, nil)); err != nil {
			t.Fatal(err)
		}
	}
	var described []string
	for _, a := range m.Describe()[0].Methods["m"] {
		described = append(described, a.Name)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(described, want) {
		t.Errorf("Describe order = %v, want %v", described, want)
	}
	i := inv("m")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	m.Postactivation(i, adm)
	want := []string{"a.pre:resume", "b.pre:resume", "c.pre:resume", "c.post", "b.post", "a.post"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestAbortUnwindsAdmittedAspects(t *testing.T) {
	m := New("comp")
	tr := &trace{}
	if err := m.Register("m", "k1", tracer(tr, "first", "k1", nil)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("denied")
	aborter := &aspect.Func{
		AspectName: "second",
		AspectKind: "k2",
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			tr.add("second.pre:abort")
			inv.SetErr(boom)
			return aspect.Abort
		},
	}
	if err := m.Register("m", "k2", aborter); err != nil {
		t.Fatal(err)
	}
	i := inv("m")
	_, err := m.Preactivation(i)
	if !errors.Is(err, boom) {
		t.Fatalf("want cause %v, got %v", boom, err)
	}
	want := []string{"first.pre:resume", "second.pre:abort", "first.cancel"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
	if s := m.Stats(); s.Aborts != 1 || s.Admissions != 0 {
		t.Errorf("stats = %+v", s)
	}
}

func TestAbortWithoutCauseSurfacesErrAborted(t *testing.T) {
	m := New("comp")
	if err := m.Register("m", "k", aspect.New("deny", "k",
		func(*aspect.Invocation) aspect.Verdict { return aspect.Abort }, nil)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Preactivation(inv("m"))
	if !errors.Is(err, aspect.ErrAborted) {
		t.Fatalf("want ErrAborted, got %v", err)
	}
}

func TestAbortInInnerLayerUnwindsOuterLayer(t *testing.T) {
	m := New("comp")
	tr := &trace{}
	if err := m.AddLayer("outer", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("outer", "m", "k1", tracer(tr, "outer", "k1", nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("m", "k2", tracer(tr, "inner", "k2",
		func(*aspect.Invocation) aspect.Verdict { return aspect.Abort })); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Preactivation(inv("m")); err == nil {
		t.Fatal("want abort error")
	}
	want := []string{"outer.pre:resume", "inner.pre:abort", "outer.cancel"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestInvalidVerdictAborts(t *testing.T) {
	m := New("comp")
	if err := m.Register("m", "k", aspect.New("broken", "k",
		func(*aspect.Invocation) aspect.Verdict { return aspect.Verdict(0) }, nil)); err != nil {
		t.Fatal(err)
	}
	_, err := m.Preactivation(inv("m"))
	if !errors.Is(err, aspect.ErrAborted) {
		t.Fatalf("invalid verdict must abort, got %v", err)
	}
}

func TestBlockParksUntilPostactivation(t *testing.T) {
	// A gate guard: closed until another invocation's postaction opens it.
	m := New("comp")
	open := false
	gate := aspect.New("gate", aspect.KindSynchronization, func(*aspect.Invocation) aspect.Verdict {
		if open {
			return aspect.Resume
		}
		return aspect.Block
	}, nil)
	if err := m.Register("wait", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}
	opener := &aspect.Func{
		AspectName: "opener",
		AspectKind: aspect.KindSynchronization,
		Post:       func(*aspect.Invocation) { open = true },
		WakeList:   []string{"wait"},
	}
	if err := m.Register("release", aspect.KindSynchronization, opener); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		i := inv("wait")
		adm, err := m.Preactivation(i)
		if err == nil {
			m.Postactivation(i, adm)
		}
		done <- err
	}()

	// The waiter must park, not proceed.
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("wait") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("caller proceeded through closed gate: %v", err)
	default:
	}

	// Run the releasing invocation; its postaction opens the gate and its
	// Waker declaration wakes the waiter.
	rel := inv("release")
	relAdm, err := m.Preactivation(rel)
	if err != nil {
		t.Fatal(err)
	}
	m.Postactivation(rel, relAdm)

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("woken caller failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woken")
	}
	if s := m.Stats(); s.Blocks == 0 {
		t.Errorf("blocks not counted: %+v", s)
	}
}

func TestBlockRollsBackPartialLayerAdmissions(t *testing.T) {
	// Aspect "reserve" admits and reserves; "gate" blocks until opened.
	// Every failed round must cancel the reservation, so when the gate
	// opens, net reservations == 1.
	m := New("comp")
	reservations := 0
	reserve := &aspect.Func{
		AspectName: "reserve",
		AspectKind: "k-reserve",
		Pre: func(*aspect.Invocation) aspect.Verdict {
			reservations++
			return aspect.Resume
		},
		CancelFn: func(*aspect.Invocation) { reservations-- },
	}
	open := false
	gate := aspect.New("gate", "k-gate", func(*aspect.Invocation) aspect.Verdict {
		if open {
			return aspect.Resume
		}
		return aspect.Block
	}, nil)
	if err := m.Register("m", "k-reserve", reserve); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("m", "k-gate", gate); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		i := inv("m")
		adm, err := m.Preactivation(i)
		if err == nil {
			m.Postactivation(i, adm)
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// While parked, the failed layer round must have been rolled back.
	m.domainFor("m").mu.Lock()
	if reservations != 0 {
		m.domainFor("m").mu.Unlock()
		t.Fatalf("reservations while blocked = %d, want 0", reservations)
	}
	open = true
	m.domainFor("m").mu.Unlock()
	m.Kick("m")
	if err := <-done; err != nil {
		t.Fatalf("woken caller: %v", err)
	}
	m.domainFor("m").mu.Lock()
	defer m.domainFor("m").mu.Unlock()
	if reservations != 1 {
		t.Errorf("final reservations = %d, want 1", reservations)
	}
}

func TestOuterLayerAdmissionHeldWhileInnerBlocks(t *testing.T) {
	// Paper Figure 14: authentication (outer) admission persists while
	// synchronization (inner) blocks.
	m := New("comp")
	authAdmissions := 0
	auth := &aspect.Func{
		AspectName: "auth",
		AspectKind: aspect.KindAuthentication,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			authAdmissions++
			return aspect.Resume
		},
		CancelFn: func(*aspect.Invocation) { authAdmissions-- },
	}
	if err := m.AddLayer("authentication", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("authentication", "m", aspect.KindAuthentication, auth); err != nil {
		t.Fatal(err)
	}
	open := false
	gate := aspect.New("gate", aspect.KindSynchronization, func(*aspect.Invocation) aspect.Verdict {
		if open {
			return aspect.Resume
		}
		return aspect.Block
	}, nil)
	if err := m.Register("m", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		i := inv("m")
		adm, err := m.Preactivation(i)
		if err == nil {
			m.Postactivation(i, adm)
		}
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	m.domainFor("m").mu.Lock()
	if authAdmissions != 1 {
		m.domainFor("m").mu.Unlock()
		t.Fatalf("outer admission not held while inner blocked: %d", authAdmissions)
	}
	open = true
	m.domainFor("m").mu.Unlock()
	m.Kick("m")
	if err := <-done; err != nil {
		t.Fatalf("woken caller: %v", err)
	}
}

func TestContextCancellationWhileBlockedUnwinds(t *testing.T) {
	m := New("comp")
	outerAdmits := 0
	outer := &aspect.Func{
		AspectName: "outer",
		AspectKind: "k1",
		Pre: func(*aspect.Invocation) aspect.Verdict {
			outerAdmits++
			return aspect.Resume
		},
		CancelFn: func(*aspect.Invocation) { outerAdmits-- },
	}
	if err := m.AddLayer("outer", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("outer", "m", "k1", outer); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("m", "k2", aspect.New("gate", "k2",
		func(*aspect.Invocation) aspect.Verdict { return aspect.Block }, nil)); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, perr := m.Preactivation(aspect.NewInvocation(ctx, "comp", "m", nil))
		done <- perr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("caller never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	m.domainFor("m").mu.Lock()
	defer m.domainFor("m").mu.Unlock()
	if outerAdmits != 0 {
		t.Errorf("outer admission not unwound on cancellation: %d", outerAdmits)
	}
	if s := m.Stats(); s.Aborts != 1 {
		t.Errorf("aborts = %d, want 1", s.Aborts)
	}
}

func TestLayerManagement(t *testing.T) {
	m := New("comp")
	if got := m.Layers(); !reflect.DeepEqual(got, []string{BaseLayer}) {
		t.Fatalf("initial layers = %v", got)
	}
	if err := m.AddLayer("auth", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.AddLayer("metrics", Innermost); err != nil {
		t.Fatal(err)
	}
	want := []string{"auth", BaseLayer, "metrics"}
	if got := m.Layers(); !reflect.DeepEqual(got, want) {
		t.Fatalf("layers = %v, want %v", got, want)
	}
	if err := m.AddLayer("auth", Outermost); !errors.Is(err, ErrLayerExists) {
		t.Errorf("duplicate AddLayer: %v", err)
	}
	if err := m.AddLayer("", Outermost); err == nil {
		t.Error("empty layer name must error")
	}
	if err := m.RemoveLayer("auth"); err != nil {
		t.Fatal(err)
	}
	if err := m.RemoveLayer("auth"); !errors.Is(err, ErrNoSuchLayer) {
		t.Errorf("repeat RemoveLayer: %v", err)
	}
	if err := m.RegisterIn("ghost", "m", "k", aspect.New("a", "k", nil, nil)); !errors.Is(err, ErrNoSuchLayer) {
		t.Errorf("RegisterIn ghost layer: %v", err)
	}
	if _, err := m.Unregister("ghost", "m", "k"); !errors.Is(err, ErrNoSuchLayer) {
		t.Errorf("Unregister ghost layer: %v", err)
	}
}

func TestUnregisterStopsGuarding(t *testing.T) {
	m := New("comp")
	denies := aspect.New("deny", "k", func(*aspect.Invocation) aspect.Verdict { return aspect.Abort }, nil)
	if err := m.Register("m", "k", denies); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Preactivation(inv("m")); err == nil {
		t.Fatal("expected abort while registered")
	}
	n, err := m.Unregister(BaseLayer, "m", "k")
	if err != nil || n != 1 {
		t.Fatalf("unregister = %d, %v", n, err)
	}
	i := inv("m")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatalf("after unregister: %v", err)
	}
	m.Postactivation(i, adm)
}

func TestUnregister(t *testing.T) {
	// Unregister empties one (method, kind) cell and reports how many
	// aspects it held; the method's other cells keep guarding it.
	m := New("comp")
	denies := aspect.New("deny", "k", func(*aspect.Invocation) aspect.Verdict { return aspect.Abort }, nil)
	for _, a := range []aspect.Aspect{denies, aspect.New("also-k", "k", nil, nil), aspect.New("other", "k2", nil, nil)} {
		if err := m.Register("m", a.Kind(), a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Preactivation(inv("m")); err == nil {
		t.Fatal("expected abort while registered")
	}
	n, err := m.Unregister(BaseLayer, "m", "k")
	if err != nil || n != 2 {
		t.Fatalf("unregister = %d, %v; want 2 removed", n, err)
	}
	if n, err := m.Unregister(BaseLayer, "m", "k"); err != nil || n != 0 {
		t.Fatalf("repeat unregister = %d, %v; want 0 removed", n, err)
	}
	i := inv("m")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatalf("after unregister: %v", err)
	}
	if adm.Len() != 1 {
		t.Errorf("admitted %d aspects, want only the k2 one", adm.Len())
	}
	m.Postactivation(i, adm)
	// Removing the method's last aspect drops the method from the bank.
	if n, err := m.Unregister(BaseLayer, "m", "k2"); err != nil || n != 1 {
		t.Fatalf("unregister k2 = %d, %v; want 1 removed", n, err)
	}
	if methods := m.Describe()[0].Methods; len(methods) != 0 {
		t.Errorf("Describe after the last unregister = %v, want no methods", methods)
	}
}

func TestAspectsEvaluationOrderAccessor(t *testing.T) {
	m := New("comp")
	if err := m.AddLayer("outer", Outermost); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("outer", "m", "k1", aspect.New("o", "k1", nil, nil)); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("m", "k2", aspect.New("b", "k2", nil, nil)); err != nil {
		t.Fatal(err)
	}
	got := m.Aspects("m")
	if len(got) != 2 || got[0].Name() != "o" || got[1].Name() != "b" {
		names := make([]string, len(got))
		for i, a := range got {
			names[i] = a.Name()
		}
		t.Errorf("Aspects order = %v, want [o b]", names)
	}
	if m.Aspects("none") != nil {
		t.Error("Aspects of unguarded method must be nil")
	}
}

func TestInFlightInvocationImmuneToRecomposition(t *testing.T) {
	// An invocation admitted under composition C must run C's postactions
	// even if aspects are unregistered in between.
	m := New("comp")
	tr := &trace{}
	if err := m.Register("m", "k", tracer(tr, "a", "k", nil)); err != nil {
		t.Fatal(err)
	}
	i := inv("m")
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Unregister(BaseLayer, "m", "k"); err != nil {
		t.Fatal(err)
	}
	m.Postactivation(i, adm)
	want := []string{"a.pre:resume", "a.post"}
	if got := tr.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("trace = %v, want %v", got, want)
	}
}

func TestWakeSingleHonorsPriorityPolicy(t *testing.T) {
	// Semaphore-of-one guard; three blocked callers with priorities 1,3,2.
	// In WakeSingle+Priority mode, releases must admit 3, then 2, then 1.
	m := New("comp", WithWakePolicy(waitq.Priority), WithWakeMode(WakeSingle))
	inUse := 0
	sem := &aspect.Func{
		AspectName: "sem",
		AspectKind: aspect.KindSynchronization,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			if inUse > 0 {
				return aspect.Block
			}
			inUse++
			return aspect.Resume
		},
		Post:     func(*aspect.Invocation) { inUse-- },
		CancelFn: func(*aspect.Invocation) { inUse-- },
		WakeList: []string{"m"},
	}
	if err := m.Register("m", aspect.KindSynchronization, sem); err != nil {
		t.Fatal(err)
	}

	// Occupy the semaphore so subsequent callers all park.
	holder := inv("m")
	holderAdm, err := m.Preactivation(holder)
	if err != nil {
		t.Fatal(err)
	}

	var order []int
	var orderMu sync.Mutex
	var wg sync.WaitGroup
	type pending struct {
		inv *aspect.Invocation
		adm *Admission
	}
	admitted := make(chan pending, 3)
	for _, prio := range []int{1, 3, 2} {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			i := inv("m")
			i.Priority = p
			iAdm, err := m.Preactivation(i)
			if err != nil {
				t.Errorf("prio %d: %v", p, err)
				return
			}
			orderMu.Lock()
			order = append(order, p)
			orderMu.Unlock()
			admitted <- pending{inv: i, adm: iAdm}
		}(prio)
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") < 3 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d callers parked", m.Waiting("m"))
		}
		time.Sleep(time.Millisecond)
	}
	// Release the holder, then each admitted caller in turn.
	m.Postactivation(holder, holderAdm)
	for k := 0; k < 3; k++ {
		select {
		case p := <-admitted:
			m.Postactivation(p.inv, p.adm)
		case <-time.After(5 * time.Second):
			t.Fatalf("admission %d never happened", k)
		}
	}
	wg.Wait()
	want := []int{3, 2, 1}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("admission order = %v, want %v", order, want)
	}
}

func TestBroadcastWakeModeReleasesAllEligible(t *testing.T) {
	// Gate opens once; all three blocked callers must eventually pass.
	m := New("comp") // default broadcast
	open := false
	gate := aspect.New("gate", "k", func(*aspect.Invocation) aspect.Verdict {
		if open {
			return aspect.Resume
		}
		return aspect.Block
	}, nil)
	if err := m.Register("m", "k", gate); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 3)
	for k := 0; k < 3; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			i := inv("m")
			adm, err := m.Preactivation(i)
			if err == nil {
				m.Postactivation(i, adm)
			}
			errs <- err
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") < 3 {
		if time.Now().After(deadline) {
			t.Fatal("callers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	m.domainFor("m").mu.Lock()
	open = true
	m.domainFor("m").mu.Unlock()
	m.Kick("m")
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("caller: %v", err)
		}
	}
}

func TestQueueStats(t *testing.T) {
	m := New("comp")
	gate := aspect.New("gate", aspect.KindScheduling, func(*aspect.Invocation) aspect.Verdict { return aspect.Block }, nil)
	if err := m.Register("m", aspect.KindScheduling, gate); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, perr := m.Preactivation(aspect.NewInvocation(ctx, "comp", "m", nil))
		done <- perr
	}()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiting("m") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("never parked")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-done
	qs := m.QueueStats()
	key := "m/" + string(aspect.KindScheduling)
	st, ok := qs[key]
	if !ok {
		t.Fatalf("no stats for %q: %v", key, qs)
	}
	if st.Waits != 1 || st.Cancels != 1 {
		t.Errorf("queue stats = %+v", st)
	}
}

func TestConcurrentMixedInvocationsRace(t *testing.T) {
	// Hammer a moderator with a semaphore guard from many goroutines while
	// re-composing an audit layer; checks the mutual-exclusion invariant.
	m := New("comp")
	const limit = 4
	inUse := 0
	maxSeen := 0
	sem := &aspect.Func{
		AspectName: "sem",
		AspectKind: aspect.KindSynchronization,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			if inUse >= limit {
				return aspect.Block
			}
			inUse++
			if inUse > maxSeen {
				maxSeen = inUse
			}
			return aspect.Resume
		},
		Post:     func(*aspect.Invocation) { inUse-- },
		CancelFn: func(*aspect.Invocation) { inUse-- },
		WakeList: []string{"m"},
	}
	if err := m.Register("m", aspect.KindSynchronization, sem); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		n := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			layerName := fmt.Sprintf("audit-%d", n)
			if err := m.AddLayer(layerName, Outermost); err != nil {
				t.Errorf("add layer: %v", err)
				return
			}
			if err := m.RegisterIn(layerName, "m", aspect.KindAudit,
				aspect.New("audit", aspect.KindAudit, nil, nil)); err != nil {
				t.Errorf("register: %v", err)
				return
			}
			if err := m.RemoveLayer(layerName); err != nil {
				t.Errorf("remove layer: %v", err)
				return
			}
			n++
		}
	}()

	var wg sync.WaitGroup
	const workers, iters = 16, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < iters; k++ {
				i := inv("m")
				adm, err := m.Preactivation(i)
				if err != nil {
					t.Errorf("preactivation: %v", err)
					return
				}
				m.Postactivation(i, adm)
			}
		}()
	}
	wg.Wait()
	close(stop)
	churn.Wait()

	m.domainFor("m").mu.Lock()
	defer m.domainFor("m").mu.Unlock()
	if inUse != 0 {
		t.Errorf("semaphore leaked: inUse = %d", inUse)
	}
	if maxSeen > limit {
		t.Errorf("limit violated: max concurrent = %d > %d", maxSeen, limit)
	}
	if s := m.Stats(); s.Admissions != workers*iters {
		t.Errorf("admissions = %d, want %d", s.Admissions, workers*iters)
	}
}

// gateStack registers an all-or-nothing gate guard on method "m": parked
// callers block while the gate is closed and ALL admit once it opens. The
// guard declares its wake span, so the plan is targeted and optimistic.
func gateStack(t *testing.T, m Admitter) (setOpen func(bool)) {
	t.Helper()
	var mu sync.Mutex
	open := true
	gate := &aspect.Func{
		AspectName: "gate", AspectKind: aspect.KindSynchronization,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			mu.Lock()
			defer mu.Unlock()
			if !open {
				return aspect.Block
			}
			return aspect.Resume
		},
		WakeList: []string{"m"},
	}
	if err := m.Register("m", aspect.KindSynchronization, gate); err != nil {
		t.Fatal(err)
	}
	return func(v bool) {
		mu.Lock()
		open = v
		mu.Unlock()
	}
}

// waitGroupWithin waits for wg and reports whether it finished within d,
// so a test whose callers are stranded fails with a message instead of
// hanging until the suite's timeout.
func waitGroupWithin(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// mutexTierConfigs are the two ways a guarded call reaches the mutex route:
// as the fallback of the cell route (the first parker upgrades in place from
// the seqlock, later ones see waiters > 0), and from its first instruction
// when a tracer is installed.
var mutexTierConfigs = []struct {
	name   string
	tracer bool
}{
	{"optimistic-fallback", false},
	{"optimistic-off", true},
}

func newMutexTier(name string, tracer bool) *Moderator {
	m := New(name)
	if tracer {
		forceMutexRoute(m)
	}
	return m
}

// TestMutexTierStrandedCallers is the PR 2 stranded-caller regression on the
// blocking tier: j callers park on a closed gate, the gate opens, and k
// invocations admitted earlier complete. The completions' wake fan-out must
// reach every parked caller — a completer that skipped it would leave them
// parked forever behind an open gate.
func TestMutexTierStrandedCallers(t *testing.T) {
	const k, j = 8, 4
	for _, cfg := range mutexTierConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			m := newMutexTier("gate", cfg.tracer)
			setOpen := gateStack(t, m)

			invs := make([]*aspect.Invocation, k)
			adms := make([]*Admission, k)
			for i := range invs {
				invs[i] = aspect.NewInvocation(context.Background(), "gate", "m", nil)
				adm, err := m.Preactivation(invs[i])
				if err != nil {
					t.Fatal(err)
				}
				adms[i] = adm
			}

			setOpen(false)
			type outcome struct {
				inv *aspect.Invocation
				adm *Admission
				err error
			}
			admitted := make(chan outcome, j)
			for i := 0; i < j; i++ {
				go func() {
					inv := aspect.NewInvocation(context.Background(), "gate", "m", nil)
					adm, err := m.Preactivation(inv)
					admitted <- outcome{inv, adm, err}
				}()
				waitWaiting(t, m, "m", i+1)
			}
			if got := m.Stats().Blocks; got != j {
				t.Fatalf("blocks = %d, want %d", got, j)
			}

			setOpen(true)
			for i := 0; i < k; i++ {
				m.Postactivation(invs[i], adms[i])
			}

			for i := 0; i < j; i++ {
				select {
				case o := <-admitted:
					if o.err != nil {
						t.Fatalf("parked caller: %v", o.err)
					}
					m.Postactivation(o.inv, o.adm)
				case <-time.After(5 * time.Second):
					t.Fatalf("%d of %d parked callers stranded behind an open gate", j-i, j)
				}
			}
			if got := m.Waiting("m"); got != 0 {
				t.Fatalf("waiting = %d after everyone admitted", got)
			}
			if got := m.Pressure(); got != 0 {
				t.Fatalf("pressure = %d at quiescence", got)
			}
			st := m.Stats()
			if st.Admissions != k+j || st.Completions != k+j || st.Aborts != 0 {
				t.Fatalf("stats = %+v, want %d admissions and completions", st, k+j)
			}
		})
	}
}

// TestMutexTierContendedSoak drives a capacity-1 semaphore from 16 callers
// so nearly every admission parks and is released by another caller's
// completion, then audits the balance: every admission completed and the
// guard is empty. Each admission is held across a yield so callers overlap
// even on a single processor.
func TestMutexTierContendedSoak(t *testing.T) {
	const callers, rounds = 16, 60
	for _, cfg := range mutexTierConfigs {
		t.Run(cfg.name, func(t *testing.T) {
			m := newMutexTier("sem", cfg.tracer)
			occupancy := optSemStack(t, m)
			var wg sync.WaitGroup
			for i := 0; i < callers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for n := 0; n < rounds; n++ {
						inv := aspect.NewInvocation(context.Background(), "sem", "m", nil)
						adm, err := m.Preactivation(inv)
						if err != nil {
							t.Error(err)
							return
						}
						runtime.Gosched()
						m.Postactivation(inv, adm)
					}
				}()
			}
			if !waitGroupWithin(&wg, 30*time.Second) {
				t.Fatalf("soak stalled: %d callers parked, stats %+v", m.Waiting("m"), m.Stats())
			}
			if got := occupancy(); got != 0 {
				t.Fatalf("semaphore leaked %d admissions", got)
			}
			st := m.Stats()
			if st.Admissions != callers*rounds || st.Completions != callers*rounds {
				t.Fatalf("stats = %+v, want %d admissions and completions", st, callers*rounds)
			}
			if st.Blocks == 0 {
				t.Fatalf("nobody parked: %+v", st)
			}
			if cfg.tracer {
				if os := m.OptimisticStats(); os != (OptimisticStats{}) {
					t.Fatalf("seqlock engaged under a tracer: %+v", os)
				}
			}
		})
	}
}
