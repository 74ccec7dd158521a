package moderator

// Tests for the snapshot memory model: Describe must read the same
// atomically-published composition snapshot as the admission hot path (no
// torn view during layer churn), Admission receipts must stay valid
// across a concurrent RemoveLayer, and a superseded snapshot must be left
// to the garbage collector.

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/aspect"
)

// TestDescribeNeverTearsDuringChurn: a churner builds up composition in a
// strict order — layer one gains aspect n1, then layer two gains aspect n2
// — and tears it down in reverse. At every instant, "n2 registered" implies
// "n1 registered". A Describe that snapshots each layer's bank separately
// (the pre-sharding implementation) can interleave with the churner and
// observe n2 without n1; the single atomic composition snapshot cannot.
func TestDescribeNeverTearsDuringChurn(t *testing.T) {
	for _, impl := range wakeImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.mk()
			n1 := aspect.New("n1", aspect.KindMetrics, nil, nil)
			n2 := aspect.New("n2", aspect.KindMetrics, nil, nil)

			stop := make(chan struct{})
			var churn sync.WaitGroup
			churn.Add(1)
			go func() {
				defer churn.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					steps := []func() error{
						func() error { return m.AddLayer("one", Outermost) },
						func() error { return m.RegisterIn("one", "m", aspect.KindMetrics, n1) },
						func() error { return m.AddLayer("two", Outermost) },
						func() error { return m.RegisterIn("two", "m", aspect.KindMetrics, n2) },
						func() error { _, err := m.Unregister("two", "m", aspect.KindMetrics); return err },
						func() error { return m.RemoveLayer("two") },
						func() error { _, err := m.Unregister("one", "m", aspect.KindMetrics); return err },
						func() error { return m.RemoveLayer("one") },
					}
					for _, step := range steps {
						if err := step(); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}()

			deadline := time.Now().Add(300 * time.Millisecond)
			reads := 0
			for time.Now().Before(deadline) {
				has := map[string]bool{}
				for _, layer := range m.Describe() {
					for _, aspects := range layer.Methods {
						for _, a := range aspects {
							has[a.Name] = true
						}
					}
				}
				if has["n2"] && !has["n1"] {
					close(stop)
					churn.Wait()
					t.Fatalf("torn Describe after %d reads: observed n2 without n1", reads)
				}
				reads++
			}
			close(stop)
			churn.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if reads == 0 {
				t.Fatal("no Describe reads performed")
			}
		})
	}
}

// TestAdmissionReceiptSurvivesRemoveLayer: an invocation is admitted under
// a layer that is then removed while the method body "runs". The receipt
// holds the admitted aspect objects themselves — not bank coordinates — so
// post-activation must still run the removed layer's postactions (and the
// composition must already describe the layer as gone).
func TestAdmissionReceiptSurvivesRemoveLayer(t *testing.T) {
	for _, impl := range wakeImpls {
		t.Run(impl.name, func(t *testing.T) {
			m := impl.mk()
			var events []string
			mu := sync.Mutex{}
			record := func(ev string) {
				mu.Lock()
				events = append(events, ev)
				mu.Unlock()
			}
			tracer := &aspect.Func{
				AspectName: "aux-tracer",
				AspectKind: aspect.KindMetrics,
				Pre: func(*aspect.Invocation) aspect.Verdict {
					record("pre")
					return aspect.Resume
				},
				Post: func(*aspect.Invocation) { record("post") },
			}
			if err := m.AddLayer("aux", Outermost); err != nil {
				t.Fatal(err)
			}
			if err := m.RegisterIn("aux", "m", aspect.KindMetrics, tracer); err != nil {
				t.Fatal(err)
			}

			inv := aspect.NewInvocation(context.Background(), "comp", "m", nil)
			adm, err := m.Preactivation(inv)
			if err != nil {
				t.Fatal(err)
			}
			if adm.Len() != 1 {
				t.Fatalf("admitted %d aspects, want 1", adm.Len())
			}

			// The layer vanishes while the method body is in flight.
			if err := m.RemoveLayer("aux"); err != nil {
				t.Fatal(err)
			}
			for _, layer := range m.Describe() {
				if layer.Name == "aux" {
					t.Fatal("Describe still shows the removed layer")
				}
			}
			// New invocations no longer see the layer...
			inv2 := aspect.NewInvocation(context.Background(), "comp", "m", nil)
			adm2, err := m.Preactivation(inv2)
			if err != nil {
				t.Fatal(err)
			}
			if adm2.Len() != 0 {
				t.Fatalf("new invocation admitted %d aspects after removal, want 0", adm2.Len())
			}
			m.Postactivation(inv2, adm2)

			// ...but the in-flight receipt still drives the removed
			// layer's postaction.
			m.Postactivation(inv, adm)
			mu.Lock()
			defer mu.Unlock()
			if len(events) != 2 || events[0] != "pre" || events[1] != "post" {
				t.Fatalf("events = %v, want [pre post]", events)
			}
		})
	}
}

// TestSupersededSnapshotsAreCollected: the moderator keeps no reference to
// a composition snapshot once a mutation supersedes it, so the garbage
// collector frees every one — even while a caller stays parked through
// all the churn. A parked caller holds the compiled plan it admits under,
// not the snapshot it loaded.
func TestSupersededSnapshotsAreCollected(t *testing.T) {
	m := New("gc")
	optSemStack(t, m)
	holder := aspect.NewInvocation(context.Background(), "gc", "m", nil)
	held, err := m.Preactivation(holder)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { // parks on the full semaphore until holder completes
		inv := aspect.NewInvocation(context.Background(), "gc", "m", nil)
		adm, err := m.Preactivation(inv)
		if err == nil {
			m.Postactivation(inv, adm)
		}
		done <- err
	}()
	waitWaiting(t, m, "m", 1)

	const churns = 300
	var freed atomic.Int64
	churn := &aspect.Func{AspectName: "churn", AspectKind: aspect.KindMetrics, NonBlockingFlag: true}
	for i := 0; i < churns; i++ {
		runtime.SetFinalizer(m.comp.Load(), func(*compState) { freed.Add(1) })
		var err error
		if i%2 == 0 {
			err = m.Register("other", aspect.KindMetrics, churn)
		} else {
			_, err = m.Unregister(BaseLayer, "other", aspect.KindMetrics)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < churns-1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d superseded snapshots collected while a caller stayed parked",
				freed.Load(), churns)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	m.Postactivation(holder, held)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestGroupMethodsRejectsActiveMerge: merging two admission domains that
// have both already seen traffic must fail with ErrDomainActive — the
// guard contract ("all hooks of a group run under one mutex") cannot be
// retrofitted onto live domains.
func TestGroupMethodsRejectsActiveMerge(t *testing.T) {
	m := New("grp")
	for _, meth := range []string{"a", "b"} {
		inv := aspect.NewInvocation(context.Background(), "grp", meth, nil)
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		m.Postactivation(inv, adm)
	}
	err := m.GroupMethods("a", "b")
	if err == nil {
		t.Fatal("grouping two active domains succeeded, want ErrDomainActive")
	}
	if !errorsIs(err, ErrDomainActive) {
		t.Fatalf("error = %v, want ErrDomainActive", err)
	}
	// Grouping an active domain with fresh methods is fine: the active
	// domain absorbs them.
	if err := m.GroupMethods("a", "c", "d"); err != nil {
		t.Fatalf("grouping active+fresh failed: %v", err)
	}
	groups := m.Domains()
	for _, g := range groups {
		has := map[string]bool{}
		for _, meth := range g {
			has[meth] = true
		}
		if has["a"] && (!has["c"] || !has["d"]) {
			t.Fatalf("a/c/d not merged: %v", groups)
		}
	}
}

// errorsIs avoids importing errors alongside the aspect package's
// re-exported sentinel comparisons elsewhere in this file.
func errorsIs(err, target error) bool {
	for err != nil {
		if err == target {
			return true
		}
		type unwrapper interface{ Unwrap() error }
		u, ok := err.(unwrapper)
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
