package moderator

// Table-driven coverage of WakeSingle vs WakeBroadcast on per-domain
// queues, run against BOTH the sharded moderator and the single-mutex
// reference. Includes the heterogeneous-guard stranding case that the
// WakeSingle documentation warns about but nothing previously tested: the
// wake policy picks the queue's FIFO head, not the waiter the completed
// work actually made admissible, so a single wake can be consumed by a
// still-blocked waiter while an admissible one stays parked.

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
)

var wakeImpls = []struct {
	name string
	mk   func(opts ...Option) Admitter
}{
	{"sharded", func(opts ...Option) Admitter { return New("wp", opts...) }},
	{"reference", func(opts ...Option) Admitter { return NewReference("wp", opts...) }},
}

// admissionLock returns the lock under which a method's aspect hooks run,
// so tests can mutate guard state the way an external event source would.
func admissionLock(impl Admitter, method string) *sync.Mutex {
	switch v := impl.(type) {
	case *Moderator:
		return &v.domainFor(method).mu
	case *Reference:
		return &v.mu
	default:
		panic("unknown Admitter implementation")
	}
}

func waitWaiting(t *testing.T, impl Admitter, method string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for impl.Waiting(method) != n {
		if time.Now().After(deadline) {
			t.Fatalf("Waiting(%s) never reached %d (at %d)", method, n, impl.Waiting(method))
		}
		time.Sleep(200 * time.Microsecond)
	}
}

func waitBlocks(t *testing.T, impl Admitter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for impl.Stats().Blocks != want {
		if time.Now().After(deadline) {
			t.Fatalf("Blocks never reached %d (at %d)", want, impl.Stats().Blocks)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// TestWakeModeSemaphoreRelease: a capacity-1 semaphore holder completes
// while three callers wait. Both modes admit exactly one waiter — but
// WakeSingle wakes only the FIFO head (no extra guard evaluations), while
// WakeBroadcast wakes all three and re-parks the two losers, visible as
// two extra Block counts.
func TestWakeModeSemaphoreRelease(t *testing.T) {
	cases := []struct {
		name        string
		mode        WakeMode
		extraBlocks uint64
	}{
		{"single", WakeSingle, 0},
		{"broadcast", WakeBroadcast, 2},
	}
	for _, impl := range wakeImpls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				m := impl.mk(WithWakeMode(tc.mode))
				used := 0
				sem := &aspect.Func{
					AspectName: "sem",
					AspectKind: aspect.KindSynchronization,
					Pre: func(*aspect.Invocation) aspect.Verdict {
						if used >= 1 {
							return aspect.Block
						}
						used++
						return aspect.Resume
					},
					Post:     func(*aspect.Invocation) { used-- },
					CancelFn: func(*aspect.Invocation) { used-- },
					WakeList: []string{"m"},
				}
				if err := m.Register("m", aspect.KindSynchronization, sem); err != nil {
					t.Fatal(err)
				}

				holder := aspect.NewInvocation(context.Background(), "wp", "m", nil)
				holderAdm, err := m.Preactivation(holder)
				if err != nil {
					t.Fatal(err)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				admitted := make(chan *Admission, 3)
				for i := 0; i < 3; i++ {
					go func() {
						inv := aspect.NewInvocation(ctx, "wp", "m", nil)
						adm, err := m.Preactivation(inv)
						if err == nil {
							admitted <- adm
						}
					}()
				}
				waitWaiting(t, m, "m", 3)
				if b := m.Stats().Blocks; b != 3 {
					t.Fatalf("blocks before release = %d, want 3", b)
				}

				m.Postactivation(holder, holderAdm)

				select {
				case <-admitted:
				case <-time.After(5 * time.Second):
					t.Fatal("no waiter admitted after release")
				}
				waitWaiting(t, m, "m", 2)
				waitBlocks(t, m, 3+tc.extraBlocks)
				select {
				case <-admitted:
					t.Fatal("second waiter admitted; capacity is 1")
				case <-time.After(20 * time.Millisecond):
				}
			})
		}
	}
}

// TestWakeModeHeterogeneousGuardStranding: two waiters share one
// (method, kind) queue but are blocked on DIFFERENT per-invocation needs —
// the first wants an apple, the second a banana. A banana arrives and the
// queue is kicked. Under WakeSingle the FIFO head (the apple-waiter) eats
// the only wake-up, re-parks, and the admissible banana-waiter stays
// stranded with its banana in stock. Under WakeBroadcast every waiter
// re-evaluates and the banana-waiter proceeds. This is the documented
// trade-off of WakeSingle with heterogeneous guards, now pinned by a test.
func TestWakeModeHeterogeneousGuardStranding(t *testing.T) {
	cases := []struct {
		name          string
		mode          WakeMode
		wantWaiting   int
		wantAdmitted  bool
		bananaInStock int
	}{
		{"single-strands", WakeSingle, 2, false, 1},
		{"broadcast-admits", WakeBroadcast, 1, true, 0},
	}
	for _, impl := range wakeImpls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				m := impl.mk(WithWakeMode(tc.mode))
				stock := map[string]int{}
				fruit := &aspect.Func{
					AspectName: "fruit-guard",
					AspectKind: aspect.KindSynchronization,
					Pre: func(inv *aspect.Invocation) aspect.Verdict {
						want, _ := inv.Arg(0).(string)
						if stock[want] == 0 {
							return aspect.Block
						}
						stock[want]--
						return aspect.Resume
					},
				}
				if err := m.Register("m", aspect.KindSynchronization, fruit); err != nil {
					t.Fatal(err)
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				admitted := make(chan string, 2)
				park := func(want string) {
					go func() {
						inv := aspect.NewInvocation(ctx, "wp", "m", []any{want})
						if _, err := m.Preactivation(inv); err == nil {
							admitted <- want
						}
					}()
				}
				// FIFO order matters: the apple-waiter must be the head.
				park("apple")
				waitWaiting(t, m, "m", 1)
				park("banana")
				waitWaiting(t, m, "m", 2)

				mu := admissionLock(m, "m")
				mu.Lock()
				stock["banana"] = 1
				mu.Unlock()
				m.Kick("m")

				if tc.wantAdmitted {
					select {
					case got := <-admitted:
						if got != "banana" {
							t.Fatalf("admitted %q, want banana", got)
						}
					case <-time.After(5 * time.Second):
						t.Fatal("banana-waiter never admitted")
					}
				} else {
					select {
					case got := <-admitted:
						t.Fatalf("%q admitted; WakeSingle should have stranded it behind the FIFO head", got)
					case <-time.After(50 * time.Millisecond):
					}
				}
				waitWaiting(t, m, "m", tc.wantWaiting)
				mu.Lock()
				got := stock["banana"]
				mu.Unlock()
				if got != tc.bananaInStock {
					t.Fatalf("bananas in stock = %d, want %d", got, tc.bananaInStock)
				}
			})
		}
	}
}

// TestWakeModeGroupedProducerConsumer: produce and consume share one
// admission domain (declared via the control aspect's wake list). Two
// consumers wait on an empty buffer; one produce makes exactly one item
// available. Both modes deliver exactly one consumer; broadcast shows the
// extra re-park of the loser.
func TestWakeModeGroupedProducerConsumer(t *testing.T) {
	cases := []struct {
		name        string
		mode        WakeMode
		extraBlocks uint64
	}{
		{"single", WakeSingle, 0},
		{"broadcast", WakeBroadcast, 1},
	}
	for _, impl := range wakeImpls {
		for _, tc := range cases {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				m := impl.mk(WithWakeMode(tc.mode))
				items := 0
				if err := m.Register("consume", aspect.KindSynchronization, &aspect.Func{
					AspectName: "items-guard",
					AspectKind: aspect.KindSynchronization,
					Pre: func(*aspect.Invocation) aspect.Verdict {
						if items == 0 {
							return aspect.Block
						}
						items--
						return aspect.Resume
					},
					WakeList: []string{"produce", "consume"},
				}); err != nil {
					t.Fatal(err)
				}
				if err := m.Register("produce", aspect.KindSynchronization, &aspect.Func{
					AspectName: "producer",
					AspectKind: aspect.KindSynchronization,
					Post:       func(*aspect.Invocation) { items++ },
					WakeList:   []string{"produce", "consume"},
				}); err != nil {
					t.Fatal(err)
				}
				if sm, ok := m.(*Moderator); ok {
					// The wake lists must have auto-grouped the pair.
					groups := sm.Domains()
					if len(groups) != 1 || len(groups[0]) != 2 {
						t.Fatalf("produce/consume not auto-grouped: %v", groups)
					}
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				admitted := make(chan struct{}, 2)
				for i := 0; i < 2; i++ {
					go func() {
						inv := aspect.NewInvocation(ctx, "wp", "consume", nil)
						if _, err := m.Preactivation(inv); err == nil {
							admitted <- struct{}{}
						}
					}()
				}
				waitWaiting(t, m, "consume", 2)

				inv := aspect.NewInvocation(context.Background(), "wp", "produce", nil)
				adm, err := m.Preactivation(inv)
				if err != nil {
					t.Fatal(err)
				}
				m.Postactivation(inv, adm)

				select {
				case <-admitted:
				case <-time.After(5 * time.Second):
					t.Fatal("no consumer admitted after produce")
				}
				waitWaiting(t, m, "consume", 1)
				waitBlocks(t, m, 2+tc.extraBlocks)
				select {
				case <-admitted:
					t.Fatal("second consumer admitted; only one item was produced")
				case <-time.After(20 * time.Millisecond):
				}
			})
		}
	}
}

// TestWakeFanOutReachesEveryQueueOfItsTargets: a domain keeps one queue per
// (method, kind of the blocking aspect), and a completion's fan-out walks
// them. One group {a, b, wake-a, wake-any}: a has a caller parked under a
// synchronization guard and one under a scheduling guard, b has one. A
// completion whose plan wakes only a must wake both of a's queues and none
// of b's; a completion whose plan declares no targets must wake every
// queue, including b's scheduling queue, first created after the earlier
// completion. The parked callers' gates are opened before each
// completion, so a queue that was woken shows as an admitted caller, and
// one that was not as a caller still parked.
func TestWakeFanOutReachesEveryQueueOfItsTargets(t *testing.T) {
	modes := []struct {
		name string
		mode WakeMode
	}{
		{"broadcast", WakeBroadcast},
		{"single", WakeSingle},
	}
	for _, impl := range wakeImpls {
		for _, tc := range modes {
			t.Run(impl.name+"/"+tc.name, func(t *testing.T) {
				m := impl.mk(WithWakeMode(tc.mode))
				if err := m.GroupMethods("a", "b", "wake-a", "wake-any"); err != nil {
					t.Fatal(err)
				}
				// open[k] lets through the callers whose argument is k; it
				// is read and written under the group's admission lock.
				open := map[string]bool{}
				gate := func(method string, kind aspect.Kind) {
					key := method + "/" + string(kind)
					if err := m.Register(method, kind, &aspect.Func{
						AspectName: key + "-gate",
						AspectKind: kind,
						Pre: func(inv *aspect.Invocation) aspect.Verdict {
							if inv.Arg(0) == key && !open[key] {
								return aspect.Block
							}
							return aspect.Resume
						},
					}); err != nil {
						t.Fatal(err)
					}
				}
				gate("a", aspect.KindSynchronization)
				gate("a", aspect.KindScheduling)
				gate("b", aspect.KindSynchronization)
				gate("b", aspect.KindScheduling)
				if err := m.Register("wake-a", aspect.KindSynchronization, &aspect.Func{
					AspectName: "wakes-a", AspectKind: aspect.KindSynchronization, WakeList: []string{"a"},
				}); err != nil {
					t.Fatal(err)
				}
				if err := m.Register("wake-any", aspect.KindSynchronization, &aspect.Func{
					AspectName: "wakes-nothing-declared", AspectKind: aspect.KindSynchronization,
				}); err != nil {
					t.Fatal(err)
				}
				if sm, ok := m.(*Moderator); ok {
					if groups := sm.Domains(); len(groups) != 1 {
						t.Fatalf("domains = %v, want one group", groups)
					}
				}

				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				admitted := make(chan string, 4)
				park := func(method, key string) {
					go func() {
						inv := aspect.NewInvocation(ctx, "wp", method, []any{key})
						if _, err := m.Preactivation(inv); err == nil {
							admitted <- key
						}
					}()
				}
				complete := func(method string) {
					inv := aspect.NewInvocation(context.Background(), "wp", method, nil)
					adm, err := m.Preactivation(inv)
					if err != nil {
						t.Fatal(err)
					}
					m.Postactivation(inv, adm)
				}
				openGates := func(keys ...string) {
					mu := admissionLock(m, "a")
					mu.Lock()
					for _, k := range keys {
						open[k] = true
					}
					mu.Unlock()
				}
				// wakes reads the wake-ups each queue has been sent; the
				// fan-out runs inside Postactivation, so it is exact once
				// Postactivation returns.
				wakes := func() map[string]uint64 {
					out := map[string]uint64{}
					for k, s := range m.QueueStats() {
						out[k] = s.Notifies + s.Broadcasts
					}
					return out
				}
				expectAdmitted := func(keys ...string) {
					t.Helper()
					want := map[string]bool{}
					for _, k := range keys {
						want[k] = true
					}
					for range keys {
						select {
						case k := <-admitted:
							if !want[k] {
								t.Fatalf("caller %q admitted, want only %v", k, keys)
							}
							delete(want, k)
						case <-time.After(5 * time.Second):
							t.Fatalf("callers %v never admitted", want)
						}
					}
				}

				park("a", "a/synchronization")
				waitWaiting(t, m, "a", 1)
				park("a", "a/scheduling")
				park("b", "b/synchronization")
				waitWaiting(t, m, "a", 2) // one caller under each kind
				waitWaiting(t, m, "b", 1)

				openGates("a/synchronization", "a/scheduling", "b/synchronization")
				complete("wake-a")
				if got := wakes(); got["a/synchronization"] != 1 || got["a/scheduling"] != 1 || got["b/synchronization"] != 0 {
					t.Fatalf("after a completion that targets a, wake-ups per queue = %v; want 1 on each of a's queues, 0 on b's", got)
				}
				expectAdmitted("a/synchronization", "a/scheduling")
				waitWaiting(t, m, "a", 0)
				select {
				case k := <-admitted:
					t.Fatalf("caller %q admitted; the completion targeted only a", k)
				case <-time.After(20 * time.Millisecond):
				}
				if n := m.Waiting("b"); n != 1 {
					t.Fatalf("Waiting(b) = %d, want 1", n)
				}

				park("b", "b/scheduling") // its queue is created now
				waitWaiting(t, m, "b", 2)
				openGates("b/scheduling")
				complete("wake-any")
				if got := wakes(); got["b/synchronization"] != 1 || got["b/scheduling"] != 1 {
					t.Fatalf("after a completion with no declared targets, wake-ups per queue = %v; want 1 on each of b's queues", got)
				}
				expectAdmitted("b/synchronization", "b/scheduling")
				waitWaiting(t, m, "b", 0)
			})
		}
	}
}
