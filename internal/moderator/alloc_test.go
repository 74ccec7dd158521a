package moderator

// Allocation guard for the admission hot path (tier-1). Compiled plans
// move all plan resolution to publish time and receipts are pooled, so a
// steady-state admission must not allocate:
//
//   - pure stack (all aspects NonBlocking), uncontended: 0 allocs/op —
//     the lock-free fast path touches only the snapshot, the plan, the
//     domain atomics, and the receipt pool.
//   - guarded stack, uncontended (optimistic guard-cell path): 0
//     allocs/op — the optimistic commit returns the plan's shared
//     receipt, so nothing per-invocation is ever materialized.
//   - guarded stack forced onto the mutex route (by an installed tracer
//     — the same driver every fallback runs): at most 2 allocs/op of
//     slack for the receipt-pool round trip and mutex-route bookkeeping
//     (in practice this is also 0 — the bound leaves room for runtime
//     pool internals, not for per-invocation plan resolution).

import (
	"context"
	"testing"

	"repro/internal/aspect"
)

func measureAdmissionAllocs(t *testing.T, m *Moderator, method string) float64 {
	t.Helper()
	inv := aspect.NewInvocation(context.Background(), "alloc", method, nil)
	var failed error
	allocs := testing.AllocsPerRun(1000, func() {
		adm, err := m.Preactivation(inv)
		if err != nil {
			failed = err
			return
		}
		m.Postactivation(inv, adm)
	})
	if failed != nil {
		t.Fatalf("admission failed: %v", failed)
	}
	return allocs
}

func TestAdmissionAllocationsPureStack(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := New("alloc")
	for _, name := range []string{"pure-a", "pure-b", "pure-c"} {
		err := m.Register("m", aspect.KindAudit, &aspect.Func{
			AspectName:      name,
			AspectKind:      aspect.KindAudit,
			NonBlockingFlag: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := measureAdmissionAllocs(t, m, "m"); got != 0 {
		t.Fatalf("pure-stack admission allocated %.1f times per op, want 0", got)
	}
}

func TestAdmissionAllocationsGuardedFastOptimistic(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	m := New("alloc")
	occupancy := optSemStack(t, m)
	if got := measureAdmissionAllocs(t, m, "m"); got != 0 {
		t.Fatalf("optimistic guarded admission allocated %.1f times per op, want 0", got)
	}
	// Prove the measurement exercised the optimistic path, not a silent
	// mutex fallback that happened to stay within budget.
	if os := m.OptimisticStats(); os.Admits == 0 || os.Completes == 0 {
		t.Fatalf("optimistic path never committed during the measurement: %+v", os)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}

func TestAdmissionAllocationsGuardedStackMutexPath(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	// A tracer forces the exact route every optimistic fallback takes,
	// pinning the documented fallback bound.
	m := forceMutexRoute(New("alloc"))
	used := 0
	guard := &aspect.Func{
		AspectName: "sem",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			used++
			return aspect.Resume // capacity 1, single caller: never blocks
		},
		Post:     func(*aspect.Invocation) { used-- },
		CancelFn: func(*aspect.Invocation) { used-- },
		WakeList: []string{"m"},
	}
	if err := m.Register("m", aspect.KindSynchronization, guard); err != nil {
		t.Fatal(err)
	}
	if got := measureAdmissionAllocs(t, m, "m"); got > 2 {
		t.Fatalf("guarded-stack admission allocated %.1f times per op, want <= 2", got)
	}
	if used != 0 {
		t.Fatalf("guard leaked %d admissions", used)
	}
}
