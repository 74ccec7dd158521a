package moderator

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/aspect"
)

// recordingSink collects the (method, first-arg) pairs of every effect.
type recordingSink struct {
	mu  sync.Mutex
	got []string
}

func (s *recordingSink) Effect(inv *aspect.Invocation) {
	s.mu.Lock()
	s.got = append(s.got, inv.Method())
	s.mu.Unlock()
}

func (s *recordingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func admitEffect(t *testing.T, m *Moderator, method string, bodyErr error) {
	t.Helper()
	inv := aspect.NewInvocation(context.Background(), "fx", method, nil)
	adm, err := m.Preactivation(inv)
	if err != nil {
		t.Fatalf("admission: %v", err)
	}
	inv.SetResult(nil, bodyErr)
	m.Postactivation(inv, adm)
}

// TestEffectSinkFiresOnEveryCompletionRoute pins the capture hook's
// placement: the sink fires at the top of Postactivation, before any
// completion route branches off — pure fast path, optimistic guarded
// path, and mutex path completions all replicate alike.
func TestEffectSinkFiresOnEveryCompletionRoute(t *testing.T) {
	// Pure stack: the lock-free fast path.
	pure := New("fx")
	if err := pure.Register("m", aspect.KindAudit, &aspect.Func{
		AspectName: "audit", AspectKind: aspect.KindAudit, NonBlockingFlag: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Guarded stack forced onto the mutex path.
	mux := forceMutexRoute(New("fx"))
	if err := mux.Register("m", aspect.KindSynchronization, &aspect.Func{
		AspectName: "sem", AspectKind: aspect.KindSynchronization,
		Pre:  func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
		Post: func(*aspect.Invocation) {},
	}); err != nil {
		t.Fatal(err)
	}

	for name, m := range map[string]*Moderator{"pure": pure, "mutex": mux} {
		sink := &recordingSink{}
		m.SetEffectSink(sink)
		admitEffect(t, m, "m", nil)
		if sink.count() != 1 {
			t.Fatalf("%s route: sink fired %d times, want 1", name, sink.count())
		}
		// Errored bodies are not effects: nothing replicates.
		admitEffect(t, m, "m", errors.New("body failed"))
		if sink.count() != 1 {
			t.Fatalf("%s route: errored completion replicated", name)
		}
		// Detached sink: the hot path is back to one nil-check.
		m.SetEffectSink(nil)
		admitEffect(t, m, "m", nil)
		if sink.count() != 1 {
			t.Fatalf("%s route: detached sink still fired", name)
		}
	}
}

// TestEffectSinkOptimisticRoute pins the same contract on the optimistic
// guard-cell path specifically, proving the measurement exercised it.
func TestEffectSinkOptimisticRoute(t *testing.T) {
	m := New("fx")
	occupancy := optSemStack(t, m)
	sink := &recordingSink{}
	m.SetEffectSink(sink)
	const n = 50
	for i := 0; i < n; i++ {
		admitEffect(t, m, "m", nil)
	}
	if sink.count() != n {
		t.Fatalf("sink fired %d times, want %d", sink.count(), n)
	}
	if os := m.OptimisticStats(); os.Admits == 0 || os.Completes == 0 {
		t.Fatalf("optimistic path never committed: %+v", os)
	}
	if got := occupancy(); got != 0 {
		t.Fatalf("semaphore leaked %d admissions", got)
	}
}
