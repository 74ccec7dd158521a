package moderator

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/aspect"
)

// An effect sink is a passive aspect in an innermost layer whose
// postaction records every successful completion: the shape the cluster's
// replication capture takes. These tests hold the moderator to what such
// a sink relies on, without a cluster around it.

// recordingSink collects the method of every captured effect, and the
// order in which the sink and the other postactions ran.
type recordingSink struct {
	mu    sync.Mutex
	got   []string
	posts []string
}

func (s *recordingSink) post(name string) {
	s.mu.Lock()
	s.posts = append(s.posts, name)
	s.mu.Unlock()
}

func (s *recordingSink) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.got)
}

func (s *recordingSink) postOrder() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]string(nil), s.posts...)
}

// attachEffectSink composes sink as the innermost layer "effects" on
// method m.
func attachEffectSink(t *testing.T, m *Moderator, method string, sink *recordingSink) {
	t.Helper()
	if err := m.AddLayer("effects", Innermost); err != nil {
		t.Fatal(err)
	}
	kind := aspect.Kind("effects")
	if err := m.RegisterIn("effects", method, kind, &aspect.Func{
		AspectName: "sink", AspectKind: kind, NonBlockingFlag: true,
		Post: func(inv *aspect.Invocation) {
			sink.post("sink")
			if inv.Err() == nil {
				sink.mu.Lock()
				sink.got = append(sink.got, inv.Method())
				sink.mu.Unlock()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
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

// TestEffectSinkFiresOnEveryCompletionRoute pins the sink's placement: an
// innermost layer's postaction runs once per completion, before any other
// concern's postaction, on the pure fast path, on the mutex path, and for
// a method with no aspects of its own; it sees a failed body's error, and
// removing the layer detaches it.
func TestEffectSinkFiresOnEveryCompletionRoute(t *testing.T) {
	routes := map[string]func(*recordingSink) *Moderator{
		// Pure stack: the lock-free fast path.
		"pure": func(s *recordingSink) *Moderator {
			m := New("fx")
			if err := m.Register("m", aspect.KindAudit, &aspect.Func{
				AspectName: "audit", AspectKind: aspect.KindAudit, NonBlockingFlag: true,
				Post: func(*aspect.Invocation) { s.post("audit") },
			}); err != nil {
				t.Fatal(err)
			}
			return m
		},
		// Guarded stack forced onto the mutex path.
		"mutex": func(s *recordingSink) *Moderator {
			m := forceMutexRoute(New("fx"))
			if err := m.Register("m", aspect.KindSynchronization, &aspect.Func{
				AspectName: "sem", AspectKind: aspect.KindSynchronization,
				Pre:  func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
				Post: func(*aspect.Invocation) { s.post("sem") },
			}); err != nil {
				t.Fatal(err)
			}
			return m
		},
		// No aspect of its own: the sink is the method's whole plan.
		"bare": func(*recordingSink) *Moderator { return New("fx") },
	}

	for name, build := range routes {
		sink := &recordingSink{}
		m := build(sink)
		attachEffectSink(t, m, "m", sink)
		admitEffect(t, m, "m", nil)
		if sink.count() != 1 {
			t.Fatalf("%s route: sink fired %d times, want 1", name, sink.count())
		}
		if order := sink.postOrder(); order[0] != "sink" {
			t.Fatalf("%s route: postactions ran %v, want the sink first", name, order)
		}
		// Errored bodies are not effects: nothing is recorded.
		admitEffect(t, m, "m", errors.New("body failed"))
		if sink.count() != 1 {
			t.Fatalf("%s route: errored completion recorded", name)
		}
		// Detached sink: the layer is gone, and so is the capture.
		if err := m.RemoveLayer("effects"); err != nil {
			t.Fatal(err)
		}
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
	attachEffectSink(t, m, "m", sink)
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
