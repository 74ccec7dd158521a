package moderator

import (
	"context"
	"testing"

	"repro/internal/aspect"
	"repro/internal/aspects/syncguard"
)

type smuggledKey struct{}

// smugglingGuard is the injected fault for the shadow detector: its
// verdict depends on an attribute the CALLER stamps on the invocation
// before admission — out-of-band state that is not a function of the
// declared inputs (method, args, priority, route key). The live path
// admits every stamped invocation; the replay reconstructs invocations
// from declared inputs only, so the reference semantics predict abort:
// a verdict divergence on every sample.
func smugglingGuard() *aspect.Func {
	return &aspect.Func{
		AspectName: "smuggling-guard",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if inv.Attr(smuggledKey{}) != nil {
				return aspect.Resume
			}
			return aspect.Abort
		},
	}
}

func TestShadowDetectsInjectedVerdictFault(t *testing.T) {
	m := New("comp")
	if err := m.Register("open", aspect.KindSynchronization, smugglingGuard()); err != nil {
		t.Fatal(err)
	}
	s := NewShadow(m, WithShadowSampleEvery(1))
	s.Start()
	m.SetShadow(s)

	const n = 32
	for i := 0; i < n; i++ {
		inv := aspect.NewInvocation(context.Background(), "comp", "open", nil)
		inv.SetAttr(smuggledKey{}, true)
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatalf("live admission %d: %v", i, err)
		}
		m.Postactivation(inv, adm)
	}
	m.SetShadow(nil)
	s.Stop()

	st := s.Stats()
	if st.Sampled != n {
		t.Errorf("sampled = %d, want %d (stride 1)", st.Sampled, n)
	}
	if st.Replayed+st.Dropped != st.Sampled {
		t.Errorf("replayed %d + dropped %d != sampled %d", st.Replayed, st.Dropped, st.Sampled)
	}
	if st.VerdictDivergences == 0 {
		t.Fatalf("injected verdict fault not detected within %d sampled admissions: %+v", n, st)
	}
	if st.VerdictDivergences != st.Replayed {
		t.Errorf("every replay should diverge: %d of %d", st.VerdictDivergences, st.Replayed)
	}
	if st.StackDivergences != 0 || st.WakeDivergences != 0 {
		t.Errorf("unexpected structural divergences: %+v", st)
	}
	divs := s.Divergences()
	if len(divs) == 0 {
		t.Fatal("no divergences recorded")
	}
	for _, d := range divs {
		if d.Class != "verdict" || d.Method != "open" || !d.LiveAdmitted || d.Predicted != "abort" {
			t.Errorf("unexpected divergence record: %+v", d)
		}
	}
}

// TestShadowCleanOnHonestGuards soaks the producer/consumer guard pair
// with every admission replayed: a sound, state-dependent stack must
// produce zero divergences — replays either agree or come back
// inconclusive (guard state moved on), never divergent.
func TestShadowCleanOnHonestGuards(t *testing.T) {
	m := New("comp")
	buf, err := syncguard.NewBuffer(4, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("open", aspect.KindSynchronization, buf.ProducerAspect()); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("assign", aspect.KindSynchronization, buf.ConsumerAspect()); err != nil {
		t.Fatal(err)
	}
	s := NewShadow(m, WithShadowSampleEvery(1), WithShadowBuffer(1024))
	s.Start()
	m.SetShadow(s)

	for i := 0; i < 200; i++ {
		for _, method := range []string{"open", "assign"} {
			i := aspect.NewInvocation(context.Background(), "comp", method, nil)
			adm, err := m.Preactivation(i)
			if err != nil {
				t.Fatalf("%s: %v", method, err)
			}
			m.Postactivation(i, adm)
		}
	}
	m.SetShadow(nil)
	s.Stop()

	st := s.Stats()
	if st.Divergences() != 0 {
		t.Fatalf("honest guards produced divergences: %+v\n%v", st, s.Divergences())
	}
	if st.Replayed == 0 {
		t.Fatal("nothing replayed")
	}
	if st.Agreements+st.Inconclusive != st.Replayed {
		t.Errorf("agreements %d + inconclusive %d != replayed %d", st.Agreements, st.Inconclusive, st.Replayed)
	}
	// Replay must leave guard state unperturbed: the buffer admits the
	// same alternation afterwards.
	i := aspect.NewInvocation(context.Background(), "comp", "open", nil)
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatalf("post-soak admission: %v", err)
	}
	m.Postactivation(i, adm)
}

// TestShadowInconclusiveWhenStateMovedOn pins the advisory contract: a
// live admission that itself consumed the last capacity makes the replay
// see Block; that is counted inconclusive, not divergent.
func TestShadowInconclusiveWhenStateMovedOn(t *testing.T) {
	m := New("comp")
	buf, err := syncguard.NewBuffer(1, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register("open", aspect.KindSynchronization, buf.ProducerAspect()); err != nil {
		t.Fatal(err)
	}
	if err := m.Register("assign", aspect.KindSynchronization, buf.ConsumerAspect()); err != nil {
		t.Fatal(err)
	}
	s := NewShadow(m, WithShadowSampleEvery(1))
	// Worker deliberately NOT started yet: the sample replays only after
	// the live admission completed and filled the capacity-1 buffer.
	m.SetShadow(s)
	i := aspect.NewInvocation(context.Background(), "comp", "open", nil)
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatal(err)
	}
	m.Postactivation(i, adm)
	m.SetShadow(nil)
	s.Start()
	s.Stop()

	st := s.Stats()
	if st.Sampled != 1 || st.Replayed != 1 {
		t.Fatalf("sampled %d replayed %d, want 1/1", st.Sampled, st.Replayed)
	}
	if st.Inconclusive != 1 {
		t.Errorf("replay against moved-on state: inconclusive = %d, want 1 (%+v)", st.Inconclusive, st)
	}
	if st.Divergences() != 0 {
		t.Errorf("moved-on state misread as divergence: %+v", st)
	}
}

func TestShadowSamplingStride(t *testing.T) {
	m := New("comp")
	if err := m.Register("open", aspect.KindMetrics,
		&aspect.Func{AspectName: "veneer", AspectKind: aspect.KindMetrics, NonBlockingFlag: true}); err != nil {
		t.Fatal(err)
	}
	s := NewShadow(m, WithShadowSampleEvery(4))
	s.Start()
	m.SetShadow(s)
	for i := 0; i < 16; i++ {
		inv := aspect.NewInvocation(context.Background(), "comp", "open", nil)
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		m.Postactivation(inv, adm)
	}
	m.SetShadow(nil)
	s.Stop()
	st := s.Stats()
	if st.Sampled != 4 {
		t.Errorf("stride 4 over 16 admissions sampled %d, want 4", st.Sampled)
	}
	// The pure fast path is sampled too (the whole point: shadow watches
	// the path the oracle cannot reach in tests), and NonBlocking veneers
	// replay in agreement.
	if st.Agreements != st.Replayed || st.Divergences() != 0 {
		t.Errorf("pure-plan replays should all agree: %+v", st)
	}
}
