package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

// fakeClock is a manually advanced clock.
type fakeClock struct{ t time.Time }

func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1000, 0)} }
func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestCircuitBreakerValidation(t *testing.T) {
	if _, err := NewCircuitBreaker(CircuitBreakerConfig{Threshold: 0, Cooldown: time.Second}); err == nil {
		t.Error("threshold 0 must error")
	}
	if _, err := NewCircuitBreaker(CircuitBreakerConfig{Threshold: 1, Cooldown: 0}); err == nil {
		t.Error("cooldown 0 must error")
	}
}

// run performs one admission/completion round against the breaker aspect,
// with the given body error, and returns the pre-activation verdict.
func run(a aspect.Aspect, bodyErr error) aspect.Verdict {
	i := inv("m")
	v := a.Precondition(i)
	if v == aspect.Resume {
		i.SetResult(nil, bodyErr)
		a.Postaction(i)
	}
	return v
}

func TestCircuitBreakerTripAndRecovery(t *testing.T) {
	clk := newFakeClock()
	cb, err := NewCircuitBreaker(CircuitBreakerConfig{
		Threshold: 3,
		Cooldown:  10 * time.Second,
		Now:       clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := cb.Aspect("breaker")
	boom := errors.New("component down")

	// Two failures: still closed (threshold 3).
	run(a, boom)
	run(a, boom)
	if cb.State() != "closed" {
		t.Fatalf("state after 2 failures = %s", cb.State())
	}
	// A success resets the consecutive count.
	run(a, nil)
	run(a, boom)
	run(a, boom)
	if cb.State() != "closed" {
		t.Fatalf("state after reset+2 = %s", cb.State())
	}
	// Third consecutive failure trips it.
	run(a, boom)
	if cb.State() != "open" {
		t.Fatalf("state after 3 consecutive = %s", cb.State())
	}

	// While open, calls shed with ErrCircuitOpen.
	i := inv("m")
	if v := a.Precondition(i); v != aspect.Abort {
		t.Fatalf("open breaker verdict = %v", v)
	}
	if !errors.Is(i.Err(), ErrCircuitOpen) {
		t.Errorf("err = %v", i.Err())
	}

	// After cooldown: half-open admits one probe; a failure re-opens.
	clk.advance(11 * time.Second)
	if v := run(a, boom); v != aspect.Resume {
		t.Fatalf("probe verdict = %v", v)
	}
	if cb.State() != "open" {
		t.Fatalf("state after failed probe = %s", cb.State())
	}

	// After another cooldown: successful probe closes.
	clk.advance(11 * time.Second)
	if v := run(a, nil); v != aspect.Resume {
		t.Fatalf("probe verdict = %v", v)
	}
	if cb.State() != "closed" {
		t.Fatalf("state after good probe = %s", cb.State())
	}
	if v := run(a, nil); v != aspect.Resume {
		t.Fatalf("closed breaker verdict = %v", v)
	}
}

func TestCircuitBreakerSingleProbe(t *testing.T) {
	clk := newFakeClock()
	cb, err := NewCircuitBreaker(CircuitBreakerConfig{
		Threshold: 1, Cooldown: time.Second, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	a := cb.Aspect("breaker")
	run(a, errors.New("down")) // trips immediately
	clk.advance(2 * time.Second)

	// First probe admitted but not yet completed.
	p := inv("m")
	if a.Precondition(p) != aspect.Resume {
		t.Fatal("probe must be admitted")
	}
	// Second concurrent call while probe in flight: shed.
	if a.Precondition(inv("m")) != aspect.Abort {
		t.Fatal("second probe must be shed")
	}
	// Cancel releases the probe slot.
	a.(aspect.Canceler).Cancel(p)
	if a.Precondition(inv("m")) != aspect.Resume {
		t.Fatal("probe slot must be reusable after cancel")
	}
}

// flakyComponent fails the first n invocations of each method.
type flakyComponent struct {
	failures int
	calls    int
}

func (f *flakyComponent) body(*aspect.Invocation) (any, error) {
	f.calls++
	if f.calls <= f.failures {
		return nil, errors.New("transient")
	}
	return "ok", nil
}

func TestBreakerUnderProxyIntegration(t *testing.T) {
	// Breaker + flaky component wired through the full proxy stack: the
	// breaker must shed while open and recover after cooldown.
	clk := newFakeClock()
	cb, err := NewCircuitBreaker(CircuitBreakerConfig{
		Threshold: 2, Cooldown: time.Second, Now: clk.now,
	})
	if err != nil {
		t.Fatal(err)
	}
	comp := &flakyComponent{failures: 2}
	p := proxy.New(moderator.New("svc"))
	if err := p.Bind("m", comp.body); err != nil {
		t.Fatal(err)
	}
	if err := p.Moderator().Register("m", aspect.KindFaultTolerance, cb.Aspect("breaker")); err != nil {
		t.Fatal(err)
	}

	// Two failures trip the breaker.
	for k := 0; k < 2; k++ {
		if _, err := p.Invoke(context.Background(), "m"); err == nil {
			t.Fatal("flaky call should fail")
		}
	}
	// Open: shed without reaching the component.
	callsBefore := comp.calls
	if _, err := p.Invoke(context.Background(), "m"); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("want ErrCircuitOpen, got %v", err)
	}
	if comp.calls != callsBefore {
		t.Error("shed call must not reach the component")
	}
	// Recover.
	clk.advance(2 * time.Second)
	got, err := p.Invoke(context.Background(), "m")
	if err != nil || got != "ok" {
		t.Fatalf("probe = %v, %v", got, err)
	}
}
