package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/aspect"
	"repro/internal/factory"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// testFactory provides sync and auth tracer aspects for any method,
// recording creations so tests can verify the Figure-2 initialization
// sequence (create before register, one aspect per declared cell).
type testFactory struct {
	reg     *factory.Registry
	created []string
}

func newTestFactory(t *testing.T) *testFactory {
	t.Helper()
	tf := &testFactory{reg: factory.NewRegistry()}
	provide := func(kind aspect.Kind) {
		err := tf.reg.Provide(factory.Wildcard, kind, func(method string, target any) (aspect.Aspect, error) {
			tf.created = append(tf.created, string(kind)+"/"+method)
			return aspect.New(string(kind)+"/"+method, kind, nil, nil), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	provide(aspect.KindSynchronization)
	provide(aspect.KindAuthentication)
	return tf
}

func (tf *testFactory) Create(method string, kind aspect.Kind, target any) (aspect.Aspect, error) {
	return tf.reg.Create(method, kind, target)
}

func body(result any) proxy.Method {
	return func(*aspect.Invocation) (any, error) { return result, nil }
}

func TestBuildEmptyNameFails(t *testing.T) {
	if _, err := NewComponent("").Build(); err == nil {
		t.Fatal("empty name must fail Build")
	}
}

func TestGuardWithoutFactoryFails(t *testing.T) {
	b := NewComponent("c")
	b.Bind("m", body(nil))
	b.Guard("m", aspect.KindSynchronization)
	if _, err := b.Build(); err == nil {
		t.Fatal("Guard without factory must fail Build")
	}
}

func TestInitializationPhaseCreatesAndRegisters(t *testing.T) {
	// Figure 2: for each declared (method, kind), the factory creates an
	// aspect and the moderator registers it before any invocation.
	tf := newTestFactory(t)
	b := NewComponent("ticket", WithFactory(tf), WithTarget("the-target"))
	b.Bind("open", body("opened"))
	b.Bind("assign", body("assigned"))
	b.Guard("open", aspect.KindSynchronization)
	b.Guard("assign", aspect.KindSynchronization)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	wantCreated := []string{"synchronization/open", "synchronization/assign"}
	if !reflect.DeepEqual(tf.created, wantCreated) {
		t.Errorf("factory creations = %v, want %v", tf.created, wantCreated)
	}
	for _, m := range []string{"open", "assign"} {
		aspects := c.Moderator().Aspects(m)
		if len(aspects) != 1 || aspects[0].Kind() != aspect.KindSynchronization {
			t.Errorf("method %s aspects = %v", m, aspects)
		}
	}
	got, err := c.Proxy().Invoke(context.Background(), "open", "t-1")
	if err != nil || got != "opened" {
		t.Errorf("invoke = %v, %v", got, err)
	}
}

func TestUseRegistersInstanceDirectly(t *testing.T) {
	calls := 0
	spy := aspect.New("spy", aspect.KindAudit, func(*aspect.Invocation) aspect.Verdict {
		calls++
		return aspect.Resume
	}, nil)
	b := NewComponent("c")
	b.Bind("m", body(nil))
	b.Use("m", aspect.KindAudit, spy)
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Proxy().Invoke(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("aspect calls = %d, want 1", calls)
	}
}

func TestDeclaredLayerOrdering(t *testing.T) {
	var order []string
	mk := func(name string) aspect.Aspect {
		return aspect.New(name, aspect.Kind(name), func(*aspect.Invocation) aspect.Verdict {
			order = append(order, name)
			return aspect.Resume
		}, nil)
	}
	b := NewComponent("c")
	b.Bind("m", body(nil))
	b.Layer("outer", moderator.Outermost)
	b.UseIn("outer", "m", "outer-kind", mk("outer"))
	b.Use("m", "base-kind", mk("base"))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Proxy().Invoke(context.Background(), "m"); err != nil {
		t.Fatal(err)
	}
	want := []string{"outer", "base"}
	if !reflect.DeepEqual(order, want) {
		t.Errorf("evaluation order = %v, want %v", order, want)
	}
}

func TestBuildErrorsPropagate(t *testing.T) {
	// Duplicate binding.
	b := NewComponent("c")
	b.Bind("m", body(nil))
	b.Bind("m", body(nil))
	if _, err := b.Build(); err == nil {
		t.Error("duplicate Bind must fail Build")
	}

	// Unknown layer in UseIn.
	b2 := NewComponent("c")
	b2.Bind("m", body(nil))
	b2.UseIn("ghost", "m", "k", aspect.New("a", "k", nil, nil))
	if _, err := b2.Build(); !errors.Is(err, moderator.ErrNoSuchLayer) {
		t.Errorf("UseIn ghost layer: %v", err)
	}

	// Factory that cannot create the requested kind.
	tf := newTestFactory(t)
	b3 := NewComponent("c", WithFactory(tf))
	b3.Bind("m", body(nil))
	b3.Guard("m", aspect.KindMetrics)
	if _, err := b3.Build(); !errors.Is(err, factory.ErrNoConstructor) {
		t.Errorf("unprovided kind: %v", err)
	}
}

func TestWithModeratorOptionsForwarded(t *testing.T) {
	b := NewComponent("c", WithModeratorOptions(moderator.WithWakeMode(moderator.WakeSingle)))
	b.Bind("m", body(nil))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// No direct accessor for wake mode; the moderator must at least have
	// been constructed with the component name.
	if c.Moderator().Name() != "c" {
		t.Errorf("moderator name = %q", c.Moderator().Name())
	}
}

func TestGroupDeclaresAdmissionDomain(t *testing.T) {
	b := NewComponent("c")
	b.Bind("put", body(nil)).Bind("get", body(nil)).Bind("peek", body(nil))
	b.Group("put", "get")
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]string{{"get", "put"}}
	if got := c.Moderator().Domains(); !reflect.DeepEqual(got, want) {
		t.Errorf("Domains = %v, want %v", got, want)
	}
}

func TestGroupNeedsTwoMethods(t *testing.T) {
	b := NewComponent("c")
	b.Bind("m", body(nil))
	b.Group("m")
	if _, err := b.Build(); err == nil {
		t.Fatal("single-method Group must fail Build")
	}
}
