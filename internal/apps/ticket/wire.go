package ticket

import (
	"fmt"

	"repro/internal/aspect"
	"repro/internal/aspects/audit"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/metrics"
	"repro/internal/aspects/obsaudit"
	"repro/internal/aspects/syncguard"
	"repro/internal/core"
	"repro/internal/factory"
	"repro/internal/moderator"
	"repro/internal/obs"
	"repro/internal/proxy"
)

// Method names of the participating methods.
const (
	MethodOpen   = "open"
	MethodAssign = "assign"
)

// ComponentName is the guarded component's registered name.
const ComponentName = "ticket-server"

// Guarded is the framework-composed ticket service: the sequential Server
// wrapped by a proxy whose moderator evaluates the registered aspects —
// the full architecture of the paper's Figure 1 instantiated for the
// trouble-ticketing example.
type Guarded struct {
	component *core.Component
	server    *Server
	buffer    *syncguard.Buffer
	store     *auth.TokenStore
}

// GuardedConfig configures NewGuarded. Capacity is required; the optional
// collaborators add their concern when non-nil.
type GuardedConfig struct {
	// Capacity of the ticket buffer.
	Capacity int
	// Audit, when non-nil, records every invocation on the trail.
	Audit *audit.Trail
	// Metrics, when non-nil, measures every invocation.
	Metrics *metrics.Recorder
	// Obs, when non-nil, turns on observability: the moderator's trace
	// hooks feed the collector, the collector polls the moderator for
	// exact aggregates, and an obsaudit aspect records spans through the
	// aspect-bank path.
	Obs *obs.Collector
	// ModeratorOptions forwards wake policy/mode to the moderator.
	ModeratorOptions []moderator.Option
}

// NewFactory builds the application's aspect factory — the paper's
// AspectFactory of Figure 6: it knows how to create the synchronization
// aspects for open and assign (from the shared buffer guard state) plus
// the optional audit and metrics aspects.
func NewFactory(buf *syncguard.Buffer, trail *audit.Trail, rec *metrics.Recorder) (factory.Factory, error) {
	reg := factory.NewRegistry()
	err := reg.Provide(MethodOpen, aspect.KindSynchronization, func(string, any) (aspect.Aspect, error) {
		return buf.ProducerAspect(), nil
	})
	if err != nil {
		return nil, err
	}
	err = reg.Provide(MethodAssign, aspect.KindSynchronization, func(string, any) (aspect.Aspect, error) {
		return buf.ConsumerAspect(), nil
	})
	if err != nil {
		return nil, err
	}
	if trail != nil {
		err = reg.Provide(factory.Wildcard, aspect.KindAudit, func(method string, _ any) (aspect.Aspect, error) {
			return trail.Aspect("audit-" + method), nil
		})
		if err != nil {
			return nil, err
		}
	}
	if rec != nil {
		err = reg.Provide(factory.Wildcard, aspect.KindMetrics, func(method string, _ any) (aspect.Aspect, error) {
			return rec.Aspect("metrics-" + method), nil
		})
		if err != nil {
			return nil, err
		}
	}
	return reg, nil
}

// NewGuarded assembles the guarded ticket service, performing the paper's
// initialization phase (Figure 2): create the synchronization aspects via
// the factory and register them with the moderator before any invocation.
func NewGuarded(cfg GuardedConfig) (*Guarded, error) {
	srv, err := NewServer(cfg.Capacity)
	if err != nil {
		return nil, err
	}
	buf, err := syncguard.NewBuffer(cfg.Capacity, MethodOpen, MethodAssign)
	if err != nil {
		return nil, err
	}
	f, err := NewFactory(buf, cfg.Audit, cfg.Metrics)
	if err != nil {
		return nil, err
	}

	b := core.NewComponent(ComponentName,
		core.WithFactory(f),
		core.WithTarget(srv),
		core.WithModeratorOptions(cfg.ModeratorOptions...))
	// open and assign share the buffer guard state, so they must share one
	// admission domain. The producer/consumer aspects' wake lists would
	// group them automatically at registration; declaring it here makes the
	// coupling visible in the wiring.
	b.Group(MethodOpen, MethodAssign)
	b.Bind(MethodOpen, func(inv *aspect.Invocation) (any, error) {
		id, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		summary, err := inv.ArgString(1)
		if err != nil {
			return nil, err
		}
		return nil, srv.Open(Ticket{ID: id, Summary: summary})
	})
	b.Bind(MethodAssign, func(*aspect.Invocation) (any, error) {
		return srv.Assign()
	})
	b.Guard(MethodOpen, aspect.KindSynchronization)
	b.Guard(MethodAssign, aspect.KindSynchronization)
	if cfg.Metrics != nil {
		b.Guard(MethodOpen, aspect.KindMetrics)
		b.Guard(MethodAssign, aspect.KindMetrics)
	}
	if cfg.Audit != nil {
		b.Guard(MethodOpen, aspect.KindAudit)
		b.Guard(MethodAssign, aspect.KindAudit)
	}
	if cfg.Obs != nil {
		// The observability audit records through the aspect-bank path —
		// the framework dogfooding itself. Registered last in the base
		// layer: its span covers the method body but not the guards'
		// blocking, mirroring the metrics aspect's placement.
		auditor := obsaudit.New(cfg.Obs)
		b.Use(MethodOpen, obsaudit.Kind, auditor.Aspect("obs-"+MethodOpen))
		b.Use(MethodAssign, obsaudit.Kind, auditor.Aspect("obs-"+MethodAssign))
	}
	comp, err := b.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		comp.Moderator().SetTracer(cfg.Obs)
		cfg.Obs.Watch(comp.Moderator())
	}
	return &Guarded{component: comp, server: srv, buffer: buf}, nil
}

// Proxy returns the guarded entry point.
func (g *Guarded) Proxy() *proxy.Proxy { return g.component.Proxy() }

// Moderator returns the component's moderator.
func (g *Guarded) Moderator() *moderator.Moderator { return g.component.Moderator() }

// Server returns the underlying functional component, for inspection. Do
// not call its methods directly while guarded invocations are in flight.
func (g *Guarded) Server() *Server { return g.server }

// Buffer returns the synchronization guard state, for inspection.
func (g *Guarded) Buffer() *syncguard.Buffer { return g.buffer }

// AuthLayer is the moderator layer name used by EnableAuthentication.
const AuthLayer = "authentication"

// EnableAuthentication reproduces the paper's adaptability scenario
// (Figures 13-18): an outermost authentication layer is added to the
// running component — no functional code changes — so every open and
// assign now requires a valid token before the synchronization layer
// even evaluates.
func (g *Guarded) EnableAuthentication(store *auth.TokenStore) error {
	if store == nil {
		return fmt.Errorf("ticket: nil token store")
	}
	mod := g.Moderator()
	if err := mod.AddLayer(AuthLayer, moderator.Outermost); err != nil {
		return err
	}
	for _, m := range []string{MethodOpen, MethodAssign} {
		// The paper's ExtendedAspectFactory creates one authentication
		// aspect per participating method (Figure 15).
		a := auth.Authenticator("authenticate-"+m, store)
		if err := mod.RegisterIn(AuthLayer, m, aspect.KindAuthentication, a); err != nil {
			return err
		}
	}
	g.store = store
	return nil
}

// DisableAuthentication removes the authentication layer.
func (g *Guarded) DisableAuthentication() error {
	g.store = nil
	return g.Moderator().RemoveLayer(AuthLayer)
}
