package reservation

import (
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/metrics"
	"repro/internal/aspects/obsaudit"
	"repro/internal/aspects/syncguard"
	"repro/internal/core"
	"repro/internal/moderator"
	"repro/internal/obs"
	"repro/internal/proxy"
)

// Method names of the participating methods.
const (
	MethodReserve   = "reserve"
	MethodCancel    = "cancel"
	MethodHolder    = "holder"
	MethodAvailable = "available"
)

// ComponentName is the guarded component's registered name.
const ComponentName = "reservation"

// Guarded is the framework-composed reservation service: readers-writer
// synchronization (queries run concurrently, mutations exclusively), with
// optional authorization and metrics — the same aspect objects used by the
// other applications, demonstrating the reuse the paper claims.
type Guarded struct {
	component *core.Component
	venue     *Venue
	rw        *syncguard.RWLock
}

// GuardedConfig configures NewGuarded.
type GuardedConfig struct {
	// Venue is the functional component to guard (required).
	Venue *Venue
	// Authenticator, when non-nil, requires tokens from this store.
	Authenticator *auth.TokenStore
	// ACL, when non-nil, authorizes methods by role (requires
	// Authenticator).
	ACL auth.ACL
	// Metrics, when non-nil, measures every invocation.
	Metrics *metrics.Recorder
	// Obs, when non-nil, turns on observability: trace hooks feed the
	// collector, the collector polls exact aggregates, and an obsaudit
	// aspect records spans in the instrumentation layer.
	Obs *obs.Collector
	// ModeratorOptions forwards wake policy/mode to the moderator.
	ModeratorOptions []moderator.Option
}

// NewGuarded assembles the guarded reservation service.
func NewGuarded(cfg GuardedConfig) (*Guarded, error) {
	v := cfg.Venue
	if v == nil {
		var err error
		v, err = GridVenue(10, 10)
		if err != nil {
			return nil, err
		}
	}
	writeMethods := []string{MethodReserve, MethodCancel}
	readMethods := []string{MethodHolder, MethodAvailable}
	allMethods := append(append([]string{}, writeMethods...), readMethods...)
	rw := syncguard.NewRWLock(allMethods...)

	b := core.NewComponent(ComponentName, core.WithModeratorOptions(cfg.ModeratorOptions...))
	// All four methods go through the one reader-writer lock, so they share
	// one admission domain (the rw aspects' wake lists would also group
	// them; the declaration keeps the coupling explicit).
	b.Group(allMethods...)
	b.Bind(MethodReserve, func(inv *aspect.Invocation) (any, error) {
		seat, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		holder, err := holderFrom(inv, 1)
		if err != nil {
			return nil, err
		}
		return nil, v.Reserve(seat, holder)
	})
	b.Bind(MethodCancel, func(inv *aspect.Invocation) (any, error) {
		seat, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		holder, err := holderFrom(inv, 1)
		if err != nil {
			return nil, err
		}
		return nil, v.Cancel(seat, holder)
	})
	b.Bind(MethodHolder, func(inv *aspect.Invocation) (any, error) {
		seat, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		return v.Holder(seat)
	})
	b.Bind(MethodAvailable, func(*aspect.Invocation) (any, error) {
		return v.Available(), nil
	})

	// Authentication/authorization compose outermost.
	if cfg.Authenticator != nil {
		b.Layer("security", moderator.Outermost)
		for _, m := range allMethods {
			b.UseIn("security", m, aspect.KindAuthentication,
				auth.Authenticator("authenticate-"+m, cfg.Authenticator))
		}
		if cfg.ACL != nil {
			for _, m := range allMethods {
				b.UseIn("security", m, aspect.KindAuthorization,
					auth.Authorizer("authorize-"+m, cfg.ACL))
			}
		}
	}
	// Readers-writer synchronization in the base layer.
	for _, m := range writeMethods {
		b.Use(m, aspect.KindSynchronization, rw.WriterAspect("write-"+m))
	}
	for _, m := range readMethods {
		b.Use(m, aspect.KindSynchronization, rw.ReaderAspect("read-"+m))
	}
	// Instrumentation innermost: measures body time excluding outer
	// blocking. The obsaudit span aspect rides the same layer.
	if cfg.Metrics != nil || cfg.Obs != nil {
		b.Layer("instrumentation", moderator.Innermost)
	}
	if cfg.Metrics != nil {
		for _, m := range allMethods {
			b.UseIn("instrumentation", m, aspect.KindMetrics,
				cfg.Metrics.Aspect("metrics-"+m))
		}
	}
	if cfg.Obs != nil {
		auditor := obsaudit.New(cfg.Obs)
		for _, m := range allMethods {
			b.UseIn("instrumentation", m, obsaudit.Kind, auditor.Aspect("obs-"+m))
		}
	}

	comp, err := b.Build()
	if err != nil {
		return nil, err
	}
	if cfg.Obs != nil {
		comp.Moderator().SetTracer(cfg.Obs)
		cfg.Obs.Watch(comp.Moderator())
	}
	return &Guarded{component: comp, venue: v, rw: rw}, nil
}

// holderFrom resolves the acting holder: the authenticated principal when
// present, else the explicit argument at index i.
func holderFrom(inv *aspect.Invocation, i int) (string, error) {
	if p := auth.PrincipalOf(inv); p != nil {
		return p.Name, nil
	}
	return inv.ArgString(i)
}

// Proxy returns the guarded entry point.
func (g *Guarded) Proxy() *proxy.Proxy { return g.component.Proxy() }

// Moderator returns the component's moderator.
func (g *Guarded) Moderator() *moderator.Moderator { return g.component.Moderator() }

// Venue returns the underlying functional component, for inspection. Do
// not call its methods directly while guarded invocations are in flight.
func (g *Guarded) Venue() *Venue { return g.venue }

// RWLock returns the synchronization guard state, for inspection.
func (g *Guarded) RWLock() *syncguard.RWLock { return g.rw }
