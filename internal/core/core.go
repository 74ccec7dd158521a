// Package core is the public face of the Aspect Moderator framework — the
// paper's primary contribution. It assembles the framework's participants
// (functional component, component proxy, aspect moderator, aspect factory,
// aspect bank) and drives the initialization phase of Figure 2: the proxy
// requests each required aspect from the factory and registers it with the
// moderator before any method invocation takes place.
//
// A guarded component is declared with a Builder:
//
//	b := core.NewComponent("ticket",
//		core.WithFactory(ticketFactory),
//		core.WithTarget(server))
//	b.Bind("open", openBody)
//	b.Bind("assign", assignBody)
//	b.Guard("open", aspect.KindSynchronization)
//	b.Guard("assign", aspect.KindSynchronization)
//	p, err := b.Build()
//
// and invoked through the resulting proxy:
//
//	_, err = p.Invoke(ctx, "open", ticket)
//
// New concerns are composed later — without touching functional code — by
// adding moderator layers (see Component.AddConcernLayer), reproducing the
// paper's authentication extension of Figures 13-18.
package core

import (
	"errors"
	"fmt"

	"repro/internal/aspect"
	"repro/internal/factory"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// Component is a fully assembled guarded component: the proxy plus its
// moderator and the factory it was initialized from.
type Component struct {
	proxy   *proxy.Proxy
	factory factory.Factory
	target  any
}

// Proxy returns the component's guarded entry point.
func (c *Component) Proxy() *proxy.Proxy { return c.proxy }

// Moderator returns the component's aspect moderator.
func (c *Component) Moderator() *moderator.Moderator { return c.proxy.Moderator() }

// AddConcernLayer introduces a new concern as a moderator layer and
// populates it from the component's factory: for each listed method, the
// factory creates an aspect of the given kind and the moderator registers
// it in the new layer. This is the paper's dynamic adaptability scenario —
// the ExtendedTicketServerProxy of Figure 13 distilled into one call.
func (c *Component) AddConcernLayer(layerName string, pos moderator.Position, kind aspect.Kind, methods ...string) error {
	if c.factory == nil {
		return fmt.Errorf("core: component %s: no factory configured", c.proxy.Name())
	}
	mod := c.Moderator()
	if err := mod.AddLayer(layerName, pos); err != nil {
		return err
	}
	for _, m := range methods {
		a, err := c.factory.Create(m, kind, c.target)
		if err != nil {
			return fmt.Errorf("core: component %s: layer %s: %w", c.proxy.Name(), layerName, err)
		}
		if err := mod.RegisterIn(layerName, m, kind, a); err != nil {
			return err
		}
	}
	return nil
}

// RemoveConcernLayer removes a previously added concern layer.
func (c *Component) RemoveConcernLayer(layerName string) error {
	return c.Moderator().RemoveLayer(layerName)
}

// Builder accumulates the declaration of a guarded component and assembles
// it in Build. Declarations are validated at Build time, so call sites may
// chain them without per-call checks.
type Builder struct {
	name    string
	factory factory.Factory
	target  any
	modOpts []moderator.Option

	bindings []binding
	layers   []layerDecl
	guards   []guardDecl
	uses     []useDecl
	groups   [][]string
	err      error
}

type binding struct {
	method string
	body   proxy.Method
}

type layerDecl struct {
	name string
	pos  moderator.Position
}

type guardDecl struct {
	layer  string
	method string
	kind   aspect.Kind
}

type useDecl struct {
	layer  string
	method string
	kind   aspect.Kind
	a      aspect.Aspect
}

// BuilderOption configures a Builder.
type BuilderOption func(*Builder)

// WithFactory sets the aspect factory consulted by Guard declarations and
// later AddConcernLayer calls.
func WithFactory(f factory.Factory) BuilderOption {
	return func(b *Builder) { b.factory = f }
}

// WithTarget sets the value handed to factory constructors — typically the
// functional component or the shared guard state.
func WithTarget(target any) BuilderOption {
	return func(b *Builder) { b.target = target }
}

// WithModeratorOptions forwards options (wake policy, wake mode) to the
// component's moderator.
func WithModeratorOptions(opts ...moderator.Option) BuilderOption {
	return func(b *Builder) { b.modOpts = append(b.modOpts, opts...) }
}

// NewComponent starts the declaration of a guarded component.
func NewComponent(name string, opts ...BuilderOption) *Builder {
	b := &Builder{name: name}
	if name == "" {
		b.err = errors.New("core: empty component name")
	}
	for _, opt := range opts {
		opt(b)
	}
	return b
}

// Bind declares a participating method with its functional body.
func (b *Builder) Bind(method string, body proxy.Method) *Builder {
	b.bindings = append(b.bindings, binding{method: method, body: body})
	return b
}

// Layer declares an additional moderator layer, created before any Guard or
// Use declarations are installed.
func (b *Builder) Layer(name string, pos moderator.Position) *Builder {
	b.layers = append(b.layers, layerDecl{name: name, pos: pos})
	return b
}

// Guard declares that the factory should create and register an aspect of
// the given kind for the method, in the base layer.
func (b *Builder) Guard(method string, kind aspect.Kind) *Builder {
	return b.GuardIn(moderator.BaseLayer, method, kind)
}

// GuardIn is Guard targeting a named layer declared with Layer.
func (b *Builder) GuardIn(layer, method string, kind aspect.Kind) *Builder {
	b.guards = append(b.guards, guardDecl{layer: layer, method: method, kind: kind})
	return b
}

// Group declares that the listed methods share one admission domain: all
// their synchronization hooks run under a single mutex, the contract
// guards written against the pre-sharding moderator assume. Declare a
// group for every set of methods whose guards share mutable state (a
// bounded buffer's put/get, a reader-writer pair). Groups are applied at
// Build time before any aspect registration or traffic, so they can never
// fail with moderator.ErrDomainActive. Aspects whose Wakes list names
// other methods are grouped automatically at registration; Group is for
// making the coupling explicit in wiring, or for guards that share state
// without waking each other — without the group, registering one such
// guard instance on a second method is refused as shared-guard
// interference (moderator.InterferenceError).
func (b *Builder) Group(methods ...string) *Builder {
	if len(methods) < 2 {
		b.err = fmt.Errorf("core: component %s: Group needs at least two methods", b.name)
		return b
	}
	b.groups = append(b.groups, append([]string(nil), methods...))
	return b
}

// Use registers an existing aspect instance for the method in the base
// layer, bypassing the factory.
func (b *Builder) Use(method string, kind aspect.Kind, a aspect.Aspect) *Builder {
	return b.UseIn(moderator.BaseLayer, method, kind, a)
}

// UseIn is Use targeting a named layer declared with Layer.
func (b *Builder) UseIn(layer, method string, kind aspect.Kind, a aspect.Aspect) *Builder {
	b.uses = append(b.uses, useDecl{layer: layer, method: method, kind: kind, a: a})
	return b
}

// Build assembles the component: moderator, proxy, method table, layers,
// and — per the initialization phase of Figure 2 — creation and
// registration of every declared aspect.
func (b *Builder) Build() (*Component, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.guards) > 0 && b.factory == nil {
		return nil, fmt.Errorf("core: component %s: Guard declarations require a factory", b.name)
	}
	mod := moderator.New(b.name, b.modOpts...)
	for _, g := range b.groups {
		if err := mod.GroupMethods(g...); err != nil {
			return nil, fmt.Errorf("core: component %s: %w", b.name, err)
		}
	}
	p := proxy.New(mod)
	for _, bd := range b.bindings {
		if err := p.Bind(bd.method, bd.body); err != nil {
			return nil, err
		}
	}
	for _, l := range b.layers {
		if err := mod.AddLayer(l.name, l.pos); err != nil {
			return nil, err
		}
	}
	for _, g := range b.guards {
		a, err := b.factory.Create(g.method, g.kind, b.target)
		if err != nil {
			return nil, fmt.Errorf("core: component %s: %w", b.name, err)
		}
		if err := mod.RegisterIn(g.layer, g.method, g.kind, a); err != nil {
			return nil, err
		}
	}
	for _, u := range b.uses {
		if err := mod.RegisterIn(u.layer, u.method, u.kind, u.a); err != nil {
			return nil, err
		}
	}
	return &Component{proxy: p, factory: b.factory, target: b.target}, nil
}
