// Adaptability: the paper's Figures 13-18 as a running program.
//
// A ticket server starts with synchronization only. At runtime — with
// invocations still flowing — an authentication concern is layered
// outermost: the ExtendedAspectModerator / ExtendedAspectFactory scenario,
// realized as moderator layers instead of subclasses. No functional code
// changes hands. Every registration is vetted on the way in: a second
// concern whose aspect contradicts its own declarations is refused with a
// structured report, and the composition stays as it was.
//
// Run with:
//
//	go run ./examples/adaptability
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/apps/ticket"
	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/moderator"
)

func main() {
	g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 8})
	if err != nil {
		log.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()

	fmt.Println("phase 1: synchronization only")
	fmt.Printf("  layers: %v\n", g.Moderator().Layers())
	if _, err := p.Invoke(ctx, ticket.MethodOpen, "TT-1", "anonymous ticket"); err != nil {
		log.Fatalf("open: %v", err)
	}
	fmt.Println("  anonymous open: accepted")

	fmt.Println("\nphase 2: authentication layered on, at runtime")
	store := auth.NewTokenStore()
	aliceTok := store.Issue("alice", "client")
	if err := g.EnableAuthentication(store); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  layers: %v\n", g.Moderator().Layers())
	fmt.Print("  evaluation order for open: ")
	for i, a := range g.Moderator().Aspects(ticket.MethodOpen) {
		if i > 0 {
			fmt.Print(" -> ")
		}
		fmt.Printf("%s", a.Kind())
	}
	fmt.Println()

	if _, err := p.Invoke(ctx, ticket.MethodOpen, "TT-2", "anonymous again"); errors.Is(err, auth.ErrUnauthenticated) {
		fmt.Println("  anonymous open: rejected (unauthenticated)")
	} else {
		log.Fatalf("expected unauthenticated, got %v", err)
	}

	inv := aspect.NewInvocation(ctx, p.Name(), ticket.MethodOpen, []any{"TT-3", "alice's ticket"})
	auth.WithToken(inv, aliceTok)
	if _, err := p.Call(inv); err != nil {
		log.Fatalf("authenticated open: %v", err)
	}
	fmt.Println("  alice's open:   accepted (token resolved to principal)")

	fmt.Println("\nphase 3: an extension that contradicts itself is refused")
	mod := g.Moderator()
	if err := mod.AddLayer("quota", moderator.Outermost); err != nil {
		log.Fatal(err)
	}
	quota := &aspect.Func{
		AspectName: "quota-" + ticket.MethodOpen,
		AspectKind: aspect.KindScheduling,
		// Claims the lock-free route, yet expects blocked callers to
		// abandon: no caller ever blocks on a NonBlocking aspect.
		NonBlockingFlag: true,
		AbandonFn:       func(*aspect.Invocation) {},
	}
	err = mod.RegisterIn("quota", ticket.MethodOpen, aspect.KindScheduling, quota)
	var refusal *moderator.InterferenceError
	if !errors.As(err, &refusal) {
		log.Fatalf("self-contradicting concern: want an interference refusal, got %v", err)
	}
	fmt.Printf("  refused: %s\n", refusal.Report)
	if err := mod.RemoveLayer("quota"); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  layers: %v (authentication was accepted, quota left no trace)\n", mod.Layers())

	fmt.Println("\nphase 4: revocation is immediate")
	store.Revoke(aliceTok)
	inv2 := aspect.NewInvocation(ctx, p.Name(), ticket.MethodOpen, []any{"TT-4", "stale token"})
	auth.WithToken(inv2, aliceTok)
	if _, err := p.Call(inv2); errors.Is(err, auth.ErrUnauthenticated) {
		fmt.Println("  revoked token:  rejected")
	} else {
		log.Fatalf("expected unauthenticated, got %v", err)
	}

	fmt.Println("\nphase 5: the concern detaches as cleanly as it attached")
	if err := g.DisableAuthentication(); err != nil {
		log.Fatal(err)
	}
	if _, err := p.Invoke(ctx, ticket.MethodOpen, "TT-5", "anonymous once more"); err != nil {
		log.Fatalf("open after disable: %v", err)
	}
	fmt.Printf("  layers: %v\n", g.Moderator().Layers())
	fmt.Println("  anonymous open: accepted again")

	fmt.Printf("\nbuffered tickets at exit: %d — functional component untouched throughout\n",
		g.Server().Size())
}
