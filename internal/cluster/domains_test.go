package cluster

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/apps/ticket"
	"repro/internal/naming"
)

// TestUnlistedMethodIsServed pins that a bound method missing from
// Config.Domains is still leased and served: its domain is derived from
// the moderator, not only from the map's values.
func TestUnlistedMethodIsServed(t *testing.T) {
	namingAddr := startNaming(t)
	_, n := startLedgerNode(t, "u1", namingAddr, func(cfg *Config) {
		cfg.Domains = map[string]string{"alpha-put": "alpha", "beta-put": "beta"}
	})
	if got, want := n.OwnedDomains(), []string{"alpha", "alpha-echo", "beta"}; !slices.Equal(got, want) {
		t.Fatalf("owned domains = %v, want %v", got, want)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	res, err := n.Invoke(ctx, ledgerEcho, "x")
	if err != nil {
		t.Fatalf("unlisted method %s: %v", ledgerEcho, err)
	}
	if res != "x" {
		t.Fatalf("unlisted method %s returned %v, want x", ledgerEcho, res)
	}
}

// TestStartRefusesSplitGroup pins the one rule Config.Domains obeys: it
// may rename or coarsen the moderator's groups, never split one.
func TestStartRefusesSplitGroup(t *testing.T) {
	namingAddr := startNaming(t)
	newTicket := func() *ticket.Guarded {
		g, err := ticket.NewGuarded(ticket.GuardedConfig{Capacity: 4})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}

	// open and assign share the buffer, so the moderator groups them; a
	// map that puts them in two domains is refused before anything is
	// leased.
	_, err := Start(Config{
		ID:      "split",
		Local:   newTicket().Proxy(),
		Domains: map[string]string{ticket.MethodOpen: "a", ticket.MethodAssign: "b"},
		Naming:  namingAddr,
	}, "127.0.0.1:0")
	var split *SplitGroupError
	if !errors.As(err, &split) {
		t.Fatalf("split map: err = %v, want *SplitGroupError", err)
	}
	wantGroup := []string{ticket.MethodAssign, ticket.MethodOpen}
	if !slices.Equal(split.Group, wantGroup) {
		t.Fatalf("refused group = %v, want %v", split.Group, wantGroup)
	}
	if d := split.Domains; !(d == [2]string{"a", "b"} || d == [2]string{"b", "a"}) {
		t.Fatalf("refused domains = %v, want a and b", d)
	}
	nc, err := naming.DialClient(namingAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if leases, err := nc.ListLeases(); err != nil || len(leases) != 0 {
		t.Fatalf("refused Start left leases %v (err %v)", leases, err)
	}

	// Without a map the group is one domain, named by its methods.
	n, err := Start(Config{ID: "derived", Local: newTicket().Proxy(), Naming: namingAddr}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if got := n.OwnedDomains(); !slices.Equal(got, []string{"assign+open"}) {
		t.Fatalf("derived ticket domains = %v, want [assign+open]", got)
	}
	n.Close()

	// Coarsening two singleton groups into one domain is accepted.
	_, n = startLedgerNode(t, "coarse", namingAddr, func(cfg *Config) {
		cfg.Domains = map[string]string{"alpha-put": "all", "beta-put": "all", ledgerEcho: "all"}
	})
	if got := n.OwnedDomains(); !slices.Equal(got, []string{"all"}) {
		t.Fatalf("coarsened domains = %v, want [all]", got)
	}
}
