package auction

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
)

func TestHouseSequentialSemantics(t *testing.T) {
	h := NewHouse()
	if err := h.List("", 1); err == nil {
		t.Error("empty lot id must error")
	}
	if err := h.List("vase", -1); err == nil {
		t.Error("negative min bid must error")
	}
	if err := h.List("vase", 10); err != nil {
		t.Fatal(err)
	}
	if err := h.List("vase", 10); !errors.Is(err, ErrLotExists) {
		t.Fatalf("duplicate list: %v", err)
	}
	if err := h.Bid("ghost", "a", 50); !errors.Is(err, ErrNoSuchLot) {
		t.Fatalf("ghost lot: %v", err)
	}
	if err := h.Bid("vase", "a", 5); !errors.Is(err, ErrBidTooLow) {
		t.Fatalf("below min: %v", err)
	}
	if err := h.Bid("vase", "a", 10); err != nil {
		t.Fatal(err)
	}
	if err := h.Bid("vase", "b", 10); !errors.Is(err, ErrBidTooLow) {
		t.Fatalf("equal bid: %v", err)
	}
	if err := h.Bid("vase", "b", 12); err != nil {
		t.Fatal(err)
	}
	lot, err := h.Close("vase")
	if err != nil {
		t.Fatal(err)
	}
	if lot.BestBidder != "b" || lot.BestBid != 12 || lot.Bids != 2 {
		t.Errorf("closed lot = %+v", lot)
	}
	if err := h.Bid("vase", "c", 100); !errors.Is(err, ErrClosed) {
		t.Fatalf("bid after close: %v", err)
	}
	if _, err := h.Close("vase"); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
	got, err := h.Get("vase")
	if err != nil || !got.Closed {
		t.Fatalf("get = %+v, %v", got, err)
	}
	if lots := h.Lots(); len(lots) != 1 || lots[0] != "vase" {
		t.Errorf("lots = %v", lots)
	}
}

func TestGuardedBasicFlow(t *testing.T) {
	g, err := NewGuarded(GuardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, MethodList, "vase", 10.0); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Invoke(ctx, MethodBid, "vase", "alice", 15.0); err != nil {
		t.Fatal(err)
	}
	got, err := p.Invoke(ctx, MethodGet, "vase")
	if err != nil {
		t.Fatal(err)
	}
	if lot := got.(Lot); lot.BestBidder != "alice" {
		t.Errorf("lot = %+v", lot)
	}
	closed, err := p.Invoke(ctx, MethodClose, "vase")
	if err != nil {
		t.Fatal(err)
	}
	if lot := closed.(Lot); !lot.Closed || lot.BestBid != 15 {
		t.Errorf("closed = %+v", lot)
	}
}

func TestGuardedConcurrentBiddingInvariant(t *testing.T) {
	// Bidders race; the winning bid must be the maximum successful bid and
	// every successful bid must have been strictly increasing.
	g, err := NewGuarded(GuardedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, MethodList, "lot", 1.0); err != nil {
		t.Fatal(err)
	}
	const bidders, bidsEach = 8, 20
	var wg sync.WaitGroup
	var mu sync.Mutex
	var accepted []float64
	for b := 0; b < bidders; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			me := fmt.Sprintf("bidder-%d", b)
			for k := 0; k < bidsEach; k++ {
				amount := float64(1 + b + k*bidders)
				_, err := p.Invoke(ctx, MethodBid, "lot", me, amount)
				if err == nil {
					mu.Lock()
					accepted = append(accepted, amount)
					mu.Unlock()
				} else if !errors.Is(err, ErrBidTooLow) {
					t.Errorf("bid: %v", err)
				}
			}
		}(b)
	}
	wg.Wait()
	lot, err := g.House().Get("lot")
	if err != nil {
		t.Fatal(err)
	}
	max := 0.0
	for _, a := range accepted {
		if a > max {
			max = a
		}
	}
	if lot.BestBid != max {
		t.Errorf("best = %v, max accepted = %v", lot.BestBid, max)
	}
	if lot.Bids != len(accepted) {
		t.Errorf("bids = %d, accepted = %d", lot.Bids, len(accepted))
	}
}

func TestGuardedFairShare(t *testing.T) {
	g, err := NewGuarded(GuardedConfig{FairSharePerBidder: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := g.Proxy()
	ctx := context.Background()
	if _, err := p.Invoke(ctx, MethodList, "lot", 1.0); err != nil {
		t.Fatal(err)
	}
	// Sequential calls always fit within the per-bidder quota.
	for k := 0; k < 5; k++ {
		if _, err := p.Invoke(ctx, MethodBid, "lot", "alice", float64(2+k)); err != nil {
			t.Fatalf("bid %d: %v", k, err)
		}
	}
}

func TestGuardedWithSecurity(t *testing.T) {
	store := auth.NewTokenStore()
	sellerTok := store.Issue("sam", "seller")
	bidderTok := store.Issue("bea", "bidder")
	acl := auth.ACL{
		MethodList:  {"seller"},
		MethodClose: {"seller"},
		MethodBid:   {"bidder"},
		MethodGet:   {"seller", "bidder"},
	}
	g, err := NewGuarded(GuardedConfig{Authenticator: store, ACL: acl})
	if err != nil {
		t.Fatal(err)
	}
	// Authentication evaluates before authorization, on every method.
	for _, meth := range g.Proxy().Methods() {
		authn := false
		for i, a := range g.Moderator().Aspects(meth) {
			switch a.Kind() {
			case aspect.KindAuthentication:
				authn = true
			case aspect.KindAuthorization:
				if !authn {
					t.Errorf("%s: authorization (at %d) evaluates before authentication", meth, i)
				}
			}
		}
	}
	p := g.Proxy()
	ctx := context.Background()

	call := func(tok, method string, args ...any) error {
		inv := aspect.NewInvocation(ctx, p.Name(), method, args)
		auth.WithToken(inv, tok)
		_, err := p.Call(inv)
		return err
	}
	if err := call(sellerTok, MethodList, "vase", 10.0); err != nil {
		t.Fatalf("seller list: %v", err)
	}
	if err := call(bidderTok, MethodList, "urn", 5.0); !errors.Is(err, auth.ErrPermissionDenied) {
		t.Fatalf("bidder list: %v", err)
	}
	// Bid as authenticated principal: bidder name comes from the token.
	if err := call(bidderTok, MethodBid, "vase", nil, 12.0); err != nil {
		t.Fatalf("bidder bid: %v", err)
	}
	lot, err := g.House().Get("vase")
	if err != nil || lot.BestBidder != "bea" {
		t.Fatalf("lot = %+v, %v", lot, err)
	}
	if err := call(bidderTok, MethodClose, "vase"); !errors.Is(err, auth.ErrPermissionDenied) {
		t.Fatalf("bidder close: %v", err)
	}
	if err := call(sellerTok, MethodClose, "vase"); err != nil {
		t.Fatalf("seller close: %v", err)
	}
}
