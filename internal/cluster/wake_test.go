package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/naming"
	"repro/internal/proxy"
)

// tokenStore is the shared guard state of the wake app: signal produces
// tokens, wait consumes one or parks. It is state outside the component,
// shared by every node of a test and changed by tests directly, so it
// synchronizes itself, and no moderator wakes wait when it changes: the
// heartbeat's wake sweep does.
type tokenStore struct {
	mu     sync.Mutex
	tokens int
}

func (s *tokenStore) add() {
	s.mu.Lock()
	s.tokens++
	s.mu.Unlock()
}

func (s *tokenStore) tryTake() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.tokens == 0 {
		return false
	}
	s.tokens--
	return true
}

// newWakeApp builds one node's guarded signal/wait component over the
// shared token store.
func newWakeApp(t *testing.T, store *tokenStore) *proxy.Proxy {
	t.Helper()
	mod := moderator.New("wakeapp")
	p := proxy.New(mod)
	if err := mod.Register("wait", aspect.KindSynchronization,
		aspect.New("token-gate", aspect.KindSynchronization,
			func(inv *aspect.Invocation) aspect.Verdict {
				if store.tryTake() {
					return aspect.Resume
				}
				return aspect.Block
			},
			func(inv *aspect.Invocation) {})); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("signal", aspect.KindSynchronization,
		aspect.New("pass", aspect.KindSynchronization,
			func(inv *aspect.Invocation) aspect.Verdict { return aspect.Resume },
			func(inv *aspect.Invocation) {})); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("signal", func(inv *aspect.Invocation) (any, error) {
		store.add()
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind("wait", func(inv *aspect.Invocation) (any, error) {
		return "admitted", nil
	}); err != nil {
		t.Fatal(err)
	}
	return p
}

// splitDomains picks two domain names the ring assigns to different
// members, so a test can place the wait domain on a chosen node.
func splitDomains(t *testing.T, idA, idB string) (sigDomain, waitDomain string) {
	t.Helper()
	ring := naming.NewRing(0, idA, idB)
	for i := 0; i < 256 && (sigDomain == "" || waitDomain == ""); i++ {
		d := fmt.Sprintf("probe-%d", i)
		owner, _ := ring.Owner(d)
		if owner == idA && sigDomain == "" {
			sigDomain = d
		}
		if owner == idB && waitDomain == "" {
			waitDomain = d
		}
	}
	if sigDomain == "" || waitDomain == "" {
		t.Fatal("could not split domains across two members")
	}
	return sigDomain, waitDomain
}

// TestClusterWakeSweep pins the heartbeat's wake sweep: a caller parked
// on the owner is re-admitted once its guard precondition becomes true
// through a change outside any local completion (here external state,
// changed with no signal), at worst one heartbeat later.
func TestClusterWakeSweep(t *testing.T) {
	namingAddr := startNaming(t)
	store := &tokenStore{}
	n, err := Start(Config{
		ID:        "ws",
		Local:     newWakeApp(t, store),
		Naming:    namingAddr,
		LeaseTTL:  2 * time.Second,
		Heartbeat: 100 * time.Millisecond,
	}, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)

	waitDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := n.Invoke(ctx, "wait")
		waitDone <- err
	}()
	mod := n.cfg.Local.Moderator()
	for deadline := time.Now().Add(5 * time.Second); mod.Waiting("wait") == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("waiter never parked")
		}
	}
	store.add() // the guard state changes; no completion signals it
	select {
	case err := <-waitDone:
		if err != nil {
			t.Fatalf("swept waiter failed: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wake sweep never re-admitted the parked caller")
	}
}
