package naming

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"
)

func TestStoreValidation(t *testing.T) {
	s := NewStore()
	if err := s.Register("", "addr", 0); err == nil {
		t.Error("empty name must error")
	}
	if err := s.Register("n", "", 0); err == nil {
		t.Error("empty addr must error")
	}
}

func TestStoreRegisterLookup(t *testing.T) {
	s := NewStore()
	if err := s.Register("ticket", "1.2.3.4:9000", time.Minute); err != nil {
		t.Fatal(err)
	}
	e, err := s.Lookup("ticket")
	if err != nil || e.Addr != "1.2.3.4:9000" {
		t.Fatalf("lookup = %+v, %v", e, err)
	}
	if _, err := s.Lookup("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost: %v", err)
	}
	// Re-register moves the endpoint.
	if err := s.Register("ticket", "5.6.7.8:9000", time.Minute); err != nil {
		t.Fatal(err)
	}
	e, err = s.Lookup("ticket")
	if err != nil || e.Addr != "5.6.7.8:9000" {
		t.Fatalf("moved lookup = %+v, %v", e, err)
	}
}

func TestStoreLeaseExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewStore(WithClock(func() time.Time { return now }))
	if err := s.Register("svc", "a:1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup("svc"); err != nil {
		t.Fatalf("live lease: %v", err)
	}
	now = now.Add(11 * time.Second)
	if _, err := s.Lookup("svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("expired lease: %v", err)
	}
	// Renewal extends.
	if err := s.Register("svc", "a:1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	now = now.Add(5 * time.Second)
	if err := s.Register("svc", "a:1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	now = now.Add(8 * time.Second) // 13s after first renewal, 8s after second
	if _, err := s.Lookup("svc"); err != nil {
		t.Fatalf("renewed lease: %v", err)
	}
}

func TestStoreListPurgesExpired(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewStore(WithClock(func() time.Time { return now }))
	if err := s.Register("a", "x:1", time.Second); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", "x:2", time.Minute); err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Second)
	got := s.List()
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("list = %+v", got)
	}
	if s.Len() != 1 {
		t.Errorf("len = %d", s.Len())
	}
}

func TestStoreUnregister(t *testing.T) {
	s := NewStore()
	if s.Unregister("ghost") {
		t.Error("unregistering a ghost must report false")
	}
	if err := s.Register("svc", "a:1", 0); err != nil {
		t.Fatal(err)
	}
	if !s.Unregister("svc") {
		t.Error("unregister must report true")
	}
	if _, err := s.Lookup("svc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after unregister: %v", err)
	}
}

func TestDefaultTTLApplied(t *testing.T) {
	now := time.Unix(1000, 0)
	s := NewStore(WithClock(func() time.Time { return now }))
	if err := s.Register("svc", "a:1", 0); err != nil {
		t.Fatal(err)
	}
	e, err := s.Lookup("svc")
	if err != nil {
		t.Fatal(err)
	}
	if want := now.Add(DefaultTTL); !e.Expires.Equal(want) {
		t.Errorf("expires = %v, want %v", e.Expires, want)
	}
}

// startNamingServer spins a TCP naming server and returns its address.
func startNamingServer(t *testing.T, store *Store) string {
	t.Helper()
	return startNamingServerAt(t, store, "127.0.0.1:0")
}

// startNamingServerAt serves store on addr until the test ends and returns
// the address it listens on.
func startNamingServerAt(t *testing.T, store *Store, addr string) string {
	t.Helper()
	srv := NewServer(store)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if serr := srv.Serve(ln); serr != nil {
			t.Errorf("serve: %v", serr)
		}
	}()
	t.Cleanup(func() {
		srv.Close()
		wg.Wait()
	})
	return ln.Addr().String()
}

func TestClientServerRoundTrip(t *testing.T) {
	addr := startNamingServer(t, nil)
	c, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	if err := c.Register("ticket", "10.0.0.1:7000", time.Minute); err != nil {
		t.Fatal(err)
	}
	e, err := c.Lookup("ticket")
	if err != nil || e.Addr != "10.0.0.1:7000" {
		t.Fatalf("lookup = %+v, %v", e, err)
	}
	if _, err := c.Lookup("ghost"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("ghost lookup: %v", err)
	}
	entries, err := c.List()
	if err != nil || len(entries) != 1 {
		t.Fatalf("list = %v, %v", entries, err)
	}
	ok, err := c.Unregister("ticket")
	if err != nil || !ok {
		t.Fatalf("unregister = %v, %v", ok, err)
	}
	ok, err = c.Unregister("ticket")
	if err != nil || ok {
		t.Fatalf("double unregister = %v, %v", ok, err)
	}
	if err := c.Register("", "x", 0); err == nil {
		t.Error("server-side validation must surface")
	}
}

// TestClientSurvivesServerRestart pins that a client outlives a restart
// of its server: served again on the same address with the same Store,
// the client's next calls re-dial and see what the Store holds. Only the
// first call may fail, having met the dead connection.
func TestClientSurvivesServerRestart(t *testing.T) {
	store := NewStore()
	first := NewServer(store)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go func() { _ = first.Serve(ln) }()
	c, err := DialClient(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := c.Register("svc", "h:1", time.Minute); err != nil {
		t.Fatal(err)
	}

	first.Close()
	startNamingServerAt(t, store, addr)
	_, _ = c.Lookup("svc")
	for i := 0; i < 5; i++ {
		if e, err := c.Lookup("svc"); err != nil || e.Addr != "h:1" {
			t.Fatalf("call %d after the restart: %+v, %v", i+2, e, err)
		}
	}
	if err := c.Register("svc", "h:2", time.Minute); err != nil {
		t.Fatalf("register after the restart: %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	addr := startNamingServer(t, nil)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := DialClient(addr)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer func() { _ = c.Close() }()
			name := string(rune('a' + w))
			for k := 0; k < 20; k++ {
				if err := c.Register(name, "h:1", time.Minute); err != nil {
					t.Errorf("register: %v", err)
					return
				}
				if _, err := c.Lookup(name); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
