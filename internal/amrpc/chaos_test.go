package amrpc

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/chaosnet"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// soakBackend is one replica of an idempotent component: put(id) inserts id
// into a set. The observable effect is membership, so redelivery of a
// retried request is absorbed rather than duplicated. applies counts raw
// deliveries for reporting; the set is the effect.
type soakBackend struct {
	mu      sync.Mutex
	ids     map[string]int
	unknown []string
}

func newSoakBackend(t *testing.T) (*soakBackend, *proxy.Proxy) {
	t.Helper()
	b := &soakBackend{ids: make(map[string]int, 2048)}
	mod := moderator.New("soak")
	// A pass-through synchronization aspect makes every put a *guarded*
	// invocation: it runs the full preactivation/postactivation protocol,
	// so the moderator's admission accounting is exercised under chaos.
	if err := mod.Register("put", aspect.KindSynchronization,
		aspect.New("gate", aspect.KindSynchronization,
			func(inv *aspect.Invocation) aspect.Verdict { return aspect.Resume },
			func(inv *aspect.Invocation) {})); err != nil {
		t.Fatal(err)
	}
	p := proxy.New(mod)
	if err := p.Bind("put", func(inv *aspect.Invocation) (any, error) {
		id, err := inv.ArgString(0)
		if err != nil {
			return nil, err
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		if !strings.HasPrefix(id, "op-") {
			// A forged effect: only possible if a corrupted frame slipped
			// past the checksum. Recorded and failed loudly by the test.
			b.unknown = append(b.unknown, id)
			return nil, fmt.Errorf("soak: unknown id %q", id)
		}
		b.ids[id]++
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	return b, p
}

func (b *soakBackend) snapshot() (map[string]int, []string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make(map[string]int, len(b.ids))
	for k, v := range b.ids {
		out[k] = v
	}
	return out, append([]string(nil), b.unknown...)
}

// TestChaosSoak drives ≥1000 guarded invocations through the full stack —
// one retrying client per worker, the workers spread over two servers —
// while a chaosnet injector corrupts, drops, delays, partially writes, and
// resets the links. Afterward: every intended effect happened (zero lost),
// nothing unintended happened (zero forged/duplicated set entries), both
// servers served effects, the moderators' admission ledgers balance, and no
// goroutines leak.
func TestChaosSoak(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	backend1, proxy1 := newSoakBackend(t)
	backend2, proxy2 := newSoakBackend(t)

	srv1 := NewServer(WithReadTimeout(30 * time.Second))
	srv2 := NewServer(WithReadTimeout(30 * time.Second))
	if err := srv1.Register(proxy1); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Register(proxy2); err != nil {
		t.Fatal(err)
	}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr1, addr2 := ln1.Addr().String(), ln2.Addr().String()
	go func() { _ = srv1.Serve(ln1) }()
	go func() { _ = srv2.Serve(ln2) }()

	inj := chaosnet.New(chaosnet.Config{
		Seed:             20260806,
		LatencyProb:      0.05,
		LatencyMin:       100 * time.Microsecond,
		LatencyMax:       time.Millisecond,
		CorruptProb:      0.02,
		DropProb:         0.01,
		PartialWriteProb: 0.01,
		ResetProb:        0.005,
		OpsBeforeFaults:  3,
		Record:           true,
	})

	const (
		workers   = 8
		perWorker = 150 // 1200 total guarded invocations
	)
	// Each worker drives one server through its own client, the way a
	// product client does: an idempotent stub whose transport failures the
	// client retries and whose broken connections it re-dials.
	addrs := []string{addr1, addr2}
	clients := make([]*Client, workers)
	for w := range clients {
		addr := addrs[w%len(addrs)]
		c, err := Dial(addr, WithDialFunc(inj.DialFunc(addr)), WithRetry(RetryPolicy{
			MaxAttempts:    2,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     8 * time.Millisecond,
			AttemptTimeout: 300 * time.Millisecond,
		}))
		if err != nil {
			t.Fatal(err)
		}
		clients[w] = c
	}

	overall := time.Now().Add(60 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			stub := clients[w].Component("soak", WithIdempotent())
			for k := 0; k < perWorker; k++ {
				id := fmt.Sprintf("op-%d-%d", w, k)
				for {
					if time.Now().After(overall) {
						t.Errorf("worker %d: gave up on %s at the overall deadline", w, id)
						return
					}
					ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
					_, err := stub.Invoke(ctx, "put", id)
					cancel()
					if err == nil {
						break
					}
					// Under chaos every failure class here is retryable at
					// this level: transport errors and attempt timeouts
					// that outlast the client's own retries clear up.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Tear everything down before auditing: Server.Close waits for handler
	// drain, so the moderator ledgers are final when we read them.
	for _, c := range clients {
		_ = c.Close()
	}
	srv1.Close()
	srv2.Close()

	ids1, unknown1 := backend1.snapshot()
	ids2, unknown2 := backend2.snapshot()
	if len(unknown1)+len(unknown2) != 0 {
		t.Fatalf("forged effects slipped past frame integrity: %v %v", unknown1, unknown2)
	}
	if len(ids1) == 0 || len(ids2) == 0 {
		t.Fatalf("workers did not spread over the servers: server1=%d server2=%d effects", len(ids1), len(ids2))
	}

	union := make(map[string]int, workers*perWorker)
	for id, n := range ids1 {
		union[id] += n
	}
	for id, n := range ids2 {
		union[id] += n
	}
	var lost []string
	redelivered := 0
	for w := 0; w < workers; w++ {
		for k := 0; k < perWorker; k++ {
			id := fmt.Sprintf("op-%d-%d", w, k)
			n, ok := union[id]
			if !ok {
				lost = append(lost, id)
				continue
			}
			if n > 1 {
				redelivered++ // absorbed by idempotency; reported, not failed
			}
			delete(union, id)
		}
	}
	if len(lost) != 0 {
		t.Fatalf("%d effects lost under chaos, e.g. %v", len(lost), lost[:min(5, len(lost))])
	}
	if len(union) != 0 {
		extra := make([]string, 0, 5)
		for id := range union {
			extra = append(extra, id)
			if len(extra) == 5 {
				break
			}
		}
		t.Fatalf("%d unexpected effects appeared, e.g. %v", len(union), extra)
	}

	for i, p := range []*proxy.Proxy{proxy1, proxy2} {
		st := p.Moderator().Stats()
		if st.Admissions != st.Completions {
			t.Fatalf("server %d moderator ledger unbalanced after drain: admissions=%d completions=%d",
				i+1, st.Admissions, st.Completions)
		}
	}

	t.Logf("soak: %d ops, %d redelivered (absorbed), server1=%d server2=%d, faults=%v, conns=%d",
		workers*perWorker, redelivered, len(ids1), len(ids2), inj.Counts(), inj.Conns())

	// Goroutine-leak check: after clients and servers close, the runtime
	// should settle back to (about) where it started.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= goroutinesBefore+5 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				goroutinesBefore, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestChaosCorruptionRecoveredByChecksumAndRetry isolates the corruption
// path: with an aggressively corrupting link, every sealed frame that is
// damaged is dropped by the receiver's checksum, the attempt times out, and
// the idempotent retry completes the call. No call may observe a wrong
// answer.
func TestChaosCorruptionRecoveredByChecksumAndRetry(t *testing.T) {
	addr := startServer(t, newEchoProxy(t, "echo"))
	inj := chaosnet.New(chaosnet.Config{
		Seed:            7,
		CorruptProb:     0.25,
		OpsBeforeFaults: 0,
		Record:          true,
	})
	c := newClient(
		WithDialFunc(inj.DialFunc(addr)),
		WithRetry(RetryPolicy{
			MaxAttempts:    10,
			BaseBackoff:    time.Millisecond,
			MaxBackoff:     4 * time.Millisecond,
			AttemptTimeout: 100 * time.Millisecond,
		}),
	)
	defer c.Close()

	stub := c.Component("echo", WithIdempotent())
	for i := 0; i < 30; i++ {
		want := fmt.Sprintf("payload-%d", i)
		got, err := stub.Invoke(context.Background(), "echo", want)
		if err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
		if got != want {
			t.Fatalf("call %d: corrupted answer %q delivered as valid, want %q", i, got, want)
		}
	}
	if inj.Counts()[chaosnet.FaultCorrupt] == 0 {
		t.Fatal("the schedule injected no corruption; the test proved nothing")
	}
}
