package amrpc

// Tests for the combining frame writer both ends of a connection share:
// who flushes and what a flush carries, the back-pressure bound, what a
// write error does to the flusher, to later senders and to the calls a
// Client had in flight, and the yield rule.

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// gatedConn is a net.Conn of which only Write works: it records every call,
// announces it on entered, and — while a gate is installed — blocks until
// the gate yields a value, the error to return (nil to succeed).
type gatedConn struct {
	net.Conn
	entered chan struct{}
	gate    chan error

	mu     sync.Mutex
	writes [][]byte
}

func newGatedConn(gated bool) *gatedConn {
	c := &gatedConn{entered: make(chan struct{}, 1024)}
	if gated {
		c.gate = make(chan error)
	}
	return c
}

func (c *gatedConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.writes = append(c.writes, append([]byte(nil), b...))
	c.mu.Unlock()
	c.entered <- struct{}{}
	if c.gate != nil {
		if err := <-c.gate; err != nil {
			return 0, err
		}
	}
	return len(b), nil
}

func (c *gatedConn) recorded() [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([][]byte(nil), c.writes...)
}

// responseIDs splits one recorded write into lines and decodes each as a
// response frame: anything torn or interleaved fails here.
func responseIDs(t *testing.T, write []byte) []uint64 {
	t.Helper()
	if len(write) == 0 || write[len(write)-1] != '\n' {
		t.Fatalf("write does not end on a frame boundary: %q", write)
	}
	var ids []uint64
	for _, line := range bytes.Split(write[:len(write)-1], []byte{'\n'}) {
		var resp response
		if err := decodeResponse(line, &resp); err != nil {
			t.Fatalf("frame %q does not decode: %v", line, err)
		}
		ids = append(ids, resp.ID)
	}
	return ids
}

// within fails the test if f has not returned after a generous bound: a
// send that must not block.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() { defer close(done); f() }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s blocked", what)
	}
}

func await(t *testing.T, what string, ch <-chan struct{}) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s never happened", what)
	}
}

// TestFrameWriterCarriesFramesSentDuringAFlush: while the first write is in
// progress, further sends return at once and leave together in exactly one
// second write, whole and in append order.
func TestFrameWriterCarriesFramesSentDuringAFlush(t *testing.T) {
	const k = 9
	conn := newGatedConn(true)
	flushes := 0
	w := newFrameWriter(conn, func(frames int) { flushes += frames })
	flusher := make(chan error, 1)
	go func() { flusher <- w.sendResponse(&response{ID: 1}, false) }()
	await(t, "the first write", conn.entered)

	within(t, "a send during a flush", func() {
		for i := 0; i < k; i++ {
			if err := w.sendResponse(&response{ID: uint64(2 + i), Result: []byte(`"carried"`)}, false); err != nil {
				t.Errorf("carried send %d: %v", i, err)
			}
		}
	})
	conn.gate <- nil
	await(t, "the second write", conn.entered)
	conn.gate <- nil
	if err := <-flusher; err != nil {
		t.Fatalf("flusher: %v", err)
	}

	writes := conn.recorded()
	if len(writes) != 2 {
		t.Fatalf("%d writes, want 2 (the flusher's own frame, then everything carried)", len(writes))
	}
	if ids := responseIDs(t, writes[0]); len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("first write carried %v, want [1]", ids)
	}
	ids := responseIDs(t, writes[1])
	if len(ids) != k {
		t.Fatalf("second write carried %d frames, want %d", len(ids), k)
	}
	for i, id := range ids {
		if id != uint64(2+i) {
			t.Fatalf("second write carried %v: not in append order", ids)
		}
	}
	if flushes != 1+k {
		t.Fatalf("flushed callback counted %d frames, want %d", flushes, 1+k)
	}
}

// TestFrameWriterBackPressure: with a flush in progress and flushBytes
// already pending, the next send waits for the write to return, so no write
// ever carries more than flushBytes plus one frame — whether or not the
// flusher yields before its writes.
func TestFrameWriterBackPressure(t *testing.T) {
	t.Run("alone", func(t *testing.T) { testFrameWriterBackPressure(t, false) })
	t.Run("shared", func(t *testing.T) { testFrameWriterBackPressure(t, true) })
}

func testFrameWriterBackPressure(t *testing.T, shared bool) {
	conn := newGatedConn(true)
	w := newFrameWriter(conn, nil)
	flusher := make(chan error, 1)
	go func() { flusher <- w.sendResponse(&response{ID: 1}, shared) }()
	await(t, "the first write", conn.entered)

	big := response{Result: []byte(`"` + strings.Repeat("x", 8000) + `"`)}
	frameLen := len(appendResponse(nil, &big)) + 16 // the ID's digits and the newline
	pendingLen := func() int {
		w.mu.Lock()
		defer w.mu.Unlock()
		return len(w.pending)
	}
	next := uint64(2)
	within(t, "a send below the bound", func() {
		for pendingLen() < flushBytes {
			big.ID = next
			next++
			if err := w.sendResponse(&big, shared); err != nil {
				t.Errorf("send: %v", err)
			}
		}
	})

	blocked := make(chan struct{})
	go func() {
		defer close(blocked)
		last := big
		last.ID = next
		if err := w.sendResponse(&last, shared); err != nil {
			t.Errorf("send past the bound: %v", err)
		}
	}()
	select {
	case <-blocked:
		t.Fatalf("a send with %d bytes pending behind a write in progress did not wait", pendingLen())
	case <-time.After(50 * time.Millisecond):
	}
	if n := pendingLen(); n >= flushBytes+frameLen {
		t.Fatalf("%d bytes pending, bound is %d + one frame", n, flushBytes)
	}

	conn.gate <- nil // the first write returns: room again
	await(t, "the waiting send", blocked)
	close(conn.gate) // every later write succeeds at once
	if err := <-flusher; err != nil {
		t.Fatalf("flusher: %v", err)
	}
	want := uint64(1)
	for _, write := range conn.recorded() {
		if len(write) >= flushBytes+frameLen {
			t.Fatalf("one write of %d bytes, bound is %d + one frame", len(write), flushBytes)
		}
		for _, id := range responseIDs(t, write) {
			if id != want {
				t.Fatalf("frame %d written where %d was due", id, want)
			}
			want++
		}
	}
	if want != next+1 {
		t.Fatalf("%d frames written, %d sent", want-1, next)
	}
}

// TestFrameWriterWriteErrorIsSticky: the flusher gets the write error, a
// sender it was carrying got nil, every later send gets the error at once
// and the connection is not written to again.
func TestFrameWriterWriteErrorIsSticky(t *testing.T) {
	boom := errors.New("boom")
	conn := newGatedConn(true)
	w := newFrameWriter(conn, nil)
	flusher := make(chan error, 1)
	go func() { flusher <- w.sendResponse(&response{ID: 1}, false) }()
	await(t, "the first write", conn.entered)
	if err := w.sendResponse(&response{ID: 2}, false); err != nil {
		t.Fatalf("carried send: %v", err)
	}
	conn.gate <- boom
	if err := <-flusher; !errors.Is(err, boom) {
		t.Fatalf("flusher got %v, want the write error", err)
	}
	within(t, "a send after a write error", func() {
		for i := 0; i < 3; i++ {
			if err := w.sendResponse(&response{ID: 3}, true); !errors.Is(err, boom) {
				t.Errorf("later send got %v, want the write error", err)
			}
		}
	})
	if n := len(conn.recorded()); n != 1 {
		t.Fatalf("%d writes, want 1: a failed connection is not written to again", n)
	}
}

// TestFrameWriterYieldsOnlyWhenShared pins the one scheduling rule on a
// single processor, where "already runnable" is exact: a flusher whose
// frame was sent with another call in flight yields once, so the senders
// queued behind it join its write; a flusher alone on the connection
// writes before anybody else runs.
func TestFrameWriterYieldsOnlyWhenShared(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds, others = 50, 4
	for _, shared := range []bool{false, true} {
		batched := 0
		for r := 0; r < rounds; r++ {
			conn := newGatedConn(false)
			w := newFrameWriter(conn, nil)
			var wg sync.WaitGroup
			for i := 0; i < others; i++ {
				wg.Add(1)
				go func(id uint64) {
					defer wg.Done()
					_ = w.sendResponse(&response{ID: id}, shared)
				}(uint64(2 + i))
			}
			_ = w.sendResponse(&response{ID: 1}, shared)
			wg.Wait()
			writes := conn.recorded()
			sent := 0
			for _, write := range writes {
				sent += len(responseIDs(t, write))
			}
			if sent != 1+others {
				t.Fatalf("%d frames written, want %d", sent, 1+others)
			}
			if len(responseIDs(t, writes[0])) > 1 {
				batched++
			}
		}
		// The scheduler looks past its local queue now and then, and a
		// busy host can preempt anywhere, so neither side is asked for
		// every round.
		if shared && batched < rounds*4/5 {
			t.Errorf("with other calls in flight %d of %d first writes carried a runnable sender's frame", batched, rounds)
		}
		if !shared && batched > rounds/10 {
			t.Errorf("with one call in flight %d of %d first writes waited for other senders", batched, rounds)
		}
	}
}

// TestFrameWriterStress: 64 senders, 1 000 request frames each, through a
// net.Pipe to a reader that verifies every checksum and the multiset of
// IDs. Run under -race by `make race`.
func TestFrameWriterStress(t *testing.T) {
	const senders, per = 64, 1000
	client, server := net.Pipe()
	defer client.Close()
	w := newFrameWriter(client, nil)

	seen := make(map[uint64]int, senders*per)
	readDone := make(chan error, 1)
	go func() {
		sc := bufio.NewScanner(server)
		for n := 0; n < senders*per && sc.Scan(); n++ {
			var req request
			if err := decodeRequest(append([]byte(nil), sc.Bytes()...), &req); err != nil {
				readDone <- err
				return
			}
			seen[req.ID]++
		}
		readDone <- sc.Err()
	}()

	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				req := request{
					ID:        uint64(s*per + k + 1),
					Component: "stress",
					Method:    strings.Repeat("m", 1+(s*31+k*17)%200),
				}
				if err := w.sendRequest(&req, k%2 == 0); err != nil {
					t.Errorf("sender %d frame %d: %v", s, k, err)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("reader: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("reader never saw every frame")
	}
	if len(seen) != senders*per {
		t.Fatalf("%d distinct IDs read, want %d", len(seen), senders*per)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("frame %d read %d times", id, n)
		}
	}
}

// stallConn is a real connection whose writes, once armed, block on a gate
// and then fail with the value it yields, transmitting nothing.
type stallConn struct {
	net.Conn
	armed   atomic.Bool
	entered chan struct{}
	gate    chan error
}

func (c *stallConn) Write(b []byte) (int, error) {
	if !c.armed.Load() {
		return c.Conn.Write(b)
	}
	c.entered <- struct{}{}
	return 0, <-c.gate
}

// TestFrameWriterClientWriteErrorFailsEveryCarriedCall: eight calls in
// flight on one Client — one flushing into a stalled connection, seven
// whose frames it carries — all resolve with ErrTransport when that write
// fails, and the next call re-dials.
func TestFrameWriterClientWriteErrorFailsEveryCarriedCall(t *testing.T) {
	const calls = 8
	addr := startServer(t, newEchoProxy(t, "svc"))
	var dials atomic.Int64
	stall := &stallConn{entered: make(chan struct{}, 1), gate: make(chan error)}
	c := newClient(WithDialFunc(func() (net.Conn, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		if dials.Add(1) == 1 {
			stall.Conn = conn
			return stall, nil
		}
		return conn, nil
	}))
	t.Cleanup(func() { _ = c.Close() })
	stub := c.Component("svc")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := stub.Invoke(ctx, "echo", "warm"); err != nil {
		t.Fatal(err)
	}

	stall.armed.Store(true)
	errs := make(chan error, calls)
	invoke := func() {
		_, err := stub.Invoke(ctx, "echo", "lost")
		errs <- err
	}
	go invoke()
	await(t, "the stalled write", stall.entered)
	for i := 1; i < calls; i++ {
		go invoke()
	}
	// Every other call must be riding the stalled flush — registered and
	// its frame pending — before the write is failed.
	c.mu.Lock()
	out := c.cur.out
	c.mu.Unlock()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(200 * time.Microsecond) {
		out.mu.Lock()
		carried := out.frames
		out.mu.Unlock()
		if carried == calls-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d frames riding the stalled flush, want %d", carried, calls-1)
		}
	}
	if n := c.PendingCalls(); n != calls {
		t.Fatalf("%d calls pending, want %d", n, calls)
	}

	stall.gate <- errors.New("injected write failure")
	for i := 0; i < calls; i++ {
		select {
		case err := <-errs:
			if !errors.Is(err, ErrTransport) {
				t.Fatalf("call resolved with %v, want ErrTransport", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d calls still hanging after the write failed", calls-i, calls)
		}
	}
	if n := c.PendingCalls(); n != 0 {
		t.Fatalf("%d calls still pending", n)
	}
	if got, err := stub.Invoke(ctx, "echo", "again"); err != nil || got != "again" {
		t.Fatalf("call after the failure: %v, %v", got, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d dials, want 2: the failed generation is replaced once", n)
	}
}
