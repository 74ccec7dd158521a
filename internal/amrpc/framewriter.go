package amrpc

import (
	"net"
	"runtime"
	"sync"
)

// flushBytes is the frame writer's back-pressure bound: while a flush is in
// progress and at least this many bytes are already pending behind it, a
// sender waits for the write to return instead of appending. One conn.Write
// therefore never carries more than flushBytes plus one frame.
const flushBytes = 64 * 1024

// frameWriter is the write side of one connection, the same on both ends: a
// client connection generation sends requests through it, a server
// connection its responses. A sender encodes its frame straight into the
// pending buffer; if no flush is in progress it becomes the flusher and
// writes — swapping two buffers — until nothing is pending, otherwise it
// returns at once and the flusher in progress carries its frame. conn.Write
// is therefore called by one goroutine at a time and always with whole
// frames in append order.
//
// The one scheduling rule: before a write, the flusher yields the processor
// once iff some frame it is about to write was sent while another call was
// in flight on the connection (the sender says so). Callers that are
// already runnable then add their frames to the same syscall; with a single
// call in flight there is no yield and nothing waits for a batch.
type frameWriter struct {
	conn net.Conn
	// flushed, when set, runs before each conn.Write with the number of
	// frames the write carries.
	flushed func(frames int)

	mu       sync.Mutex
	room     sync.Cond // signalled when a write takes pending, for back-pressure waiters
	pending  []byte    // whole frames no write has taken yet
	frames   int       // frames in pending
	yield    bool      // a frame in pending was sent with another call in flight
	spare    []byte    // the buffer pending swaps with
	flushing bool
	err      error // the first write error; sticky
}

func newFrameWriter(conn net.Conn, flushed func(frames int)) *frameWriter {
	w := &frameWriter{conn: conn, flushed: flushed}
	w.room.L = &w.mu
	return w
}

// sendRequest queues one request frame; see finish for the result.
func (w *frameWriter) sendRequest(req *request, shared bool) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.pending = append(appendRequest(w.pending, req), '\n')
	return w.finish(shared)
}

// sendResponse queues one response frame; see finish for the result.
func (w *frameWriter) sendResponse(resp *response, shared bool) error {
	if err := w.begin(); err != nil {
		return err
	}
	w.pending = append(appendResponse(w.pending, resp), '\n')
	return w.finish(shared)
}

// begin returns with w.mu held and room for one more frame, or with the
// sticky write error and w.mu released.
func (w *frameWriter) begin() error {
	w.mu.Lock()
	for w.err == nil && w.flushing && len(w.pending) >= flushBytes {
		w.room.Wait()
	}
	if w.err != nil {
		w.mu.Unlock()
		return w.err
	}
	return nil
}

// finish accounts for the frame just appended and releases w.mu. When a
// flush is in progress the frame rides it and finish returns nil at once: a
// carried sender learns of a later write error from whatever watches the
// connection (the client's teardown, the server's reader), not from here.
// Otherwise the caller flushes until nothing is pending and gets the write
// error, if any; shared reports that another call was in flight on the
// connection when this frame was sent.
func (w *frameWriter) finish(shared bool) error {
	w.frames++
	w.yield = w.yield || shared
	if w.flushing {
		w.mu.Unlock()
		return nil
	}
	w.flushing = true
	for w.err == nil && len(w.pending) > 0 {
		if w.yield {
			w.mu.Unlock()
			runtime.Gosched()
			w.mu.Lock()
		}
		buf, frames := w.pending, w.frames
		w.pending, w.frames, w.yield = w.spare[:0], 0, false
		w.room.Broadcast() // pending is empty again
		w.mu.Unlock()
		// Counted before the write, so a peer that has read a frame finds
		// it in the ledger.
		if w.flushed != nil {
			w.flushed(frames)
		}
		_, err := w.conn.Write(buf)
		w.mu.Lock()
		w.spare = buf
		w.err = err
	}
	w.flushing = false
	err := w.err
	if err != nil {
		w.room.Broadcast() // whoever waits for room gets the error instead
	}
	w.mu.Unlock()
	return err
}
