// Package ticket implements the paper's running example: a trouble-
// ticketing system in which clients open (place) tickets on a server and
// agents assign (retrieve) them — a producer/consumer protocol over a
// bounded buffer (Section 4).
//
// Server is the functional component: a plain, sequential ring buffer with
// no synchronization, security, or instrumentation code whatsoever. All of
// those concerns are composed around it by the framework; see wire.go for
// the assembly that reproduces the paper's Figures 5-6 (initialization) and
// 13-16 (the authentication extension).
package ticket

import (
	"errors"
	"fmt"
	"sync/atomic"
)

// Ticket is one trouble ticket.
type Ticket struct {
	ID      string `json:"id"`
	Summary string `json:"summary"`
}

// ErrFull is returned by Open on a full buffer. Under the framework's
// synchronization aspect this never surfaces: callers block instead.
var ErrFull = errors.New("ticket: buffer full")

// ErrEmpty is returned by Assign on an empty buffer. Under the framework's
// synchronization aspect this never surfaces: callers block instead.
var ErrEmpty = errors.New("ticket: buffer empty")

// Server is the sequential functional component: a bounded ring buffer of
// tickets. It is deliberately free of locks and guards — the paper's whole
// point is that such interaction code lives in aspects, not here.
//
// The one concession to the admission protocol it lives under: the paper's
// buffer guard (ActiveOpen == 0 / ActiveAssign == 0) serializes producers
// against producers and consumers against consumers, but one Open and one
// Assign may legitimately execute at the same time — the classic two-ended
// ring buffer. The two ends therefore share nothing unsynchronized: tail is
// written only by the (single) producer, head only by the (single)
// consumer, and size is atomic — each end's Add is the release that
// publishes its slot write to the other end, exactly Lamport's
// single-producer/single-consumer construction. Beyond that pairing the
// Server is NOT safe for unguarded concurrent use.
type Server struct {
	ring []Ticket
	head int // consumer-owned
	tail int // producer-owned
	size atomic.Int64

	opened   atomic.Uint64
	assigned atomic.Uint64
}

// NewServer creates a ticket server with the given buffer capacity.
func NewServer(capacity int) (*Server, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("ticket: capacity %d must be positive", capacity)
	}
	return &Server{ring: make([]Ticket, capacity)}, nil
}

// Open places a ticket into the buffer (the paper's open service).
func (s *Server) Open(t Ticket) error {
	// size < capacity proves the slot at tail is free, and the consumer's
	// decrement that freed it also published its clear of that slot.
	if s.size.Load() == int64(len(s.ring)) {
		return ErrFull
	}
	s.ring[s.tail] = t
	s.tail = (s.tail + 1) % len(s.ring)
	s.size.Add(1)
	s.opened.Add(1)
	return nil
}

// Assign retrieves the oldest ticket from the buffer (the paper's assign
// service).
func (s *Server) Assign() (Ticket, error) {
	// size > 0 proves the slot at head is occupied, and the producer's
	// increment that filled it also published its write of that slot.
	if s.size.Load() == 0 {
		return Ticket{}, ErrEmpty
	}
	t := s.ring[s.head]
	s.ring[s.head] = Ticket{}
	s.head = (s.head + 1) % len(s.ring)
	s.size.Add(-1)
	s.assigned.Add(1)
	return t, nil
}

// Size returns the number of buffered tickets.
func (s *Server) Size() int { return int(s.size.Load()) }

// Opened returns the total number of tickets ever opened.
func (s *Server) Opened() uint64 { return s.opened.Load() }

// Assigned returns the total number of tickets ever assigned.
func (s *Server) Assigned() uint64 { return s.assigned.Load() }
