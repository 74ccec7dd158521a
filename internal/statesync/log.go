// Package statesync replicates a guarded component's effects between the
// nodes of the distributed admission plane so that a domain takeover
// resumes the *state*, not just the moderation.
//
// The design follows the plane's existing fencing discipline end to end:
//
//   - Every owned domain has an append-only effect log. Entries are
//     appended at post-action time (by the replication aspect the cluster
//     composes) and stamped with the owner's lease term, a per-domain
//     sequence number, and the completed method + arguments as one JSON
//     array every later stage carries as is: a served call's arguments
//     copied in the bytes its frame carried them in, an in-process call's
//     encoded once, there. Appends are lock-free — one atomic fetch-add
//     assigns the sequence, one atomic store publishes the slot — so
//     capture adds no lock to the admission path.
//   - A per-node streamer asynchronously ships pending entries to the
//     domain's ring successor over the plane's control endpoints, and the
//     successor acknowledges a high-water mark; acknowledged entries are
//     reclaimed. Replication lag is bounded by the log capacity: when the
//     unacknowledged window would wrap, appends are refused and counted.
//     An effect whose arguments no offer can carry is refused the same way,
//     at capture; the streamer gets past either hole with a snapshot resync
//     when the application provides one, else by skipping it, which the
//     successor counts as a gap.
//   - On graceful release the owner drains the log, serializes the
//     component state (when the application provides a Snapshot), installs
//     both at the successor, and only then lets the lease move — the
//     release carries a snapshot barrier recording the last sequence the
//     owner captured, whether or not the handoff got through.
//   - The next owner resumes the domain in one call, Manager.Resume,
//     before asserting ownership: it replays its replica — snapshot
//     first, then the log suffix — through the local component, fenced
//     at the new term, and counts as a catch-up gap whatever it could not
//     bring back, a replica short of the barrier among it. Stale appends
//     (old terms) and duplicates (seq at or below the applied mark) are
//     refused by the receiver exactly like stale wakes are today.
package statesync

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"repro/internal/amrpc"
	"repro/internal/aspect"
)

// Entry is one replicated effect: a method execution that completed on the
// owner of Domain while it held the lease at Term. Seq is the per-domain,
// per-leadership sequence number (1-based); a new leader starts a fresh
// sequence, so (Term, Seq) totally orders a domain's replicated history.
//
// Args is the arguments as one JSON array, made when the effect was
// captured — from a served call's wire form or an in-process call's list —
// and carried as those bytes to the replica; empty for none.
// On the wire an entry leaves Domain out: the offer carrying it names the
// domain once.
type Entry struct {
	Domain string          `json:"-"`
	Seq    uint64          `json:"seq"`
	Term   uint64          `json:"term"`
	Method string          `json:"method"`
	Args   json.RawMessage `json:"args,omitempty"`
}

// Log is one domain's effect log: a fixed-capacity MPSC ring. Any number
// of capturing postactions may append concurrently; a single streamer reads
// contiguous published entries and advances the acknowledged mark. A slot
// is reused only after its entry has been acknowledged, so the reader
// never observes a torn entry. The entries sit in one array, apart from
// their ready marks, so that a run of them is a slice the streamer encodes
// in place. Each slot keeps its argument buffer from one entry to the
// next, the first cut from one chunk for the whole ring, so an append
// allocates nothing once a slot's buffer has held its largest arguments.
type Log struct {
	domain  string
	mask    uint64
	entries []Entry
	// ready[i] publishes the sequence number whose entry entries[i] holds,
	// so readers detect both unpublished and wrapped cells without a lock.
	ready []atomic.Uint64

	head     atomic.Uint64 // last assigned sequence (0 = empty)
	acked    atomic.Uint64 // acknowledged high-water mark; entries <= acked are reclaimable
	overflow atomic.Uint64 // appends refused because the unacked window was full
	skipped  atomic.Uint64 // sequences abandoned by SkipGap (no snapshot available)
	// hole is the highest sequence an append was refused at. The log is
	// gapped while it lies above acked: a resync or skip that reclaims
	// less leaves a later hole in place.
	hole atomic.Uint64
}

// slotArgBytes is the argument buffer each slot starts with.
const slotArgBytes = 64

// errFull refuses an append that would overwrite an unacknowledged entry.
var errFull = errors.New("effect log full (lag bound hit)")

// NewLog creates a log for domain with the given capacity (rounded up to a
// power of two, minimum 16).
func NewLog(domain string, capacity int) *Log {
	size := 16
	for size < capacity {
		size <<= 1
	}
	l := &Log{domain: domain, mask: uint64(size - 1), entries: make([]Entry, size), ready: make([]atomic.Uint64, size)}
	chunk := make([]byte, size*slotArgBytes)
	for i := range l.entries {
		l.entries[i].Args = chunk[i*slotArgBytes : i*slotArgBytes : (i+1)*slotArgBytes]
	}
	return l
}

// Capacity returns the slot count.
func (l *Log) Capacity() int { return len(l.entries) }

// effectArgs is one captured effect's arguments: a served call's in the
// wire form its frame carried them in, or an in-process call's list.
type effectArgs struct {
	wire aspect.ArgReader
	list []any
}

// add records one completed effect, its arguments written into the slot
// it claims, returning its sequence number and, when it was not stored,
// why. An append is refused when it would overwrite an unacknowledged
// entry (the overflow is counted) or when an argument does not encode or
// nests too deep for an offer to carry. Either way the sequence is
// consumed, its slot is never published and the log is marked gapped: the
// streamer gets past the hole with a snapshot resync, or by SkipGap.
// Lock-free; safe from any number of goroutines.
func (l *Log) add(term uint64, method string, args effectArgs) (uint64, error) {
	seq := l.head.Add(1)
	if seq > uint64(len(l.entries)) && seq-uint64(len(l.entries)) > l.acked.Load() {
		l.overflow.Add(1)
		l.refuse(seq)
		return seq, errFull
	}
	e := &l.entries[seq&l.mask]
	buf, err := appendArgs(e.Args[:0], args)
	if err != nil {
		e.Args = buf[:0]
		l.refuse(seq)
		return seq, fmt.Errorf("%s %w", method, err)
	}
	*e = Entry{Domain: l.domain, Seq: seq, Term: term, Method: method, Args: buf}
	l.ready[seq&l.mask].Store(seq)
	return seq, nil
}

// argDepth is how many arrays and objects an entry's argument sits inside
// in the offer: the offer, its entries, the entry and the entry's args.
const argDepth = 4

// appendArgs appends args to dst as one JSON array, and nothing for no
// arguments: each argument copied as its frame carried it, or encoded as
// amrpc encodes it. It fails for an argument that does not encode, or that
// nests too deep for the offer it will sit argDepth levels inside.
func appendArgs(dst []byte, args effectArgs) ([]byte, error) {
	n := len(args.list)
	if args.wire != nil {
		n = args.wire.Arity()
	}
	if n == 0 {
		return dst, nil
	}
	dst = append(dst, '[')
	for j := range n {
		if j > 0 {
			dst = append(dst, ',')
		}
		start := len(dst)
		if args.wire != nil {
			dst = append(dst, args.wire.Raw(j)...)
		} else {
			var err error
			if dst, err = amrpc.AppendValue(dst, args.list[j]); err != nil {
				return dst, fmt.Errorf("argument %d: %w", j, err)
			}
		}
		if c := dst[start]; (c == '[' || c == '{') && !amrpc.Fits(dst[start:], argDepth) {
			return dst, fmt.Errorf("argument %d nests too deep for an offer", j)
		}
	}
	return append(dst, ']'), nil
}

// ReadFrom returns up to max contiguous published entries with sequence
// numbers strictly greater than from. It stops at the first unpublished
// (or lost) slot, and at the end of the ring: the run is a slice of the
// log itself, not a copy. No append can overwrite a published entry
// before it is acknowledged, so the run stays valid until the reader
// advances the acknowledged mark past it. Single-reader.
func (l *Log) ReadFrom(from uint64, max int) []Entry {
	head := l.head.Load()
	first := (from + 1) & l.mask
	n := 0
	for seq := from + 1; seq <= head && n < max && first+uint64(n) < uint64(len(l.entries)); seq++ {
		if l.ready[seq&l.mask].Load() != seq {
			break // not yet published, or lost to overflow
		}
		n++
	}
	return l.entries[first : first+uint64(n) : first+uint64(n)]
}

// Ack advances the acknowledged high-water mark (monotone).
func (l *Log) Ack(seq uint64) {
	for {
		cur := l.acked.Load()
		if seq <= cur || l.acked.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// SkipGap abandons the hole at the front of the unacknowledged window: a
// refused append consumes a sequence whose slot is never published, so
// the reader would otherwise stall at it forever. The acknowledged mark
// advances to just before the next published sequence (or to head when
// nothing further is published) and the abandoned range is counted; a
// later hole still leaves the log gapped. The streamer calls it only when
// no snapshot resync is available — the lost range is then surfaced to the
// receiver as a sequence gap instead of wedging replication for the rest
// of the term.
// Single-reader, like ReadFrom. Returns how many sequences were abandoned.
func (l *Log) SkipGap() uint64 {
	from := l.acked.Load()
	head := l.head.Load()
	if from >= head {
		return 0
	}
	skipTo := head
	for seq := from + 1; seq <= head; seq++ {
		if l.ready[seq&l.mask].Load() == seq {
			skipTo = seq - 1
			break
		}
	}
	if skipTo <= from {
		return 0
	}
	l.Ack(skipTo)
	l.skipped.Add(skipTo - from)
	return skipTo - from
}

// refuse records seq as a hole: the highest one is kept.
func (l *Log) refuse(seq uint64) {
	for {
		h := l.hole.Load()
		if h >= seq || l.hole.CompareAndSwap(h, seq) {
			return
		}
	}
}

// LastSeq returns the last assigned sequence number.
func (l *Log) LastSeq() uint64 { return l.head.Load() }

// Acked returns the acknowledged high-water mark.
func (l *Log) Acked() uint64 { return l.acked.Load() }

// Pending returns the number of assigned-but-unacknowledged sequences.
func (l *Log) Pending() uint64 { return l.head.Load() - l.acked.Load() }

// Overflows returns how many appends were refused for a full window.
func (l *Log) Overflows() uint64 { return l.overflow.Load() }

// Skipped returns how many sequences SkipGap has abandoned.
func (l *Log) Skipped() uint64 { return l.skipped.Load() }

// Gapped reports whether a refused append left a hole above the
// acknowledged mark. A snapshot through seq covers the holes at or below
// it: acknowledging seq is the resync.
func (l *Log) Gapped() bool { return l.hole.Load() > l.acked.Load() }
