package statesync

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster/view"
	"repro/internal/naming"
)

// ErrStaleTerm aliases the plane's fencing sentinel: a replication offer
// stamped with an outdated leadership term is refused with it, exactly
// like stale wakes and stale forwarded admissions.
var ErrStaleTerm = naming.ErrStaleTerm

// Offer is one replication message from a domain's leader to its
// successor: an optional state snapshot (covering every effect up to
// SnapSeq) and a batch of contiguous log entries. From names the sender,
// Term fences the whole offer at the sender's lease term.
type Offer struct {
	From     string  `json:"from"`
	Domain   string  `json:"domain"`
	Term     uint64  `json:"term"`
	Snapshot []byte  `json:"snapshot,omitempty"`
	SnapSeq  uint64  `json:"snap_seq,omitempty"`
	Entries  []Entry `json:"entries,omitempty"`
}

// Ack is the successor's reply: the acknowledged high-water mark. The
// sender reclaims log entries at or below it.
type Ack struct {
	Acked uint64 `json:"acked"`
}

// Transport ships offers to a successor node. The plane implements it
// over its pooled amrpc control connections; tests use in-process fakes.
// An offer's Entries are a run of the leader's log itself: they are valid
// only until Offer returns.
type Transport interface {
	Offer(ctx context.Context, successor string, o Offer) (Ack, error)
}

// Config configures a Manager.
type Config struct {
	// Node is this node's cluster identity (required).
	Node string
	// Transport ships offers (required).
	Transport Transport
	// Snapshot, when set, serializes one domain's full functional state.
	// It unlocks the snapshot-on-graceful-release path and snapshot
	// resync after a log overflow; without it the manager replicates the
	// effect log only.
	Snapshot func(domain string) ([]byte, error)
	// Capacity is the per-domain log capacity in entries (default 8192).
	// It bounds replication lag: appends past an unacknowledged window of
	// this size are refused and counted.
	Capacity int
	// Interval paces the background streamer when idle (default 25ms);
	// a full batch of fresh appends kicks it immediately.
	Interval time.Duration
	// Logf, when set, receives one line per notable replication event.
	Logf func(format string, args ...any)
}

const (
	batch        = 256             // entries per offer at most
	offerTimeout = 2 * time.Second // bound on one offer round trip
)

func (cfg *Config) withDefaults() error {
	if cfg.Node == "" {
		return fmt.Errorf("statesync: config: empty node")
	}
	if cfg.Transport == nil {
		return fmt.Errorf("statesync: config: nil transport")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 8192
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 25 * time.Millisecond
	}
	return nil
}

// stream is the leader side of one domain: its effect log plus streaming
// position and successor.
type stream struct {
	log  *Log
	term uint64

	// flushMu serializes flushOne between the background streamLoop and a
	// synchronous Handoff. Log.ReadFrom/Ack are single-reader: two
	// concurrent flushers could advance acked under each other's stale
	// read position and ship a torn or stale entry.
	flushMu sync.Mutex
	stalls  int // consecutive flush rounds stalled at a log hole (under flushMu)

	mu        sync.Mutex
	succ      string
	needSnap  bool // successor changed (or gap with a snapshot available): resend the baseline
	staleStop bool // the successor refused our term: we are a zombie leader, stop streaming
	streamed  uint64
	snapsSent uint64
	offerErrs uint64
}

// replica is the successor side of one domain: the received snapshot and
// contiguous entry suffix, fenced at the highest term seen.
type replica struct {
	mu       sync.Mutex
	from     string
	term     uint64
	snap     []byte
	snapSeq  uint64
	entries  suffix
	lastSeq  uint64
	snapsIn  uint64
	dups     uint64
	gaps     uint64
	refusals uint64
}

// catchup records what a takeover consumed from a replica (for the
// introspection view).
type catchup struct {
	restored bool
	applied  int
	gaps     uint64
}

// Manager runs both sides of effect replication for one node: it captures
// completions into per-domain logs, streams them to ring successors, and
// holds replicas received from the domains this node stands successor for.
type Manager struct {
	cfg Config

	// streams is the atomically published leader table, so Capture — the
	// completion-hook path — costs one atomic load and a map lookup, no
	// lock (the tracerBox discipline, applied to replication).
	streams atomic.Pointer[map[string]*stream]

	mu       sync.Mutex
	replicas map[string]*replica
	catchups map[string]catchup
	closed   bool

	paused atomic.Bool // test/chaos hook: freeze outbound streaming (a wedged node)

	notify chan struct{}
	stop   chan struct{}
	wg     sync.WaitGroup
}

// NewManager creates and starts a manager; Close stops its streamer.
func NewManager(cfg Config) (*Manager, error) {
	if err := cfg.withDefaults(); err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:      cfg,
		replicas: make(map[string]*replica, 4),
		catchups: make(map[string]catchup, 4),
		notify:   make(chan struct{}, 1),
		stop:     make(chan struct{}),
	}
	empty := map[string]*stream{}
	m.streams.Store(&empty)
	m.wg.Add(1)
	go m.streamLoop()
	return m, nil
}

// Close stops the background streamer.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	close(m.stop)
	m.mu.Unlock()
	m.wg.Wait()
}

// Pause freezes (or resumes) outbound streaming — the chaos hook that
// makes a wedged node stop replicating along with its heartbeat.
func (m *Manager) Pause(p bool) { m.paused.Store(p) }

func (m *Manager) logf(format string, args ...any) {
	if m.cfg.Logf != nil {
		m.cfg.Logf(format, args...)
	}
}

// publishStreams republishes the leader table with mutate applied.
// Callers hold m.mu.
func (m *Manager) publishStreams(mutate func(map[string]*stream)) {
	old := *m.streams.Load()
	fresh := make(map[string]*stream, len(old)+1)
	for d, s := range old {
		fresh[d] = s
	}
	mutate(fresh)
	m.streams.Store(&fresh)
}

// Lead begins capturing and streaming effects for domain at term, with a
// fresh log (a new leadership starts a new sequence). Leading the same
// domain at an unchanged term is a no-op: the lease was re-acquired
// without ever expiring (e.g. after a transient renew failure), so the
// live log — and the successor replica tracking its sequence — stay
// valid; restarting the sequence at 1 would make every new entry look
// like a duplicate downstream.
func (m *Manager) Lead(domain string, term uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if s := (*m.streams.Load())[domain]; s != nil && s.term == term {
		return
	}
	m.publishStreams(func(tab map[string]*stream) {
		tab[domain] = &stream{log: NewLog(domain, m.cfg.Capacity), term: term}
	})
}

// Leading reports whether this node is capturing effects for domain, and
// at which term.
func (m *Manager) Leading(domain string) (uint64, bool) {
	if s := (*m.streams.Load())[domain]; s != nil {
		return s.term, true
	}
	return 0, false
}

// Release stops leading domain (lease lost or handed over).
func (m *Manager) Release(domain string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.publishStreams(func(tab map[string]*stream) { delete(tab, domain) })
}

// SetSuccessor points domain's stream at its current ring successor. A
// successor change schedules a fresh snapshot baseline when the
// application provides one (the new successor missed the reclaimed
// prefix).
func (m *Manager) SetSuccessor(domain, succ string) {
	s := (*m.streams.Load())[domain]
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.succ != succ {
		if s.succ != "" && m.cfg.Snapshot != nil {
			s.needSnap = true
		}
		s.succ = succ
		s.staleStop = false
	}
	s.mu.Unlock()
}

// RequireSnapshot schedules a fresh snapshot baseline for domain's next
// offer, when the application provides one. The plane calls it after a
// takeover that restored a snapshot: the restored state is not in the new
// leader's (fresh) log, so its own successor needs a snapshot to be able
// to resume it in turn.
func (m *Manager) RequireSnapshot(domain string) {
	s := (*m.streams.Load())[domain]
	if s == nil || m.cfg.Snapshot == nil {
		return
	}
	s.mu.Lock()
	s.needSnap = true
	s.mu.Unlock()
}

// Capture appends one completed effect to domain's log, if this node
// leads it. Lock-free: one atomic load, one map lookup, one ring append
// that encodes args into the slot, so args is not kept. An effect the log
// refuses — its window full, or an argument no offer can carry — is
// logged with its sequence number, and the streamer gets past the hole.
func (m *Manager) Capture(domain, method string, args []any) {
	s := (*m.streams.Load())[domain]
	if s == nil {
		return
	}
	if seq, err := s.log.Append(s.term, method, args); err != nil {
		m.logf("statesync %s: domain %s: effect %d not captured: %v", m.cfg.Node, domain, seq, err)
	}
	// Kick the streamer only once a batch's worth is pending. A per-append
	// wake would cost a goroutine switch per completion — on the trickle
	// case the ticker bounds staleness at Interval instead, and Handoff
	// flushes synchronously, so eager wakes buy nothing but overhead.
	if s.log.Pending() >= batch {
		select {
		case m.notify <- struct{}{}:
		default:
		}
	}
}

// Seq returns domain's last captured sequence number (0 when not leading).
func (m *Manager) Seq(domain string) uint64 {
	if s := (*m.streams.Load())[domain]; s != nil {
		return s.log.LastSeq()
	}
	return 0
}

func (m *Manager) streamLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-t.C:
		case <-m.notify:
		}
		if m.paused.Load() {
			continue
		}
		tab := *m.streams.Load()
		for domain, s := range tab {
			select {
			case <-m.stop:
				return
			default:
			}
			_ = m.flushOne(domain, s, false)
		}
	}
}

// flushOne sends one offer for domain when there is anything pending (or
// force). It returns the first error; transport failures are counted and
// retried by the next round. Serialized per stream: the background
// streamLoop and a synchronous Handoff may both flush the same domain,
// and the log's read side is single-reader.
func (m *Manager) flushOne(domain string, s *stream, force bool) error {
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	s.mu.Lock()
	succ := s.succ
	needSnap := s.needSnap || (s.log.Gapped() && m.cfg.Snapshot != nil)
	stale := s.staleStop
	s.mu.Unlock()
	if succ == "" || stale {
		return nil
	}

	offer := Offer{From: m.cfg.Node, Domain: domain, Term: s.term}
	if needSnap && m.cfg.Snapshot != nil {
		// The sequence mark is read BEFORE serializing, so the snapshot
		// covers at least every effect at or below it. Effects completing
		// during serialization may also land in the snapshot; replaying
		// them again on takeover is harmless for effects that are
		// idempotent by id (the plane's existing redelivery contract), and
		// the graceful-release path drains in-flight work first so its
		// snapshots are exact.
		mark := s.log.LastSeq()
		data, err := m.cfg.Snapshot(domain)
		if err != nil {
			s.mu.Lock()
			s.offerErrs++
			s.mu.Unlock()
			return fmt.Errorf("statesync %s: snapshot %s: %w", m.cfg.Node, domain, err)
		}
		offer.Snapshot = data
		offer.SnapSeq = mark
	}
	from := s.log.Acked()
	if offer.SnapSeq > from {
		from = offer.SnapSeq
	}
	offer.Entries = s.log.ReadFrom(from, batch)
	if offer.Snapshot == nil && len(offer.Entries) == 0 && s.log.Gapped() &&
		s.log.Pending() > 0 && m.cfg.Snapshot == nil {
		// Stalled at a hole left by a refused append, with no snapshot to
		// escalate to. Give a concurrent in-flight append one round to
		// publish its slot, then abandon the lost range: the receiver
		// surfaces the sequence gap (HandleOffer counts it and restarts
		// the suffix), instead of replication wedging for the rest of the
		// term and every later append overflowing in turn.
		if s.stalls++; s.stalls > 1 {
			s.stalls = 0
			if n := s.log.SkipGap(); n > 0 {
				m.logf("statesync %s: domain %s: abandoned %d unreplicated effects (refused appends, no snapshot hook)",
					m.cfg.Node, domain, n)
				offer.Entries = s.log.ReadFrom(s.log.Acked(), batch)
			}
		}
	} else {
		s.stalls = 0
	}
	if offer.Snapshot == nil && len(offer.Entries) == 0 && !force {
		return nil
	}

	ack, err := m.send(succ, offer)
	if err != nil {
		s.mu.Lock()
		if errors.Is(err, ErrStaleTerm) {
			// The successor has seen a higher term: we are a zombie leader.
			// Stop streaming; the lease machinery will retire us.
			s.staleStop = true
			m.logf("statesync %s: domain %s: successor %s refused term %d, stopping stream",
				m.cfg.Node, domain, succ, s.term)
		} else {
			s.offerErrs++
		}
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.succ != succ {
		// Retargeted while the offer was in flight (a Handoff, a ring
		// change): the ack speaks for the old successor only, so the log
		// and the snapshot the new one needs are left as they are.
		return nil
	}
	if offer.Snapshot != nil {
		s.needSnap = false
		s.snapsSent++
		s.log.Ack(offer.SnapSeq)
	}
	s.streamed += uint64(len(offer.Entries))
	if ack.Acked > 0 {
		s.log.Ack(ack.Acked)
	}
	return nil
}

func (m *Manager) send(succ string, o Offer) (Ack, error) {
	ctx, cancel := context.WithTimeout(context.Background(), offerTimeout)
	defer cancel()
	return m.cfg.Transport.Offer(ctx, succ, o)
}

// Handoff synchronously drains domain's log to succ for a graceful
// release: it retargets the stream, forces a snapshot baseline when one
// is available, and flushes until nothing is pending. It returns the
// final handed-over sequence number — the lease release's snapshot
// barrier. The caller must have stopped admitting new effects first. A
// failed flush is retried up to three times, 20 ms apart, and each one
// retried is logged through Config.Logf.
func (m *Manager) Handoff(ctx context.Context, domain, succ string) (uint64, error) {
	s := (*m.streams.Load())[domain]
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	s.succ = succ
	s.staleStop = false
	if m.cfg.Snapshot != nil {
		s.needSnap = true
	}
	s.mu.Unlock()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return s.log.LastSeq(), err
		}
		if err := m.flushOne(domain, s, attempt == 0); err != nil {
			if errors.Is(err, ErrStaleTerm) {
				return s.log.LastSeq(), err
			}
			if attempt >= 3 {
				return s.log.LastSeq(), err
			}
			m.logf("statesync %s: handoff %s to %s: attempt %d failed, retrying: %v", m.cfg.Node, domain, succ, attempt+1, err)
			time.Sleep(20 * time.Millisecond)
			continue
		}
		if s.log.Pending() == 0 {
			return s.log.LastSeq(), nil
		}
	}
}

// HandleOffer ingests one replication offer, given in its wire form (see
// Offer.AppendJSON), on the successor side. Offers fenced at a term below
// the replica's recorded term — or below a term this node itself leads the
// domain at — are refused with ErrStaleTerm; duplicate entries, and a
// snapshot older than the one held at the same term, are dropped
// idempotently. The offer is parsed whole before anything of it is
// applied, so a malformed one changes nothing. The replica keeps no
// reference to raw. The returned Ack carries the contiguous high-water mark
// now held here.
func (m *Manager) HandleOffer(raw []byte) (Ack, error) {
	d := offerDecoders.Get().(*offerDecoder)
	defer d.recycle()
	if err := d.decode(raw); err != nil {
		return Ack{}, fmt.Errorf("statesync %s: offer: %w", m.cfg.Node, err)
	}
	o := &d.out
	if s := (*m.streams.Load())[string(o.domain)]; s != nil && s.term >= o.term {
		m.mu.Lock()
		r := m.replicaFor(o.domain)
		m.mu.Unlock()
		r.mu.Lock()
		r.refusals++
		r.mu.Unlock()
		return Ack{}, fmt.Errorf("statesync %s: offer for %s at term %d, but leading at term %d: %w",
			m.cfg.Node, o.domain, o.term, s.term, ErrStaleTerm)
	}
	m.mu.Lock()
	r := m.replicaFor(o.domain)
	m.mu.Unlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	if o.term < r.term {
		r.refusals++
		return Ack{}, fmt.Errorf("statesync %s: offer for %s at stale term %d (replica at %d): %w",
			m.cfg.Node, o.domain, o.term, r.term, ErrStaleTerm)
	}
	if o.term > r.term {
		// A new leadership generation: its sequence starts over, so the
		// old replica contents are superseded wholesale.
		r.term, r.snap, r.snapSeq, r.entries, r.lastSeq = o.term, nil, 0, suffix{}, 0
	}
	if r.from != string(o.from) {
		r.from = string(o.from)
	}
	if o.snapshot != nil {
		if o.snapSeq < r.snapSeq {
			// A late retry of an older baseline (its connection re-dialled,
			// say): installing it would roll back past the newer one and
			// silently drop what lies between.
			r.dups++
		} else {
			r.snap, r.snapSeq = o.snapshot, o.snapSeq
			r.snapsIn++
			r.entries.dropThrough(o.snapSeq)
			if r.lastSeq < o.snapSeq {
				r.lastSeq = o.snapSeq
			}
		}
	}
	for i := range o.entries {
		e := &o.entries[i]
		if e.seq <= r.lastSeq {
			r.dups++
			continue
		}
		if e.seq != r.lastSeq+1 {
			// Adopting a mid-stream baseline (no snapshot path), or a hole
			// (sender overflowed without a snapshot): keep what we have,
			// record the gap, and continue from the new position so the
			// suffix stays fresh.
			r.gaps++
		}
		r.entries.add(e.seq, e.term, e.method, e.args)
		r.lastSeq = e.seq
	}
	ack := r.lastSeq
	if r.snapSeq > ack {
		ack = r.snapSeq
	}
	return Ack{Acked: ack}, nil
}

func (m *Manager) replicaFor(domain []byte) *replica {
	r, ok := m.replicas[string(domain)]
	if !ok {
		r = &replica{}
		m.replicas[string(domain)] = r
	}
	return r
}

// TakeoverState is everything a replica held for a domain at takeover:
// the latest snapshot (if any), the entry suffix past it, and the
// leadership term it was fenced at. Each entry's Args are the bytes the
// offer carried, decoded only by whoever replays the entry.
type TakeoverState struct {
	From     string
	Term     uint64
	Snapshot []byte
	SnapSeq  uint64
	Entries  []Entry
	Gaps     uint64
}

// Takeover consumes and returns domain's replica for catch-up. The second
// result reports whether any replicated state was held.
func (m *Manager) Takeover(domain string) (TakeoverState, bool) {
	m.mu.Lock()
	r, ok := m.replicas[domain]
	if ok {
		delete(m.replicas, domain)
	}
	m.mu.Unlock()
	if !ok {
		return TakeoverState{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	st := TakeoverState{
		From: r.from, Term: r.term, Snapshot: r.snap, SnapSeq: r.snapSeq,
		Entries: r.entries.entries(domain), Gaps: r.gaps,
	}
	return st, r.snap != nil || len(st.Entries) > 0
}

// NoteCatchup records what a takeover applied, for the introspection view.
func (m *Manager) NoteCatchup(domain string, restored bool, applied int, gaps uint64) {
	m.mu.Lock()
	c := m.catchups[domain]
	if restored {
		c.restored = true
	}
	c.applied += applied
	c.gaps += gaps
	m.catchups[domain] = c
	m.mu.Unlock()
}

// Status reports per-domain replication state — the leader side's lag and
// stream counters, the replica side's held suffix — sorted by domain.
func (m *Manager) Status() []view.SyncStatus {
	byDomain := make(map[string]*view.SyncStatus, 8)
	get := func(domain string) *view.SyncStatus {
		st, ok := byDomain[domain]
		if !ok {
			st = &view.SyncStatus{Domain: domain}
			byDomain[domain] = st
		}
		return st
	}
	for domain, s := range *m.streams.Load() {
		st := get(domain)
		s.mu.Lock()
		st.Leading = true
		st.Term = s.term
		st.Successor = s.succ
		st.LastSeq = s.log.LastSeq()
		st.AckedSeq = s.log.Acked()
		st.Lag = st.LastSeq - st.AckedSeq
		st.Streamed = s.streamed
		st.SnapshotsSent = s.snapsSent
		st.OfferErrors = s.offerErrs
		st.Overflows = s.log.Overflows()
		st.Skipped = s.log.Skipped()
		s.mu.Unlock()
	}
	m.mu.Lock()
	for domain, r := range m.replicas {
		st := get(domain)
		r.mu.Lock()
		st.ReplicaFrom = r.from
		st.ReplicaTerm = r.term
		st.ReplicaSeq = r.lastSeq
		st.ReplicaEntries = r.entries.len()
		st.SnapshotsRecv = r.snapsIn
		st.StaleRefused = r.refusals
		st.Duplicates = r.dups
		st.Gaps = r.gaps
		r.mu.Unlock()
	}
	for domain, c := range m.catchups {
		st := get(domain)
		st.CatchupApplied = uint64(c.applied)
		st.CatchupGaps = c.gaps
		st.Restored = c.restored
	}
	m.mu.Unlock()
	out := make([]view.SyncStatus, 0, len(byDomain))
	for _, st := range byDomain {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}
