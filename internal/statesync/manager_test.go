package statesync

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// pipeTransport delivers offers to in-process peer managers — the plane's
// amrpc hop collapsed to a map lookup.
type pipeTransport struct {
	mu    sync.Mutex
	peers map[string]*Manager
	fail  func(o Offer) error // optional fault hook, checked before delivery
}

func (p *pipeTransport) Offer(ctx context.Context, succ string, o Offer) (Ack, error) {
	p.mu.Lock()
	m := p.peers[succ]
	fail := p.fail
	p.mu.Unlock()
	if fail != nil {
		if err := fail(o); err != nil {
			return Ack{}, err
		}
	}
	if m == nil {
		return Ack{}, errors.New("pipe: no such peer")
	}
	raw, err := o.AppendJSON(nil)
	if err != nil {
		return Ack{}, err
	}
	return m.HandleOffer(raw)
}

// jsonArgs is args as an entry carries them: one JSON array.
func jsonArgs(args ...any) json.RawMessage {
	b, err := json.Marshal(args)
	if err != nil {
		panic(err)
	}
	return b
}

// wire is o in its wire form.
func wire(t testing.TB, o Offer) []byte {
	t.Helper()
	raw, err := o.AppendJSON(nil)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func newPair(t *testing.T, snapshot func(string) ([]byte, error)) (*Manager, *Manager, *pipeTransport) {
	t.Helper()
	tr := &pipeTransport{peers: map[string]*Manager{}}
	mk := func(node string) *Manager {
		m, err := NewManager(Config{Node: node, Transport: tr, Snapshot: snapshot, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		tr.peers[node] = m
		return m
	}
	return mk("A"), mk("B"), tr
}

func replicaSeq(m *Manager, domain string) uint64 {
	for _, st := range m.Status() {
		if st.Domain == domain {
			return st.ReplicaSeq
		}
	}
	return 0
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestManagerStreamsEntries pins the steady-state pipeline: leader-side
// captures flow to the successor's replica in order, the ack reclaims
// them, and a takeover surrenders the exact suffix.
func TestManagerStreamsEntries(t *testing.T) {
	a, b, _ := newPair(t, nil)
	a.Lead("alpha", 2)
	a.SetSuccessor("alpha", "B")
	const n = 10
	for i := 1; i <= n; i++ {
		a.Capture("alpha", "put", []any{fmt.Sprintf("id-%d", i)})
	}
	waitFor(t, "replica to reach the head", func() bool { return replicaSeq(b, "alpha") == n })

	// The ack drained the leader's log: lag returns to zero.
	waitFor(t, "leader lag to drain", func() bool {
		for _, st := range a.Status() {
			if st.Domain == "alpha" {
				return st.Leading && st.Lag == 0
			}
		}
		return false
	})

	st, held := b.Takeover("alpha")
	if !held || st.Term != 2 || len(st.Entries) != n {
		t.Fatalf("takeover: held=%v term=%d entries=%d", held, st.Term, len(st.Entries))
	}
	for i, e := range st.Entries {
		if e.Seq != uint64(i+1) || e.Method != "put" {
			t.Fatalf("entry %d out of order: %+v", i, e)
		}
	}
	// Consumed: a second takeover has nothing.
	if _, held := b.Takeover("alpha"); held {
		t.Fatal("replica not consumed by takeover")
	}
}

// TestCaptureKeepsNoReferenceToArgs pins when an effect's arguments are
// taken: at Capture. A caller that reuses its argument slice, or mutates a
// value in it, once Capture has returned changes nothing the successor
// receives, however late the flush.
func TestCaptureKeepsNoReferenceToArgs(t *testing.T) {
	a, b, _ := newPair(t, nil)
	a.Lead("alpha", 1) // no successor yet: nothing flushes before Handoff
	args := []any{"id-1", map[string]any{"n": 1.0}}
	a.Capture("alpha", "put", args)
	args[0] = "overwritten"
	args[1].(map[string]any)["n"] = 2.0
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if seq, err := a.Handoff(ctx, "alpha", "B"); err != nil || seq != 1 {
		t.Fatalf("handoff: seq=%d err=%v", seq, err)
	}
	st, held := b.Takeover("alpha")
	if !held || len(st.Entries) != 1 {
		t.Fatalf("takeover: held=%v entries=%+v", held, st.Entries)
	}
	if got, _ := json.Marshal(st.Entries[0].Args); string(got) != `["id-1",{"n":1}]` {
		t.Fatalf("successor holds %s, want the arguments as captured", got)
	}
}

// TestManagerHandoffSnapshot pins the graceful-release flush: Handoff
// forces a snapshot baseline, drains synchronously, and returns the
// barrier sequence.
func TestManagerHandoffSnapshot(t *testing.T) {
	snap := func(domain string) ([]byte, error) { return []byte(`{"state":"` + domain + `"}`), nil }
	a, b, _ := newPair(t, snap)
	a.Lead("alpha", 4)
	a.SetSuccessor("alpha", "B")
	for i := 0; i < 3; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	seq, err := a.Handoff(ctx, "alpha", "B")
	if err != nil || seq != 3 {
		t.Fatalf("handoff: seq=%d err=%v", seq, err)
	}
	st, held := b.Takeover("alpha")
	if !held || st.Snapshot == nil || st.SnapSeq != 3 || st.Term != 4 {
		t.Fatalf("takeover after handoff: held=%v snap=%q snapSeq=%d term=%d", held, st.Snapshot, st.SnapSeq, st.Term)
	}
	if string(st.Snapshot) != `{"state":"alpha"}` {
		t.Fatalf("snapshot payload %q", st.Snapshot)
	}
}

// TestManagerHandoffLogsFailedAttempts pins that a handoff's retries are
// visible: each failed flush it retries is logged with its attempt
// number, successor and cause, and a flush that succeeds logs nothing.
func TestManagerHandoffLogsFailedAttempts(t *testing.T) {
	var mu sync.Mutex
	var lines []string
	var fails atomic.Int32
	fails.Store(2)
	tr := &pipeTransport{peers: map[string]*Manager{}, fail: func(Offer) error {
		if fails.Add(-1) >= 0 {
			return errors.New("successor unreachable")
		}
		return nil
	}}
	for _, node := range []string{"A", "B"} {
		cfg := Config{Node: node, Transport: tr, Interval: time.Hour}
		if node == "A" {
			cfg.Logf = func(format string, args ...any) {
				mu.Lock()
				defer mu.Unlock()
				lines = append(lines, fmt.Sprintf(format, args...))
			}
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		tr.peers[node] = m
	}
	a := tr.peers["A"]
	a.Lead("alpha", 1)
	a.Capture("alpha", "put", []any{1})
	if seq, err := a.Handoff(context.Background(), "alpha", "B"); err != nil || seq != 1 {
		t.Fatalf("handoff: seq=%d err=%v", seq, err)
	}
	mu.Lock()
	defer mu.Unlock()
	want := []string{
		"statesync A: handoff alpha to B: attempt 1 failed, retrying: successor unreachable",
		"statesync A: handoff alpha to B: attempt 2 failed, retrying: successor unreachable",
	}
	if !reflect.DeepEqual(lines, want) {
		t.Fatalf("logged %q, want %q", lines, want)
	}
}

// TestManagerLeadSameTermKeepsLog pins the idempotent re-lead: a lease
// re-acquired at an unchanged term (the holder never lost it — e.g. a
// transient renew failure dropped it locally) must keep the live log.
// Restarting the sequence at 1 would make the successor's replica — which
// already tracks this term's sequence — refuse every later effect as a
// duplicate.
func TestManagerLeadSameTermKeepsLog(t *testing.T) {
	a, b, _ := newPair(t, nil)
	a.Lead("alpha", 3)
	a.SetSuccessor("alpha", "B")
	const per = 5
	for i := 0; i < per; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	waitFor(t, "replica to reach the head", func() bool { return replicaSeq(b, "alpha") == per })

	a.Lead("alpha", 3) // same term: must be a no-op
	if term, ok := a.Leading("alpha"); !ok || term != 3 {
		t.Fatalf("leading=%v term=%d after same-term re-lead", ok, term)
	}
	if seq := a.Seq("alpha"); seq != per {
		t.Fatalf("sequence restarted on same-term re-lead: seq=%d, want %d", seq, per)
	}
	// Replication keeps flowing: later captures extend the same sequence
	// and land on the replica instead of being dropped as duplicates.
	for i := per; i < 2*per; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	waitFor(t, "replica to advance past the re-lead", func() bool { return replicaSeq(b, "alpha") == 2*per })

	a.Lead("alpha", 4) // a genuinely new leadership starts a fresh sequence
	if seq := a.Seq("alpha"); seq != 0 {
		t.Fatalf("new-term lead kept the old sequence: seq=%d", seq)
	}
}

// TestManagerSkipsHoleWithoutSnapshot pins the no-snapshot overflow path:
// the streamer abandons the lost range (surfacing a gap to the receiver)
// instead of stalling at the hole forever — which would silently stop
// replication for the rest of the term and wedge every later Handoff.
func TestManagerSkipsHoleWithoutSnapshot(t *testing.T) {
	tr := &pipeTransport{peers: map[string]*Manager{}}
	blocked := true
	var mu sync.Mutex
	tr.fail = func(o Offer) error {
		mu.Lock()
		defer mu.Unlock()
		if blocked {
			return errors.New("partitioned")
		}
		return nil
	}
	a, err := NewManager(Config{Node: "A", Transport: tr, Capacity: 16, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := NewManager(Config{Node: "B", Transport: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	tr.peers["B"] = b

	a.Lead("alpha", 1)
	a.SetSuccessor("alpha", "B")
	// Overfill while the successor is unreachable: appends past the window
	// are refused, leaving a hole no snapshot can cover.
	for i := 0; i < 40; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	overflowed := false
	for _, st := range a.Status() {
		if st.Domain == "alpha" && st.Overflows > 0 {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("log never overflowed under a dead successor")
	}
	// Heal: the published prefix ships, then the streamer abandons the
	// lost range and the lag drains instead of wedging.
	mu.Lock()
	blocked = false
	mu.Unlock()
	waitFor(t, "lag to drain past the hole", func() bool {
		for _, st := range a.Status() {
			if st.Domain == "alpha" {
				return st.Lag == 0 && st.Skipped > 0
			}
		}
		return false
	})
	// Later effects keep streaming, and the receiver records the gap.
	for i := 40; i < 45; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	waitFor(t, "post-hole suffix to reach the replica", func() bool {
		for _, st := range b.Status() {
			if st.Domain == "alpha" {
				return st.ReplicaSeq == 45 && st.Gaps > 0
			}
		}
		return false
	})
	// A graceful handoff drains instead of spinning to its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	seq, err := a.Handoff(ctx, "alpha", "B")
	if err != nil || seq != 45 {
		t.Fatalf("handoff after overflow: seq=%d err=%v", seq, err)
	}
}

// TestManagerStaleLeaderFencedOff pins replication fencing: a receiver
// that itself leads the domain at the same (or higher) term refuses the
// offer, and the sender treats the refusal as terminal.
func TestManagerStaleLeaderFencedOff(t *testing.T) {
	a, b, _ := newPair(t, nil)
	a.Lead("alpha", 5)
	a.SetSuccessor("alpha", "B")
	b.Lead("alpha", 5) // B took over at the same term: A is a zombie
	a.Capture("alpha", "put", []any{"x"})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := a.Handoff(ctx, "alpha", "B"); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("zombie handoff: err=%v, want ErrStaleTerm", err)
	}
	refused := false
	for _, st := range b.Status() {
		if st.Domain == "alpha" && st.StaleRefused > 0 {
			refused = true
		}
	}
	if !refused {
		t.Fatal("receiver did not count the stale refusal")
	}
}

// TestManagerReplicaDiscipline pins the receiver's idempotency rules:
// duplicates dropped, gaps counted with the suffix restarted, a higher
// term superseding the replica wholesale.
func TestManagerReplicaDiscipline(t *testing.T) {
	tr := &pipeTransport{peers: map[string]*Manager{}}
	m, err := NewManager(Config{Node: "B", Transport: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	mkOffer := func(term uint64, seqs ...uint64) Offer {
		o := Offer{From: "A", Domain: "alpha", Term: term}
		for _, s := range seqs {
			o.Entries = append(o.Entries, Entry{Domain: "alpha", Seq: s, Term: term, Method: "put"})
		}
		return o
	}
	ack, err := m.HandleOffer(wire(t, mkOffer(1, 1, 2)))
	if err != nil || ack.Acked != 2 {
		t.Fatalf("first offer: ack=%d err=%v", ack.Acked, err)
	}
	// A retransmission: dropped idempotently, ack unchanged.
	ack, err = m.HandleOffer(wire(t, mkOffer(1, 1, 2)))
	if err != nil || ack.Acked != 2 {
		t.Fatalf("duplicate offer: ack=%d err=%v", ack.Acked, err)
	}
	// A hole (sender overflowed): the gap is recorded, the suffix restarts.
	ack, err = m.HandleOffer(wire(t, mkOffer(1, 5)))
	if err != nil || ack.Acked != 5 {
		t.Fatalf("gapped offer: ack=%d err=%v", ack.Acked, err)
	}
	var st0 struct{ dups, gaps uint64 }
	for _, st := range m.Status() {
		if st.Domain == "alpha" {
			st0.dups, st0.gaps = st.Duplicates, st.Gaps
		}
	}
	if st0.dups != 2 || st0.gaps != 1 {
		t.Fatalf("dups=%d gaps=%d, want 2/1", st0.dups, st0.gaps)
	}
	// A stale term is refused outright.
	if _, err := m.HandleOffer(wire(t, mkOffer(0, 6))); !errors.Is(err, ErrStaleTerm) {
		t.Fatalf("stale-term offer: err=%v", err)
	}
	// A higher term supersedes the old replica wholesale: its sequence
	// starts over.
	ack, err = m.HandleOffer(wire(t, mkOffer(2, 1)))
	if err != nil || ack.Acked != 1 {
		t.Fatalf("new-term offer: ack=%d err=%v", ack.Acked, err)
	}
	st2, held := m.Takeover("alpha")
	if !held || st2.Term != 2 || len(st2.Entries) != 1 || st2.Entries[0].Seq != 1 {
		t.Fatalf("takeover after term bump: held=%v %+v", held, st2)
	}
}

// TestManagerSnapshotKeepsLaterHole pins a snapshot against an append
// refused after its mark was read: the snapshot covers the log only
// through the mark, so the hole above it must bring another snapshot, not
// stall the stream at the hole for the rest of the term. Here the refused
// append runs inside the Snapshot hook, after the streamer read the mark.
func TestManagerSnapshotKeepsLaterHole(t *testing.T) {
	var a *Manager
	var snaps atomic.Int32
	snap := func(domain string) ([]byte, error) {
		if snaps.Add(1) == 1 {
			a.Capture(domain, "put", []any{math.NaN()}) // refused: seq 1 is a hole
		}
		return []byte("state"), nil
	}
	a, b, _ := newPair(t, snap)
	a.Lead("alpha", 1)
	a.SetSuccessor("alpha", "B")
	a.RequireSnapshot("alpha")
	waitFor(t, "the first snapshot", func() bool { return snaps.Load() >= 1 })
	for i := 0; i < 5; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	waitFor(t, "the replica level with the leader", func() bool { return replicaSeq(b, "alpha") == a.Seq("alpha") })
}

// TestManagerRetargetDuringFlush pins a successor change that lands while
// an offer is in flight: the old successor's ack must not reclaim the log
// or cancel the snapshot the new successor needs. Here the offer carries
// a snapshot to B, and the stream is pointed at C before B answers, as a
// Handoff does when it retargets a stream the streamer is flushing.
func TestManagerRetargetDuringFlush(t *testing.T) {
	snap := func(domain string) ([]byte, error) { return []byte("state"), nil }
	tr := &pipeTransport{peers: map[string]*Manager{}}
	var a *Manager
	var retargeted atomic.Bool
	tr.fail = func(o Offer) error {
		if o.Snapshot != nil && retargeted.CompareAndSwap(false, true) {
			a.SetSuccessor("alpha", "C")
		}
		return nil
	}
	for _, node := range []string{"A", "B", "C"} {
		cfg := Config{Node: node, Transport: tr, Interval: 2 * time.Millisecond}
		if node == "A" {
			cfg.Snapshot = snap
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(m.Close)
		tr.mu.Lock()
		tr.peers[node] = m
		tr.mu.Unlock()
	}
	tr.mu.Lock()
	a = tr.peers["A"]
	tr.mu.Unlock()
	a.Lead("alpha", 1)
	for i := 0; i < 3; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	a.RequireSnapshot("alpha")
	a.SetSuccessor("alpha", "B")
	waitFor(t, "the offer to B", retargeted.Load)
	c := tr.peers["C"]
	waitFor(t, "C to hold the domain through seq 3", func() bool { return replicaSeq(c, "alpha") == 3 })
}

// TestManagerSnapshotResyncAfterOverflow pins the bounded-lag escalation:
// when the log overflows (successor unreachable), the next successful
// round ships a snapshot that covers the hole.
func TestManagerSnapshotResyncAfterOverflow(t *testing.T) {
	snap := func(domain string) ([]byte, error) { return []byte("full-state"), nil }
	tr := &pipeTransport{peers: map[string]*Manager{}}
	blocked := true
	var mu sync.Mutex
	tr.fail = func(o Offer) error {
		mu.Lock()
		defer mu.Unlock()
		if blocked {
			return errors.New("partitioned")
		}
		return nil
	}
	a, err := NewManager(Config{Node: "A", Transport: tr, Snapshot: snap, Capacity: 16, Interval: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(a.Close)
	b, err := NewManager(Config{Node: "B", Transport: tr, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	tr.peers["B"] = b

	a.Lead("alpha", 1)
	a.SetSuccessor("alpha", "B")
	// Overfill while the successor is unreachable: appends past the window
	// are refused and counted.
	for i := 0; i < 40; i++ {
		a.Capture("alpha", "put", []any{i})
	}
	overflowed := false
	for _, st := range a.Status() {
		if st.Domain == "alpha" && st.Overflows > 0 {
			overflowed = true
		}
	}
	if !overflowed {
		t.Fatal("log never overflowed under a dead successor")
	}
	// Heal: the streamer escalates to a snapshot resync covering the hole.
	mu.Lock()
	blocked = false
	mu.Unlock()
	waitFor(t, "snapshot resync", func() bool {
		for _, st := range b.Status() {
			if st.Domain == "alpha" && st.SnapshotsRecv > 0 {
				return true
			}
		}
		return false
	})
	st, held := b.Takeover("alpha")
	if !held || string(st.Snapshot) != "full-state" {
		t.Fatalf("post-overflow takeover: held=%v snap=%q", held, st.Snapshot)
	}
}

// TestReplicaRetainsPackedSuffix pins the cost of standing successor: the
// replica keeps every effect of the term (there is no Snapshot hook here to
// trim it), so what one effect retains bounds a long-lived node's memory.
// 100k one-argument effects must stay under 96 live bytes each, and come
// back from Takeover exactly as offered.
func TestReplicaRetainsPackedSuffix(t *testing.T) {
	m, err := NewManager(Config{Node: "B", Transport: &pipeTransport{}, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)

	const n, batch = 100_000, 256
	methods := []string{"open", "assign"}
	entry := func(seq int) Entry {
		return Entry{Domain: "alpha", Seq: uint64(seq), Term: 3, Method: methods[seq%2],
			Args: jsonArgs(fmt.Sprintf("ticket-%06d <a&b>", seq))}
	}
	liveBytes := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := liveBytes()
	for seq := 1; seq <= n; seq += batch {
		o := Offer{From: "A", Domain: "alpha", Term: 3}
		for s := seq; s < seq+batch && s <= n; s++ {
			o.Entries = append(o.Entries, entry(s))
		}
		if ack, err := m.HandleOffer(wire(t, o)); err != nil || ack.Acked != o.Entries[len(o.Entries)-1].Seq {
			t.Fatalf("offer at seq %d: ack=%d err=%v", seq, ack.Acked, err)
		}
	}
	after := liveBytes()
	per := float64(after-before) / n
	t.Logf("replica retains %.1f live bytes per entry", per)
	if per > 96 {
		t.Errorf("replica retains %.1f live bytes per entry, want <= 96", per)
	}
	for _, st := range m.Status() {
		if st.Domain == "alpha" && st.ReplicaEntries != n {
			t.Errorf("ReplicaEntries = %d, want %d", st.ReplicaEntries, n)
		}
	}

	st, held := m.Takeover("alpha")
	if !held || len(st.Entries) != n || st.Gaps != 0 {
		t.Fatalf("takeover: held=%v entries=%d gaps=%d", held, len(st.Entries), st.Gaps)
	}
	for i, got := range st.Entries {
		if want := entry(i + 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %d came back as %+v, offered %+v", i, got, want)
		}
	}
}

// TestReplicaSnapshotTrimsPackedSuffix pins the trim a snapshot applies to
// the packed suffix: entries at or below its sequence go, the rest stay in
// order with their arguments, and argument-less entries survive repacking.
func TestReplicaSnapshotTrimsPackedSuffix(t *testing.T) {
	m, err := NewManager(Config{Node: "B", Transport: &pipeTransport{}, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	o := Offer{From: "A", Domain: "alpha", Term: 1}
	for seq := uint64(1); seq <= 6; seq++ {
		e := Entry{Domain: "alpha", Seq: seq, Term: 1, Method: "put"}
		if seq%2 == 0 {
			e.Args = jsonArgs("id", float64(seq), map[string]any{"k": true})
		}
		o.Entries = append(o.Entries, e)
	}
	if _, err := m.HandleOffer(wire(t, o)); err != nil {
		t.Fatal(err)
	}
	if _, err := m.HandleOffer(wire(t, Offer{From: "A", Domain: "alpha", Term: 1, Snapshot: []byte("s"), SnapSeq: 4})); err != nil {
		t.Fatal(err)
	}
	st, held := m.Takeover("alpha")
	if !held || !reflect.DeepEqual(st.Entries, o.Entries[4:]) {
		t.Fatalf("after a snapshot through 4: held=%v entries=%+v, want %+v", held, st.Entries, o.Entries[4:])
	}
}
