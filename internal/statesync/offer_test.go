package statesync

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

// maxDepth is amrpc's nesting bound: the offer decoder refuses values that
// nest deeper, as amrpc's frame decoder does.
const maxDepth = 64

// newReceiver is a manager that only receives: it leads nothing and never
// streams.
func newReceiver(t testing.TB) *Manager {
	t.Helper()
	m, err := NewManager(Config{Node: "B", Transport: &pipeTransport{}, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

func statusOf(m *Manager, domain string) (st struct {
	seq, entries, dups, gaps, snaps uint64
}) {
	for _, s := range m.Status() {
		if s.Domain == domain {
			st.seq, st.entries, st.dups, st.gaps, st.snaps = s.ReplicaSeq, uint64(s.ReplicaEntries), s.Duplicates, s.Gaps, s.SnapshotsRecv
		}
	}
	return st
}

func entries(domain string, term uint64, from, to int) []Entry {
	var out []Entry
	for s := from; s <= to; s++ {
		out = append(out, Entry{Domain: domain, Seq: uint64(s), Term: term, Method: "put", Args: jsonArgs(fmt.Sprintf("id-%d", s))})
	}
	return out
}

// TestReplicaIgnoresOlderSnapshot pins the snapshot's monotonicity within a
// term: a retried offer carrying an older baseline that arrives after a
// newer one — over a re-dialled connection, say — is a duplicate. Installing
// it would roll the replica back to the older snapshot while keeping the
// newer suffix, and the effects between the two would be lost without a
// gap being counted.
func TestReplicaIgnoresOlderSnapshot(t *testing.T) {
	m := newReceiver(t)
	newer := Offer{From: "A", Domain: "alpha", Term: 1, Snapshot: []byte("s20"), SnapSeq: 20, Entries: entries("alpha", 1, 21, 25)}
	older := Offer{From: "A", Domain: "alpha", Term: 1, Snapshot: []byte("s10"), SnapSeq: 10, Entries: entries("alpha", 1, 11, 15)}
	if ack, err := m.HandleOffer(wire(t, newer)); err != nil || ack.Acked != 25 {
		t.Fatalf("newer offer: ack=%d err=%v", ack.Acked, err)
	}
	if ack, err := m.HandleOffer(wire(t, older)); err != nil || ack.Acked != 25 {
		t.Fatalf("late older offer: ack=%d err=%v", ack.Acked, err)
	}
	if st := statusOf(m, "alpha"); st.snaps != 1 || st.dups != 6 || st.gaps != 0 {
		t.Fatalf("snapshots=%d dups=%d gaps=%d, want 1/6/0 (the old snapshot and its five entries are duplicates)", st.snaps, st.dups, st.gaps)
	}
	st := resume(m, "alpha")
	if !st.held() || string(st.snapshot) != "s20" || st.snapSeq != 20 || st.gaps != 0 || !reflect.DeepEqual(st.entries, newer.Entries) {
		t.Fatalf("resume: held=%v snapshot=%q through %d gaps=%d entries=%+v, want s20 through 20 and entries 21-25",
			st.held(), st.snapshot, st.snapSeq, st.gaps, st.entries)
	}

	// A newer term's baseline always wins, whatever its sequence.
	if _, err := m.HandleOffer(wire(t, newer)); err != nil {
		t.Fatal(err)
	}
	fresh := Offer{From: "C", Domain: "alpha", Term: 2, Snapshot: []byte("t2"), SnapSeq: 3}
	if ack, err := m.HandleOffer(wire(t, fresh)); err != nil || ack.Acked != 3 {
		t.Fatalf("new-term snapshot: ack=%d err=%v", ack.Acked, err)
	}
	if st := resume(m, "alpha"); string(st.snapshot) != "t2" || len(st.entries) != 0 {
		t.Fatalf("new-term resume: snapshot=%q entries=%d", st.snapshot, len(st.entries))
	}
}

// TestMalformedOfferAppliesNothing pins the receiver's atomicity: an offer
// is parsed whole before any of it is applied, so one bad entry in the
// middle leaves the replica exactly as it was — sequence, counters and
// suffix — and the error says which entry was bad.
func TestMalformedOfferAppliesNothing(t *testing.T) {
	m := newReceiver(t)
	good := Offer{From: "A", Domain: "alpha", Term: 1, Entries: entries("alpha", 1, 1, 3)}
	if _, err := m.HandleOffer(wire(t, good)); err != nil {
		t.Fatal(err)
	}
	before := statusOf(m, "alpha")
	next := string(wire(t, Offer{From: "A", Domain: "alpha", Term: 1, Snapshot: []byte("s"), SnapSeq: 3, Entries: entries("alpha", 1, 4, 8)}))
	for _, c := range []struct{ from, to, names string }{
		{`"seq":6`, `"seq":"6"`, "entries[2]"},
		{`"seq":6`, `"seq":-6`, "entries[2]"},
		{`"seq":6`, `"seq":null`, "entries[2]"},
		{`"seq":6`, `"Seq":6`, "entries[2]"},
		{`"seq":6`, `"seq":6,"seq":6`, "entries[2]"},
		{`"seq":6`, `"domain":"alpha","seq":6`, "entries[2]"},
		{`"term":1`, `"term":1,"term":1`, `"term" repeated`},
		{`"args":["id-6"]`, `"args":"id-6"`, "entries[2]"},
		{`"args":["id-6"]`, `"args":[1e999]`, "entries[2]"},
		{`"method":"put","args":["id-6"]`, `"method":6`, "entries[2]"},
		{`{"seq":6`, `7`, "entries[2]"},
		{`{"seq":6`, `{"seq":6,`, "entries[2]"},
		{`,{"seq":6`, ` {"seq":6`, "entries[2]"},
		{`"snapshot":"cw=="`, `"snapshot":"c w"`, "snapshot"},
		{`{"from"`, `x{"from"`, "offer"},
	} {
		bad := strings.Replace(next, c.from, c.to, 1)
		if bad == next {
			t.Fatalf("mutation %q -> %q did not apply to %s", c.from, c.to, next)
		}
		_, err := m.HandleOffer([]byte(bad))
		if err == nil || !strings.Contains(err.Error(), c.names) {
			t.Fatalf("offer %s: err = %v, want an error naming %s", bad, err, c.names)
		}
		if after := statusOf(m, "alpha"); after != before {
			t.Fatalf("offer %s (%v) changed the replica: %+v, was %+v", bad, err, after, before)
		}
	}
	st := resume(m, "alpha")
	if !st.held() || st.snapshot != nil || !reflect.DeepEqual(st.entries, good.Entries) {
		t.Fatalf("resume after refused offers: held=%v snapshot=%q entries=%+v", st.held(), st.snapshot, st.entries)
	}
}

// jsonOffer and jsonEntry are an Offer as encoding/json reads and writes
// it with an entry's arguments as generic values: the reference the
// encoder and decoder are held to.
type jsonOffer struct {
	From     string      `json:"from"`
	Domain   string      `json:"domain"`
	Term     uint64      `json:"term"`
	Snapshot []byte      `json:"snapshot,omitempty"`
	SnapSeq  uint64      `json:"snap_seq,omitempty"`
	Entries  []jsonEntry `json:"entries,omitempty"`
}

type jsonEntry struct {
	Seq    uint64 `json:"seq"`
	Term   uint64 `json:"term"`
	Method string `json:"method"`
	Args   []any  `json:"args,omitempty"`
}

// TestOfferWireFormIsJSONMarshal pins the encoder to encoding/json: an
// offer's wire form is byte for byte json.Marshal's, for arguments of every
// wire type, encoded at capture, and a snapshot holding every byte value.
func TestOfferWireFormIsJSONMarshal(t *testing.T) {
	snap := make([]byte, 256)
	for i := range snap {
		snap[i] = byte(i)
	}
	args := []any{"s\x00\xff", 1.5, 1e21, -0.0, int64(-7), uint64(math.MaxUint64), true, nil,
		map[string]any{"k": []any{"v", 2.0}}, []any{}, json.RawMessage(`{"raw":1}`)}
	l := NewLog("ignored", 16)
	if _, err := l.appendList(3, "put", args); err != nil {
		t.Fatal(err)
	}
	if _, err := l.appendList(0, "close", nil); err != nil {
		t.Fatal(err)
	}
	o := Offer{From: "A <&>", Domain: "café  ", Term: math.MaxUint64, Snapshot: snap, SnapSeq: 1, Entries: l.ReadFrom(0, 2)}
	got, err := o.AppendJSON([]byte("prefix"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(jsonOffer{From: o.From, Domain: o.Domain, Term: o.Term, Snapshot: snap, SnapSeq: 1,
		Entries: []jsonEntry{{Seq: 1, Term: 3, Method: "put", Args: args}, {Seq: 2, Method: "close"}}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("wire form diverged from json.Marshal\n got %s\nwant %s", got[len("prefix"):], want)
	}
	if direct, err := json.Marshal(o); err != nil || !bytes.Equal(direct, want) {
		t.Fatalf("json.Marshal of the Offer itself: %s, %v\nwant %s", direct, err, want)
	}
	if _, err := NewLog("alpha", 16).appendList(1, "put", []any{math.NaN()}); err == nil {
		t.Fatal("captured a NaN argument")
	}
}

// offerSeeds are inputs FuzzDecodeOffer starts from: canonical offers,
// shapes json.Unmarshal tolerates and the strict decoder refuses, and each
// way an entry can be wrong.
var offerSeeds = []string{
	`{"from":"A","domain":"alpha","term":1,"entries":[{"seq":1,"term":1,"method":"put","args":["x",2,true,null,{"k":[1.5]}]}]}`,
	`{"from":"A","domain":"alpha","term":2,"snapshot":"AAEC/w==","snap_seq":9}`,
	`{"from":"A","domain":"alpha","term":2,"snapshot":"","snap_seq":0,"entries":[]}`,
	` { "from" : "a" , "domain":"d", "term":3, "entries" : [ { "seq" : 2 , "args" : [ ] } ] } `,
	`{"fr\u006fm":"a","entries":[{"m\u0065thod":"b"}]}`,
	` { "FROM" : "a" , "Domain":"d", "TERM":3, "entries" : [ null , { "SEQ" : 2 , "args" : [ ] } ] } `,
	`{"term":1,"term":2,"from":"a","from":null,"snapshot":"AA==","snapshot":null}`,
	`{"entries":[{"seq":1,"args":[1],"args":null,"method":"a","method":"b","domain":"x"}]}`,
	`{"ſnapshot":"AA==","ſnap_seq":4,"entrieſ":[]}`,
	`{"entries":[],"entries":[]}`, `{"entries":null,"Entries":[{}]}`,
	`null`, `{}`, `[]`, `""`, `1`, ``, `{"term":-1}`, `{"term":1.0}`, `{"term":1e2}`, `{"term":18446744073709551616}`,
	`{"term":null,"snap_seq":null,"from":null}`, `{"snapshot":5}`, `{"snapshot":"*"}`, `{"snapshot":"QUJD\r\nREVG"}`,
	`{"snapshot":"AA=="}`, `{"entries":{}}`, `{"entries":[5]}`, `{"entries":[[]]}`,
	`{"entries":[{"args":5}]}`, `{"entries":[{"args":{}}]}`, `{"entries":[{"args":[1e999]}]}`, `{"entries":[{"args":[{"a":-1e400}]}]}`,
	`{"entries":[{"args":[1e-999,-0,0.1e+2]}]}`, `{"x":1e999,"entries":[{"y":1e999}]}`,
	`{"entries":[{"method":"café 😀 \ud83d x \"q\""}],"from":"` + "\xff\xfe" + `"}`,
	`{"entries":[{"method":"raw` + "\x01" + `"}]}`, `{"entries":[{"seq":1,}]}`, `{"entries":[{"seq":1}],}`, `{"from":"a"} x`,
	`{"entries":[{"args":[` + strings.Repeat("[", maxDepth-4) + strings.Repeat("]", maxDepth-4) + `]}]}`,
	`{"entries":[{"args":[` + strings.Repeat("[", maxDepth-3) + strings.Repeat("]", maxDepth-3) + `]}]}`,
}

// decoded turns what the decoder made of an offer back into a jsonOffer,
// its args through encoding/json, normalized as normalize does.
func decoded(t *testing.T, w *wireOffer) jsonOffer {
	t.Helper()
	o := jsonOffer{From: string(w.from), Domain: string(w.domain), Term: w.term, Snapshot: w.snapshot, SnapSeq: w.snapSeq}
	for _, we := range w.entries {
		e := jsonEntry{Seq: we.seq, Term: we.term, Method: string(we.method)}
		if we.args != nil {
			if err := json.Unmarshal(we.args, &e.Args); err != nil {
				t.Fatalf("accepted args %s that encoding/json refuses: %v", we.args, err)
			}
		}
		o.Entries = append(o.Entries, e)
	}
	return normalize(o)
}

// normalize drops the differences no replica can observe: an empty entry
// list or argument list is the same as none.
func normalize(o jsonOffer) jsonOffer {
	if len(o.Entries) == 0 {
		o.Entries = nil
	}
	for i := range o.Entries {
		if len(o.Entries[i].Args) == 0 {
			o.Entries[i].Args = nil
		}
	}
	return o
}

// checkDecode holds the offer decoder to json.Unmarshal into an offer on
// data, one way: whatever it accepts, json.Unmarshal accepts too and
// decodes to the same offer. It reports whether the decoder accepted.
func checkDecode(t *testing.T, data []byte) bool {
	t.Helper()
	d := new(offerDecoder)
	if err := d.decode(data); err != nil {
		return false
	}
	var want jsonOffer
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("accepted an offer json.Unmarshal refuses (%v): %q", err, data)
	}
	if got := decoded(t, &d.out); !reflect.DeepEqual(got, normalize(want)) {
		t.Fatalf("decoded %+v, json.Unmarshal %+v, input %q", got, normalize(want), data)
	}
	return true
}

// gen draws an offer's parts from fuzz bytes, zero once they run out.
type gen struct{ b []byte }

func (g *gen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *gen) bytes() []byte {
	n := min(int(g.byte()), len(g.b))
	out := g.b[:n]
	g.b = g.b[n:]
	return out
}

func (g *gen) u64() uint64 {
	var w [8]byte
	copy(w[:], g.bytes())
	return binary.LittleEndian.Uint64(w[:])
}

// arg draws one argument of some wire type: a string of arbitrary bytes,
// a float of any bits (NaN and the infinities do not encode), an integer,
// a boolean, null, an object, an array, or a string nested in up to 71
// arrays (past 59 too deep for an offer).
func (g *gen) arg() any {
	s := string(g.bytes())
	f := math.Float64frombits(g.u64())
	switch g.byte() % 9 {
	case 0:
		return s
	case 1:
		return f
	case 2:
		return int64(g.u64())
	case 3:
		return g.u64()
	case 4:
		return g.byte()%2 == 0
	case 5:
		return nil
	case 6:
		return map[string]any{s: s, "n": f}
	case 7:
		return []any{s, f, nil}
	default:
		v := any(s)
		for n := g.byte() % 72; n > 0; n-- {
			v = []any{v}
		}
		return v
	}
}

// effect is one call to capture: its method and arguments.
type effect struct {
	method string
	args   []any
}

// draw draws an offer's header and the effects whose capture makes its
// entries.
func (g *gen) draw() (Offer, []effect) {
	o := Offer{From: string(g.bytes()), Domain: string(g.bytes()), Term: g.u64()}
	if g.byte()%2 == 0 {
		o.Snapshot, o.SnapSeq = g.bytes(), g.u64()%16
	}
	var effects []effect
	for n := g.byte() % 8; n > 0; n-- {
		e := effect{method: string(g.bytes())}
		for k := g.byte() % 4; k > 0; k-- {
			e.args = append(e.args, g.arg())
		}
		effects = append(effects, e)
	}
	return o, effects
}

// carriable is when an offer can carry args, decided without the log:
// encoding/json encodes them, and none nests deeper than the levels an
// offer leaves an argument.
func carriable(args []any) bool {
	if _, err := json.Marshal(args); err != nil {
		return false
	}
	for _, a := range args {
		if nesting(a) > maxDepth-argDepth-1 {
			return false
		}
	}
	return true
}

// nesting is how many arrays and objects v nests.
func nesting(v any) int {
	d := 0
	switch v := v.(type) {
	case []any:
		for _, e := range v {
			d = max(d, nesting(e))
		}
	case map[string]any:
		for _, e := range v {
			d = max(d, nesting(e))
		}
	default:
		return 0
	}
	return d + 1
}

// roundTrip is what args become through encoding/json, none for empty.
func roundTrip(t *testing.T, args []any) []any {
	t.Helper()
	if len(args) == 0 {
		return nil
	}
	raw, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	var out []any
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// replayed is an entry's arguments decoded as a replay decodes them.
func replayed(t *testing.T, e Entry) []any {
	t.Helper()
	if len(e.Args) == 0 {
		return nil
	}
	var out []any
	if err := json.Unmarshal(e.Args, &out); err != nil {
		t.Fatalf("entry %d: args %s do not decode: %v", e.Seq, e.Args, err)
	}
	return out
}

// captureAll leads o's domain at o's term on a fresh manager, captures
// effects, and returns the entries its log published. Each effect must be
// published exactly when carriable says an offer can carry it.
func captureAll(t *testing.T, o Offer, effects []effect) []Entry {
	t.Helper()
	m, err := NewManager(Config{Node: "A", Transport: &pipeTransport{}, Interval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	m.Lead(o.Domain, o.Term)
	for _, e := range effects {
		m.Capture(o.Domain, e.method, e.args)
	}
	l := (*m.streams.Load())[o.Domain].log
	var out []Entry
	for i, e := range effects {
		seq := uint64(i + 1)
		published := l.ready[seq&l.mask].Load() == seq
		if published != carriable(e.args) {
			t.Fatalf("effect %d %v: published %v, want %v", seq, e.args, published, !published)
		}
		if published {
			out = append(out, l.entries[seq&l.mask])
		}
	}
	return out
}

// FuzzDecodeOffer holds the offer's receive path to encoding/json twice
// over. On arbitrary bytes, whatever the decoder accepts json.Unmarshal
// accepts too, and decodes to the same offer. And effects drawn from the
// bytes — arguments of every wire type, some no offer can carry — are
// captured: each is either refused at capture, exactly when encoding/json
// cannot encode it or it nests too deep, or its entry encodes to
// json.Marshal's bytes of the effect, the decoder accepts it, and through
// HandleOffer, Resume and a replay's decode its arguments come back as
// json.Unmarshal(json.Marshal(args)) brings them back.
func FuzzDecodeOffer(f *testing.F) {
	for _, s := range offerSeeds {
		f.Add([]byte(s))
	}
	// Drawn as one effect whose argument is NaN (refused), and as three
	// whose arguments nest 60, 59 and 60 arrays deep (refused, kept,
	// refused).
	f.Add([]byte("\x00\x00\x00\x01\x01\x00\x01\x00\x08\xff\xff\xff\xff\xff\xff\xff\xff\x01"))
	f.Add([]byte("\x00\x00\x00\x01\x03\x00\x01\x00\x00\x08\x3c\x00\x01\x00\x00\x08\x3b\x00\x01\x00\x00\x08\x3c"))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)

		g := gen{b: data}
		o, effects := g.draw()
		o.Entries = captureAll(t, o, effects)
		raw, err := o.AppendJSON(nil)
		if err != nil {
			t.Fatal(err)
		}
		legacy := jsonOffer{From: o.From, Domain: o.Domain, Term: o.Term, Snapshot: o.Snapshot, SnapSeq: o.SnapSeq}
		for _, e := range o.Entries {
			legacy.Entries = append(legacy.Entries, jsonEntry{Seq: e.Seq, Term: e.Term, Method: e.Method, Args: effects[e.Seq-1].args})
		}
		if want, _ := json.Marshal(legacy); !bytes.Equal(raw, want) {
			t.Fatalf("wire form diverged from json.Marshal\n got %s\nwant %s", raw, want)
		}
		if !checkDecode(t, raw) {
			t.Fatalf("refused its own wire form %s", raw)
		}
		m := newReceiver(t)
		if _, err := m.HandleOffer(raw); err != nil {
			t.Fatal(err)
		}
		var dec jsonOffer // the header as the successor reads it: invalid UTF-8 replaced
		_ = json.Unmarshal(raw, &dec)
		got := resume(m, dec.Domain)

		want := resumed{from: dec.From, term: dec.Term}
		last := uint64(0)
		if dec.Snapshot != nil {
			want.snapshot, want.snapSeq, last = dec.Snapshot, dec.SnapSeq, dec.SnapSeq
		}
		var wantSeqs, gotSeqs []uint64
		for _, e := range o.Entries {
			if e.Seq <= last {
				continue
			}
			if e.Seq != last+1 {
				want.gaps++
			}
			wantSeqs, last = append(wantSeqs, e.Seq), e.Seq
		}
		methods := map[uint64]string{}
		for _, e := range dec.Entries {
			methods[e.Seq] = e.Method
		}
		for _, e := range got.entries {
			gotSeqs = append(gotSeqs, e.Seq)
			if e.Term != o.Term || e.Domain != dec.Domain || e.Method != methods[e.Seq] {
				t.Fatalf("entry %+v, offered %q at term %d in %q", e, methods[e.Seq], o.Term, dec.Domain)
			}
			if args, want := replayed(t, e), roundTrip(t, effects[e.Seq-1].args); !reflect.DeepEqual(args, want) {
				t.Fatalf("entry %d replays %#v, json round trip %#v", e.Seq, args, want)
			}
		}
		got.entries = nil
		if !reflect.DeepEqual(gotSeqs, wantSeqs) || !reflect.DeepEqual(got, want) {
			t.Fatalf("resume %+v with seqs %v, want %+v with seqs %v; offer %s", got, gotSeqs, want, wantSeqs, raw)
		}
	})
}

// TestManagerPassesUnsendableEntry pins what becomes of an effect no offer
// can carry: an argument the call carried in that nests too deep once
// inside the offer, or one that does not encode at all. The log refuses it
// at capture, leaving a hole; the entries before it ship and the stream
// gets past it — through a snapshot when the application provides one,
// else as a gap the successor records — and no offer error is counted. An
// argument one level shallower still replicates.
func TestManagerPassesUnsendableEntry(t *testing.T) {
	nested := func(levels int) any {
		v := any("x")
		for i := 0; i < levels; i++ {
			v = []any{v}
		}
		return v
	}
	// An argument sits argDepth levels deeper in the offer than in the call.
	tooDeep, fits := nested(maxDepth-argDepth), nested(maxDepth-argDepth-1)
	snap := func(string) ([]byte, error) { return []byte("s"), nil }
	for _, c := range []struct {
		name     string
		snapshot func(string) ([]byte, error)
		bad      any
	}{
		{"too deep, snapshot hook", snap, tooDeep},
		{"too deep, no snapshot hook", nil, tooDeep},
		{"NaN, no snapshot hook", nil, math.NaN()},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, b, _ := newPair(t, c.snapshot)
			a.Lead("alpha", 1)
			a.SetSuccessor("alpha", "B")
			a.Capture("alpha", "put", []any{"id-1"})
			a.Capture("alpha", "put", []any{"id-2", c.bad})
			for i := 3; i <= 5; i++ {
				a.Capture("alpha", "put", []any{fmt.Sprintf("id-%d", i)})
			}
			waitFor(t, "replica to get past seq 2", func() bool { return replicaSeq(b, "alpha") == 5 })
			a.Capture("alpha", "put", []any{"id-6", fits})
			waitFor(t, "replica to reach the head", func() bool { return replicaSeq(b, "alpha") == 6 })
			for _, st := range a.Status() {
				if st.Domain == "alpha" && (st.OfferErrors != 0 || st.Overflows != 0 || st.Skipped != boolTo(c.snapshot == nil)) {
					t.Fatalf("leader: offer errors %d, overflows %d, skipped %d", st.OfferErrors, st.Overflows, st.Skipped)
				}
			}
			st := resume(b, "alpha")
			var seqs []uint64
			for _, e := range st.entries {
				seqs = append(seqs, e.Seq)
			}
			if c.snapshot != nil {
				if string(st.snapshot) != "s" || st.snapSeq < 2 || st.gaps != 0 {
					t.Fatalf("resume: snapshot %q through %d, gaps %d, entries %v; want the snapshot past seq 2 and no gap",
						st.snapshot, st.snapSeq, st.gaps, seqs)
				}
			} else if st.gaps != 1 || !reflect.DeepEqual(seqs, []uint64{1, 3, 4, 5, 6}) {
				t.Fatalf("resume: gaps %d, entries %v; want one gap and seqs 1, 3-6", st.gaps, seqs)
			}
			last := st.entries[len(st.entries)-1]
			if last.Seq != 6 || !reflect.DeepEqual(replayed(t, last), []any{"id-6", fits}) {
				t.Fatalf("last entry %+v, want seq 6 with its nested argument", last)
			}
		})
	}
}

func boolTo(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
