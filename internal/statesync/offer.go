package statesync

// The offer's wire form is one JSON object, byte for byte what json.Marshal
// makes of an Offer:
//
//	{"from":"n1","domain":"alpha","term":3,"snapshot":"<base64>","snap_seq":9,
//	 "entries":[{"seq":10,"term":3,"method":"put","args":["id-10"]},...]}
//
// snapshot, snap_seq, entries and an entry's args are left out when empty;
// an entry carries no domain, the offer names it once. The leader appends
// this straight from its log into the frame that carries it (Offer is an
// amrpc.Appender), each entry's args the bytes encoded at capture, and the
// successor takes the frame's bytes of it (its control component is an
// amrpc.RawComponent) and parses them once, with amrpc's scanner, into the
// replica: an entry's method is interned and its args array is copied into
// the packed suffix as received. Neither side allocates per entry.

import (
	"bytes"
	"encoding/base64"
	"errors"
	"fmt"
	"strconv"
	"sync"

	"repro/internal/amrpc"
)

// AppendJSON appends o's wire form to dst. Each entry's arguments are
// copied as the log encoded them at capture, so it cannot fail; the error
// result makes an Offer an amrpc.Appender.
func (o Offer) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(dst, `{"from":`...)
	dst = amrpc.AppendString(dst, o.From)
	dst = append(dst, `,"domain":`...)
	dst = amrpc.AppendString(dst, o.Domain)
	dst = append(dst, `,"term":`...)
	dst = strconv.AppendUint(dst, o.Term, 10)
	if len(o.Snapshot) > 0 {
		dst = append(dst, `,"snapshot":"`...)
		dst = base64.StdEncoding.AppendEncode(dst, o.Snapshot)
		dst = append(dst, '"')
	}
	if o.SnapSeq != 0 {
		dst = append(dst, `,"snap_seq":`...)
		dst = strconv.AppendUint(dst, o.SnapSeq, 10)
	}
	if len(o.Entries) > 0 {
		dst = append(dst, `,"entries":[`...)
		for i := range o.Entries {
			e := &o.Entries[i]
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"seq":`...)
			dst = strconv.AppendUint(dst, e.Seq, 10)
			dst = append(dst, `,"term":`...)
			dst = strconv.AppendUint(dst, e.Term, 10)
			dst = append(dst, `,"method":`...)
			dst = amrpc.AppendString(dst, e.Method)
			if len(e.Args) > 0 {
				dst = append(dst, `,"args":`...)
				dst = append(dst, e.Args...)
			}
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	return append(dst, '}'), nil
}

// wireOffer is an offer as decoded from its wire form: every slice but the
// snapshot aliases the bytes decoded.
type wireOffer struct {
	from, domain  []byte
	term, snapSeq uint64
	snapshot      []byte // nil when absent
	entries       []wireEntry
}

// wireEntry is one entry of a wireOffer.
type wireEntry struct {
	seq, term uint64
	method    []byte
	args      []byte // the args array as received; nil when absent or empty
}

var (
	offerMembers = []string{"from", "domain", "term", "snapshot", "snap_seq", "entries"}
	entryMembers = []string{"seq", "term", "method", "args"}
)

// member returns the name of names that key is, exactly, and marks it in
// seen. A name not among names, or one seen before, is an error.
func member(key []byte, names []string, seen *uint8) (string, error) {
	for i, n := range names {
		if string(key) != n {
			continue
		}
		if *seen&(1<<i) != 0 {
			return "", fmt.Errorf("member %q repeated", n)
		}
		*seen |= 1 << i
		return n, nil
	}
	return "", fmt.Errorf("unknown member %q", key)
}

// offerDecoder is the scratch one decode needs, recycled from one offer to
// the next so that the entries list is not allocated per offer.
type offerDecoder struct {
	sc  amrpc.Scanner
	out wireOffer
}

var offerDecoders = sync.Pool{New: func() any { return new(offerDecoder) }}

func (d *offerDecoder) recycle() {
	clear(d.out.entries)
	d.out = wireOffer{entries: d.out.entries[:0]}
	offerDecoders.Put(d)
}

// decode parses raw, an offer in the wire form AppendJSON writes, into
// d.out. It is strict: each member at most once and by its exact name, no
// null, no member it does not know. Whatever it accepts, json.Unmarshal
// into an Offer accepts too and decodes to the same offer. An error names
// the entry it is in.
func (d *offerDecoder) decode(raw []byte) error {
	sc, o := &d.sc, &d.out
	sc.Reset(raw)
	sc.Object()
	var seen uint8
	for {
		key, ok := sc.Member()
		if !ok {
			break
		}
		name, err := member(key, offerMembers, &seen)
		if err != nil {
			return err
		}
		switch name {
		case "from":
			o.from = sc.String()
		case "domain":
			o.domain = sc.String()
		case "term":
			o.term = sc.Uint()
		case "snap_seq":
			o.snapSeq = sc.Uint()
		case "snapshot":
			enc := sc.String()
			if err := sc.Err(); err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			snap := make([]byte, base64.StdEncoding.DecodedLen(len(enc)))
			n, err := base64.StdEncoding.Decode(snap, enc)
			if err != nil {
				return fmt.Errorf("snapshot: %w", err)
			}
			o.snapshot = snap[:n]
		case "entries":
			if err := d.decodeEntries(); err != nil {
				return err
			}
		}
	}
	return sc.Done()
}

func (d *offerDecoder) decodeEntries() error {
	sc, o := &d.sc, &d.out
	sc.Array()
	k := 0
	for ; sc.Element(); k++ {
		o.entries = append(o.entries, wireEntry{})
		if err := d.decodeEntry(&o.entries[k]); err != nil {
			return fmt.Errorf("entries[%d]: %w", k, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("entries[%d]: %w", k, err)
	}
	return nil
}

func (d *offerDecoder) decodeEntry(e *wireEntry) error {
	sc := &d.sc
	sc.Object()
	var seen uint8
	for {
		key, ok := sc.Member()
		if !ok {
			break
		}
		name, err := member(key, entryMembers, &seen)
		if err != nil {
			return err
		}
		switch name {
		case "seq":
			e.seq = sc.Uint()
		case "term":
			e.term = sc.Uint()
		case "method":
			e.method = sc.String()
		case "args":
			if sc.Peek() != '[' {
				return errors.New("args: not an array")
			}
			if e.args = sc.Value(); e.args == nil {
				return sc.Err()
			}
			if len(bytes.TrimSpace(e.args[1:len(e.args)-1])) == 0 {
				e.args = nil // [] replays as no arguments, as it always has
			}
		}
	}
	return sc.Err()
}
