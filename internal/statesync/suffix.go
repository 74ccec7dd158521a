package statesync

import (
	"encoding/json"
	"fmt"
)

// A replica holds every effect since the last snapshot — all of them, for
// the whole term, when the application configures no Snapshot hook — and
// reads them exactly once, at takeover. suffix therefore stores them packed
// rather than as decoded Entry values: the domain is dropped (it is the
// replica's key), the method name is interned, the arguments stay in their
// JSON encoding in large shared chunks, and what is left of an entry is a
// fixed 32-byte record in a page that is never copied to grow. An entry
// costs its record plus its encoded arguments, about a third of the decoded
// form; entries decodes them back.
type suffix struct {
	methods  []string
	methodID map[string]uint32
	pages    [][]suffixRecord // every page but the last is full
	chunks   [][]byte         // argument bytes, appended to the last chunk
}

type suffixRecord struct {
	seq, term uint64
	method    uint32 // index into suffix.methods
	chunk     uint32 // arguments are chunks[chunk][off : off+n]; n == 0 means none
	off, n    uint32
}

const (
	suffixPageRecords = 512
	suffixChunkBytes  = 32 << 10
)

// len returns the number of entries held.
func (s *suffix) len() int {
	if len(s.pages) == 0 {
		return 0
	}
	return (len(s.pages)-1)*suffixPageRecords + len(s.pages[len(s.pages)-1])
}

// add appends one entry. It fails only for arguments JSON cannot encode,
// which the wire never delivers.
func (s *suffix) add(e Entry) error {
	var args []byte
	if len(e.Args) > 0 {
		var err error
		if args, err = json.Marshal(e.Args); err != nil {
			return fmt.Errorf("statesync: entry %d (%s): arguments not encodable: %w", e.Seq, e.Method, err)
		}
	}
	id, ok := s.methodID[e.Method]
	if !ok {
		if s.methodID == nil {
			s.methodID = make(map[string]uint32, 4)
		}
		id = uint32(len(s.methods))
		s.methods = append(s.methods, e.Method)
		s.methodID[e.Method] = id
	}
	s.put(suffixRecord{seq: e.Seq, term: e.Term, method: id}, args)
	return nil
}

// put stores rec with args as its arguments, copied into the current chunk.
func (s *suffix) put(rec suffixRecord, args []byte) {
	if len(args) > 0 {
		last := len(s.chunks) - 1
		if last < 0 || len(s.chunks[last])+len(args) > cap(s.chunks[last]) {
			s.chunks = append(s.chunks, make([]byte, 0, max(suffixChunkBytes, len(args))))
			last++
		}
		rec.chunk, rec.off, rec.n = uint32(last), uint32(len(s.chunks[last])), uint32(len(args))
		s.chunks[last] = append(s.chunks[last], args...)
	}
	last := len(s.pages) - 1
	if last < 0 || len(s.pages[last]) == suffixPageRecords {
		s.pages = append(s.pages, make([]suffixRecord, 0, suffixPageRecords))
		last++
	}
	s.pages[last] = append(s.pages[last], rec)
}

func (s *suffix) args(rec suffixRecord) []byte {
	if rec.n == 0 {
		return nil
	}
	return s.chunks[rec.chunk][rec.off : rec.off+rec.n]
}

// dropThrough discards every entry with a sequence number at or below seq
// (a snapshot now covers them), repacking what remains.
func (s *suffix) dropThrough(seq uint64) {
	kept := suffix{methods: s.methods, methodID: s.methodID}
	for _, page := range s.pages {
		for _, rec := range page {
			if rec.seq > seq {
				kept.put(rec, s.args(rec))
			}
		}
	}
	*s = kept
}

// entries decodes the suffix back into entries of domain, oldest first. An
// entry whose arguments no longer decode is left out and counted in lost.
func (s *suffix) entries(domain string) (out []Entry, lost uint64) {
	if s.len() == 0 {
		return nil, 0
	}
	out = make([]Entry, 0, s.len())
	for _, page := range s.pages {
		for _, rec := range page {
			e := Entry{Domain: domain, Seq: rec.seq, Term: rec.term, Method: s.methods[rec.method]}
			if rec.n > 0 && json.Unmarshal(s.args(rec), &e.Args) != nil {
				lost++
				continue
			}
			out = append(out, e)
		}
	}
	return out, lost
}
