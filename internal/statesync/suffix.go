package statesync

// A replica holds every effect since the last snapshot — all of them, for
// the whole term, when the application configures no Snapshot hook — and
// reads them exactly once, at takeover. suffix therefore stores them packed
// rather than as decoded Entry values: the domain is dropped (it is the
// replica's key), the method name is interned, the arguments stay in the
// JSON array the offer carried them in — for a served call, the bytes the
// owner's request frame carried — in large shared chunks, and what
// is left of an entry is a fixed 32-byte record in a page that is never
// copied to grow. An entry costs its record plus its encoded arguments,
// about a third of the decoded form; they are decoded only at replay.
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

// add appends one entry: its method interned, its args — the JSON array
// as the offer carried it, nil for none — copied into the current chunk.
func (s *suffix) add(seq, term uint64, method, args []byte) {
	id, ok := s.methodID[string(method)]
	if !ok {
		if s.methodID == nil {
			s.methodID = make(map[string]uint32, 4)
		}
		name := string(method)
		id = uint32(len(s.methods))
		s.methods = append(s.methods, name)
		s.methodID[name] = id
	}
	s.put(suffixRecord{seq: seq, term: term, method: id}, args)
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
	end := rec.off + rec.n
	return s.chunks[rec.chunk][rec.off:end:end]
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

// entries returns the suffix as entries of domain, oldest first, each
// entry's arguments the bytes stored for it.
func (s *suffix) entries(domain string) []Entry {
	if s.len() == 0 {
		return nil
	}
	out := make([]Entry, 0, s.len())
	for _, page := range s.pages {
		for _, rec := range page {
			out = append(out, Entry{Domain: domain, Seq: rec.seq, Term: rec.term, Method: s.methods[rec.method], Args: s.args(rec)})
		}
	}
	return out
}
