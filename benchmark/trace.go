package main

import (
	"sort"
	"sync"
	"time"
)

// Span kinds. A span's id is its request id and its kind, so a span
// recorded on a server goroutine can name its parent (the client span of
// the same request) without anything crossing the wire: request-scoped ids
// inside the program are ROADMAP item 3, a later change.
const (
	kindOp       = iota // one workload op, as its caller sees it
	kindFirst           // first (or only) layer call of the op
	kindSecond          // second layer call of the op
	kindInFirst         // harness-owned span inside the first call
	kindInSecond        // harness-owned span inside the second call
	kindsPerRequest
)

// span is one timed interval at a layer boundary, recorded by the harness
// around its own call into that layer.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace epoch
	End    int64  `json:"end_ns"`
}

func spanID(req uint64, kind int) uint64 { return req*kindsPerRequest + uint64(kind) }

// reqID gives every op of a run a distinct id: the caller in the high
// bits, the caller's op counter below.
func reqID(caller int, i uint64) uint64 { return uint64(caller+1)<<40 | i }

// spanRing keeps the most recent spans of one recording site. Overwriting
// keeps the cost per span the same from the first op to the last, so the
// traced run's throughput is a fair measure of the tracing overhead, and
// bounds the memory whatever the op rate.
type spanRing struct {
	mu   sync.Mutex
	buf  []span
	next uint64
}

func (r *spanRing) put(s span) {
	r.mu.Lock()
	r.buf[r.next%uint64(len(r.buf))] = s
	r.next++
	r.mu.Unlock()
}

// spanBudget is the number of spans kept per trace, over all sites.
const spanBudget = 1 << 15

// tracer holds a run's spans in memory; they are written out once, when
// the run ends.
type tracer struct {
	epoch time.Time
	rings []spanRing
}

// newTracer makes a tracer with one ring per recording site. A site is
// written by one goroutine at a time, so its mutex is never contended; it
// is there because a server-side site is written by whichever worker
// serves the caller's next request.
func newTracer(sites int) *tracer {
	t := &tracer{epoch: time.Now(), rings: make([]spanRing, sites)}
	for i := range t.rings {
		t.rings[i].buf = make([]span, spanBudget/sites)
	}
	return t
}

func (t *tracer) record(site int, req uint64, kind, parentKind int, name string, start, end time.Time) {
	var parent uint64
	if parentKind >= 0 {
		parent = spanID(req, parentKind)
	}
	t.rings[site].put(span{
		ID: spanID(req, kind), Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// spans returns every retained span, oldest first.
func (t *tracer) spans() []span {
	var out []span
	for i := range t.rings {
		r := &t.rings[i]
		r.mu.Lock()
		n := r.next
		if n > uint64(len(r.buf)) {
			n = uint64(len(r.buf))
		}
		out = append(out, r.buf[:n]...)
		r.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// selfAndChild reduces the retained spans of the given parent kinds to
// three medians, in microseconds: the parent's duration, its self time (its
// duration minus the child span of the same request) and the child's
// duration. Requests whose parent or child has been overwritten are skipped.
func selfAndChild(spans []span, pairs map[int]int) (parentUs, selfUs, childUs float64) {
	byID := make(map[uint64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	var parents, selfs, childs []float64
	for i := range spans {
		p := &spans[i]
		childKind, ok := pairs[int(p.ID%kindsPerRequest)]
		if !ok {
			continue
		}
		c := byID[spanID(p.Req, childKind)]
		if c == nil {
			continue
		}
		pd, cd := float64(p.End-p.Start), float64(c.End-c.Start)
		parents = append(parents, pd/1e3)
		selfs = append(selfs, (pd-cd)/1e3)
		childs = append(childs, cd/1e3)
	}
	return median(parents), median(selfs), median(childs)
}
