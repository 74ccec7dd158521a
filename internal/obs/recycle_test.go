package obs

import (
	"context"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

// teeTracer keeps every event it is handed, then passes it to the
// collector, whose ring may drop events under contention.
type teeTracer struct {
	c  *Collector
	mu sync.Mutex
	ev []moderator.TraceEvent
}

func (t *teeTracer) Trace(ev moderator.TraceEvent) {
	t.mu.Lock()
	t.ev = append(t.ev, ev)
	t.mu.Unlock()
	t.c.Trace(ev)
}

func (t *teeTracer) SampleEvery() int { return 1 }

// TestTraceIDsSoundUnderRecycling drives over a thousand calls through
// Proxy.Invoke, which recycles each invocation record, with every call
// traced. Each traced event must carry a non-zero invocation id, ids must
// be unique across calls — a recycled record draws a fresh one — and every
// park must pair with its own wake, in the collector's metrics too.
func TestTraceIDsSoundUnderRecycling(t *testing.T) {
	mod := newBufferModerator(t)
	p := proxy.New(mod)
	body := func(*aspect.Invocation) (any, error) { return nil, nil }
	for _, m := range []string{"put", "get"} {
		if err := p.Bind(m, body); err != nil {
			t.Fatal(err)
		}
	}
	tee := &teeTracer{c: NewCollector(WithSampleEvery(1))}
	mod.SetTracer(tee)

	const perSide = 600
	ctx := context.Background()
	var wg sync.WaitGroup
	run := func(method string) {
		defer wg.Done()
		for i := 0; i < perSide; i++ {
			if _, err := p.Invoke(ctx, method); err != nil {
				t.Errorf("%s: %v", method, err)
				return
			}
		}
	}
	// The consumer starts on an empty buffer, so at least its first get
	// parks and is woken by a put.
	wg.Add(1)
	go run("get")
	waitFor(t, func() bool { return mod.Waiting("get") == 1 }, "first get to park")
	wg.Add(1)
	go run("put")
	wg.Wait()

	type call struct {
		method           string
		admits, complete int
	}
	calls := make(map[uint64]*call)
	parks := make(map[[2]uint64]int) // (invocation, ticket) -> parks minus wakes
	var nParks int
	for _, ev := range tee.ev {
		if ev.Invocation == 0 {
			t.Fatalf("%s event for %s carries invocation id 0", ev.Op, ev.Method)
		}
		c := calls[ev.Invocation]
		if c == nil {
			c = &call{method: ev.Method}
			calls[ev.Invocation] = c
		}
		if c.method != ev.Method {
			t.Fatalf("invocation %d traced for both %s and %s", ev.Invocation, c.method, ev.Method)
		}
		switch ev.Op {
		case moderator.TraceAdmit:
			c.admits++
		case moderator.TraceComplete:
			c.complete++
		case moderator.TracePark:
			nParks++
			parks[[2]uint64{ev.Invocation, ev.Ticket}]++
		case moderator.TraceWake:
			k := [2]uint64{ev.Invocation, ev.Ticket}
			if parks[k] != 1 {
				t.Fatalf("wake of invocation %d ticket %d without its park", ev.Invocation, ev.Ticket)
			}
			parks[k]--
		}
	}
	if len(calls) != 2*perSide {
		t.Fatalf("%d distinct invocation ids over %d calls", len(calls), 2*perSide)
	}
	for id, c := range calls {
		if c.admits != 1 || c.complete != 1 {
			t.Fatalf("invocation %d (%s): %d admits, %d completions, want one each", id, c.method, c.admits, c.complete)
		}
	}
	for k, open := range parks {
		if open != 0 {
			t.Fatalf("park of invocation %d ticket %d never woken", k[0], k[1])
		}
	}
	if nParks == 0 {
		t.Fatal("no call parked")
	}
	reg := tee.c.Registry()
	if got := reg.CounterOf("am_parks_total", "",
		L("method", "get"), L("kind", "synchronization")).Value(); got != uint64(nParks) {
		t.Fatalf("am_parks_total = %d, want %d", got, nParks)
	}
	if got := reg.GaugeOf("am_waiting", "", L("method", "get")).Value(); got != 0 {
		t.Fatalf("am_waiting = %d, want 0", got)
	}
	if got := reg.HistogramOf("am_wait_ns", "", L("method", "get")).Snapshot().Count; got != uint64(nParks) {
		t.Fatalf("am_wait_ns count = %d, want %d", got, nParks)
	}
}
