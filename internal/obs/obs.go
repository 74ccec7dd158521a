// Package obs is the observability subsystem for the aspect moderator:
// a lock-light event bus fed by the moderator's trace hooks, a metrics
// core (counters, gauges, log₂ latency histograms), and an HTTP
// introspection surface (/metrics, /trace, /describe).
//
// The paper treats auditing/logging as one of the cross-cutting concerns
// the Aspect Moderator composes; this package provides the substrate for
// observing the moderator itself. It is consumable two ways, per the
// "Pluggable AOP" argument that such mechanisms should compose with the
// aspect machinery rather than bypass it:
//
//   - as low-overhead moderator hooks: install a Collector with
//     (*moderator.Moderator).SetTracer and it receives sampled admission
//     lifecycle events plus every park/wake;
//   - as a first-class aspect layer: internal/aspects/obsaudit records
//     the same event vocabulary through the normal aspect-bank path.
//
// Exactness contract: event-derived series (names containing "sampled",
// plus latency histograms) see one in SampleEvery invocations; park/wake
// series and everything a Watch source exports (admission totals, queue
// counters, parked depth) are exact.
package obs

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/moderator"
	"repro/internal/waitq"
)

// DefaultSampleEvery is the default per-domain sampling rate: one in this
// many invocations carries full trace detail. The rate is chosen so the
// hooks-enabled overhead of the contended E13 workload stays comfortably
// inside the 15% budget (see EXPERIMENTS.md); park/wake accounting and the
// pull-side aggregates remain exact regardless of the rate.
const DefaultSampleEvery = 64

// DefaultRingCapacity is the default per-domain event ring size.
const DefaultRingCapacity = 512

// Option configures a Collector.
type Option func(*Collector)

// WithSampleEvery sets the sampling rate (<=1 traces every invocation).
func WithSampleEvery(n int) Option {
	return func(c *Collector) {
		if n < 1 {
			n = 1
		}
		c.every = n
	}
}

// WithRingCapacity sets the per-domain event ring capacity.
func WithRingCapacity(n int) Option {
	return func(c *Collector) {
		if n < 1 {
			n = 1
		}
		c.ringCap = n
	}
}

// Source is a moderator-like component the Collector polls at scrape time
// for exact aggregates. Both *moderator.Moderator and *moderator.Reference
// satisfy it.
type Source interface {
	Name() string
	Describe() []moderator.LayerInfo
	Stats() moderator.Stats
	QueueStats() map[string]waitq.Stats
	Waiting(method string) int
}

// domainsSource is optionally implemented by sources that shard admission
// into domains (the production Moderator).
type domainsSource interface {
	Domains() [][]string
}

// epochSource is optionally implemented by sources with versioned plan
// epochs and canary staging (both moderator implementations).
type epochSource interface {
	Epoch() uint64
	CanaryInfo() (moderator.CanaryInfo, bool)
}

// Collector implements moderator.Tracer: it routes lifecycle events into
// per-domain rings and pre-resolved metric instruments. Trace never
// blocks (ring writes drop on contention) and never calls back into the
// moderator, per the Tracer contract.
type Collector struct {
	reg     *Registry
	every   int
	ringCap int

	rings   sync.Map // uint64 (domain) -> *Ring
	handles sync.Map // handleKey -> *Counter | *Gauge | *Histogram

	mu       sync.Mutex
	sources  []Source
	shadows  []ShadowSource
	clusters []ClusterSource
}

// NewCollector creates a Collector with its own Registry.
func NewCollector(opts ...Option) *Collector {
	c := &Collector{reg: NewRegistry(), every: DefaultSampleEvery, ringCap: DefaultRingCapacity}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Registry returns the collector's metric registry (for extra series such
// as amrpc client stats).
func (c *Collector) Registry() *Registry { return c.reg }

// SampleEvery implements moderator.Tracer.
func (c *Collector) SampleEvery() int { return c.every }

// Watch registers a source whose exact aggregates (admission totals,
// queue counters, parked depth) are polled at every /metrics scrape and
// whose composition appears in /describe.
func (c *Collector) Watch(s Source) {
	c.mu.Lock()
	c.sources = append(c.sources, s)
	c.mu.Unlock()
	c.reg.Collect(func(emit EmitFunc) { collectSource(s, emit) })
}

func collectSource(s Source, emit EmitFunc) {
	comp := L("component", s.Name())
	st := s.Stats()
	emit("am_admissions_total", "Invocations fully admitted by pre-activation.", []Label{comp}, float64(st.Admissions))
	emit("am_blocks_total", "Times a caller parked on a wait queue.", []Label{comp}, float64(st.Blocks))
	emit("am_aborts_total", "Invocations rejected during pre-activation.", []Label{comp}, float64(st.Aborts))
	emit("am_completions_total", "Post-activations performed.", []Label{comp}, float64(st.Completions))
	qs := s.QueueStats()
	queues := make([]string, 0, len(qs))
	for q := range qs {
		queues = append(queues, q)
	}
	sort.Strings(queues)
	methods := make(map[string]bool, len(queues))
	for _, q := range queues {
		ql := []Label{comp, L("queue", q)}
		emit("am_queue_waits_total", "Callers that parked at least once, per queue.", ql, float64(qs[q].Waits))
		emit("am_queue_notifies_total", "Single wake-ups delivered, per queue.", ql, float64(qs[q].Notifies))
		emit("am_queue_broadcasts_total", "Broadcast operations, per queue.", ql, float64(qs[q].Broadcasts))
		emit("am_queue_cancels_total", "Waits abandoned by cancellation, per queue.", ql, float64(qs[q].Cancels))
		if i := strings.IndexByte(q, '/'); i > 0 {
			methods[q[:i]] = true
		}
	}
	names := make([]string, 0, len(methods))
	for m := range methods {
		names = append(names, m)
	}
	sort.Strings(names)
	for _, m := range names {
		emit("am_parked", "Callers currently parked, per method (exact).",
			[]Label{comp, L("method", m)}, float64(s.Waiting(m)))
	}
}

// sources returns a copy of the watched sources.
func (c *Collector) watched() []Source {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Source(nil), c.sources...)
}

// ringFor returns (creating if needed) the ring of one admission domain.
func (c *Collector) ringFor(domain uint64) *Ring {
	if v, ok := c.rings.Load(domain); ok {
		return v.(*Ring)
	}
	v, _ := c.rings.LoadOrStore(domain, NewRing(c.ringCap))
	return v.(*Ring)
}

// Drops returns the total events dropped across all rings.
func (c *Collector) Drops() uint64 {
	var n uint64
	c.rings.Range(func(_, v any) bool {
		n += v.(*Ring).Drops()
		return true
	})
	return n
}

// Events returns up to max buffered events across all domains, oldest
// first (by capture time, then domain/seq). max <= 0 returns everything.
func (c *Collector) Events(max int) []Event {
	var all []Event
	c.rings.Range(func(_, v any) bool {
		all = append(all, v.(*Ring).Snapshot()...)
		return true
	})
	sort.Slice(all, func(i, j int) bool {
		if all[i].At != all[j].At {
			return all[i].At < all[j].At
		}
		if all[i].Domain != all[j].Domain {
			return all[i].Domain < all[j].Domain
		}
		return all[i].Seq < all[j].Seq
	})
	if max > 0 && len(all) > max {
		all = all[len(all)-max:]
	}
	return all
}

// handleKey addresses one pre-resolved metric instrument. id is a hid*
// constant; a and b are the op-specific label values.
type handleKey struct {
	id   uint8
	a, b string
}

const (
	hidVerdictHist uint8 = iota
	hidVerdictCount
	hidParkCount
	hidWaitingGauge
	hidWaitHist
	hidAbandonCount
	hidTicketCount
	hidAdmitCount
	hidAbortCount
	hidPreHist
	hidPostHist
	hidPostactHist
	hidErrCount
	hidAspectCount
	hidSpanHist
)

func (c *Collector) counterFor(k handleKey, name, help string, labels ...Label) *Counter {
	if v, ok := c.handles.Load(k); ok {
		return v.(*Counter)
	}
	v, _ := c.handles.LoadOrStore(k, c.reg.CounterOf(name, help, labels...))
	return v.(*Counter)
}

func (c *Collector) gaugeFor(k handleKey, name, help string, labels ...Label) *Gauge {
	if v, ok := c.handles.Load(k); ok {
		return v.(*Gauge)
	}
	v, _ := c.handles.LoadOrStore(k, c.reg.GaugeOf(name, help, labels...))
	return v.(*Gauge)
}

func (c *Collector) histFor(k handleKey, name, help string, labels ...Label) *Histogram {
	if v, ok := c.handles.Load(k); ok {
		return v.(*Histogram)
	}
	v, _ := c.handles.LoadOrStore(k, c.reg.HistogramOf(name, help, labels...))
	return v.(*Histogram)
}

// Trace implements moderator.Tracer. It runs while the admission domain's
// mutex is held: metric updates are a handle lookup plus an atomic; the
// ring write drops rather than blocks.
func (c *Collector) Trace(ev moderator.TraceEvent) {
	switch ev.Op {
	case moderator.TraceTicket:
		c.counterFor(handleKey{hidTicketCount, ev.Method, ""},
			"am_tickets_total", "Sticky wait tickets issued.", L("method", ev.Method)).Inc()
	case moderator.TraceVerdict:
		c.histFor(handleKey{hidVerdictHist, ev.Method, ev.Aspect},
			"am_precondition_ns", "Precondition hook latency (sampled).",
			L("method", ev.Method), L("aspect", ev.Aspect)).Observe(ev.Nanos)
		c.counterFor(handleKey{hidVerdictCount, ev.Method, ev.Verdict.String()},
			"am_verdicts_total", "Precondition verdicts (sampled).",
			L("method", ev.Method), L("verdict", ev.Verdict.String())).Inc()
	case moderator.TracePark:
		c.counterFor(handleKey{hidParkCount, ev.Method, string(ev.Kind)},
			"am_parks_total", "Callers parked on a wait queue (exact).",
			L("method", ev.Method), L("kind", string(ev.Kind))).Inc()
		c.gaugeFor(handleKey{hidWaitingGauge, ev.Method, ""},
			"am_waiting", "Callers currently parked, per method (event-derived).",
			L("method", ev.Method)).Add(1)
	case moderator.TraceWake:
		c.gaugeFor(handleKey{hidWaitingGauge, ev.Method, ""},
			"am_waiting", "Callers currently parked, per method (event-derived).",
			L("method", ev.Method)).Add(-1)
		c.histFor(handleKey{hidWaitHist, ev.Method, ""},
			"am_wait_ns", "Park duration (exact).", L("method", ev.Method)).Observe(ev.Nanos)
		if ev.Err != "" {
			c.counterFor(handleKey{hidAbandonCount, ev.Method, ""},
				"am_wait_abandons_total", "Waits abandoned by cancellation (exact).",
				L("method", ev.Method)).Inc()
		}
	case moderator.TraceAdmit:
		c.counterFor(handleKey{hidAdmitCount, ev.Method, ""},
			"am_sampled_admissions_total", "Admissions seen by sampling.",
			L("method", ev.Method)).Inc()
		c.histFor(handleKey{hidPreHist, ev.Method, ""},
			"am_preactivation_ns", "Total pre-activation latency (sampled).",
			L("method", ev.Method)).Observe(ev.Nanos)
	case moderator.TraceAbort:
		c.counterFor(handleKey{hidAbortCount, ev.Method, ""},
			"am_sampled_aborts_total", "Aborts seen by sampling.",
			L("method", ev.Method)).Inc()
	case moderator.TracePost:
		c.histFor(handleKey{hidPostHist, ev.Method, ev.Aspect},
			"am_postaction_ns", "Postaction hook latency (sampled).",
			L("method", ev.Method), L("aspect", ev.Aspect)).Observe(ev.Nanos)
	case moderator.TraceComplete:
		c.histFor(handleKey{hidPostactHist, ev.Method, ""},
			"am_postactivation_ns", "Total post-activation latency (sampled).",
			L("method", ev.Method)).Observe(ev.Nanos)
		if ev.Err != "" {
			c.counterFor(handleKey{hidErrCount, ev.Method, ""},
				"am_sampled_errors_total", "Completions carrying a body error, seen by sampling.",
				L("method", ev.Method)).Inc()
		}
	case moderator.TraceAspectPre, moderator.TraceAspectPost, moderator.TraceAspectCancel:
		c.counterFor(handleKey{hidAspectCount, ev.Component, ev.Op.String()},
			"am_aspect_events_total", "Events recorded through the aspect-bank path.",
			L("component", ev.Component), L("op", ev.Op.String())).Inc()
		if ev.Op == moderator.TraceAspectPost && ev.Nanos > 0 {
			c.histFor(handleKey{hidSpanHist, ev.Component, ev.Method},
				"am_span_ns", "Pre-to-post span latency recorded by the audit aspect.",
				L("component", ev.Component), L("method", ev.Method)).Observe(ev.Nanos)
		}
	}
	c.ringFor(ev.Domain).Put(eventFrom(ev, time.Now().UnixNano()))
}
