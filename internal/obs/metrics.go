package obs

// The metrics core: counters, gauges, and log₂-bucketed latency
// histograms, collected in a Registry that renders Prometheus text
// exposition format. The design splits responsibilities the same way the
// moderator's trace hooks do:
//
//   - Hot-path instruments (Counter, Gauge, Histogram) are plain atomics.
//     Callers cache the instrument handle (the Collector does); the
//     Registry's get-or-create lookup is off the hot path.
//   - Pull-side series (GaugeFunc, Collect callbacks) are evaluated only
//     at render time, so exact totals can be polled from sources like
//     moderator.Stats without touching the admission path at all.

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Add adds n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// HistBuckets is the number of log₂ buckets a Histogram carries. Bucket i
// counts observations v with bits.Len64(v) == i, i.e. v in
// [2^(i-1), 2^i - 1] (bucket 0 counts zeros); the top bucket absorbs
// everything larger. 40 buckets cover up to ~18 minutes in nanoseconds.
const HistBuckets = 40

// Histogram is a log₂-bucketed latency histogram. All mutating and
// reading operations are atomic per field; concurrent Observe and
// Snapshot are race-clean (a Snapshot taken during writes may be torn
// across fields — counts are each exact, but sum/count may momentarily
// disagree; totals converge once writers quiesce).
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Int64
	buckets [HistBuckets]atomic.Uint64
}

// Observe records one value (typically nanoseconds). Negative values
// count as zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	i := bits.Len64(uint64(v))
	if i >= HistBuckets {
		i = HistBuckets - 1
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count   uint64
	Sum     int64
	Buckets [HistBuckets]uint64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	for i := range h.buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	return s
}

// bucketUpper is the inclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	if i == 0 {
		return 0
	}
	return float64(uint64(1)<<uint(i)) - 1
}

// metricType tags a family for TYPE lines and kind checks.
type metricType string

const (
	typeCounter   metricType = "counter"
	typeGauge     metricType = "gauge"
	typeHistogram metricType = "histogram"
)

// series is one labelled instance inside a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	fn     func() float64
	h      *Histogram
}

// family groups the series of one metric name.
type family struct {
	name string
	help string
	typ  metricType

	mu     sync.Mutex
	series map[string]*series
	order  []string
}

// Registry holds metric families and renders them. Get-or-create methods
// are safe for concurrent use; callers on hot paths should cache the
// returned instrument rather than re-looking it up per event.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	names    []string
	collects []CollectFunc
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family, 16)}
}

// EmitFunc receives one dynamically computed series at render time.
type EmitFunc func(name, help string, labels []Label, value float64)

// CollectFunc appends pull-side series (rendered as gauges) when the
// registry is written. Implementations run at scrape time and must not
// assume any particular goroutine.
type CollectFunc func(emit EmitFunc)

// Collect registers a render-time callback for dynamically labelled
// series (per-method moderator counters, queue stats). Collected names
// must not collide with static families.
func (r *Registry) Collect(fn CollectFunc) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collects = append(r.collects, fn)
}

func (r *Registry) familyFor(name, help string, typ metricType) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]*series, 4)}
		r.families[name] = f
		r.names = append(r.names, name)
		sort.Strings(r.names)
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	return f
}

func (f *family) seriesFor(labels []Label) *series {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key}
		f.series[key] = s
		f.order = append(f.order, key)
		sort.Strings(f.order)
	}
	return s
}

// CounterOf returns (creating if needed) the counter for name+labels.
func (r *Registry) CounterOf(name, help string, labels ...Label) *Counter {
	s := r.familyFor(name, help, typeCounter).seriesFor(labels)
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// GaugeOf returns (creating if needed) the gauge for name+labels.
func (r *Registry) GaugeOf(name, help string, labels ...Label) *Gauge {
	s := r.familyFor(name, help, typeGauge).seriesFor(labels)
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// GaugeFunc registers a gauge series computed by fn at render time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	s := r.familyFor(name, help, typeGauge).seriesFor(labels)
	s.fn = fn
}

// HistogramOf returns (creating if needed) the histogram for name+labels.
func (r *Registry) HistogramOf(name, help string, labels ...Label) *Histogram {
	s := r.familyFor(name, help, typeHistogram).seriesFor(labels)
	if s.h == nil {
		s.h = &Histogram{}
	}
	return s.h
}

// renderLabels renders {k="v",...} with keys sorted, or "" for none.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// mergeLabels renders a label set with extra pairs appended (for the
// histogram le dimension).
func mergeLabels(rendered string, extra ...Label) string {
	inner := strings.TrimSuffix(strings.TrimPrefix(rendered, "{"), "}")
	var b strings.Builder
	b.WriteByte('{')
	b.WriteString(inner)
	for _, l := range extra {
		if b.Len() > 1 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// WritePrometheus renders every family, then every Collect callback, in
// Prometheus text exposition format.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	fams := make([]*family, 0, len(names))
	for _, n := range names {
		fams = append(fams, r.families[n])
	}
	collects := append([]CollectFunc(nil), r.collects...)
	r.mu.Unlock()

	var err error
	pr := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}
	for _, f := range fams {
		f.mu.Lock()
		order := append([]string(nil), f.order...)
		byKey := make(map[string]*series, len(order))
		for k, s := range f.series {
			byKey[k] = s
		}
		f.mu.Unlock()
		if f.help != "" {
			pr("# HELP %s %s\n", f.name, f.help)
		}
		pr("# TYPE %s %s\n", f.name, f.typ)
		for _, k := range order {
			s := byKey[k]
			switch {
			case s.c != nil:
				pr("%s%s %d\n", f.name, s.labels, s.c.Value())
			case s.fn != nil:
				pr("%s%s %g\n", f.name, s.labels, s.fn())
			case s.g != nil:
				pr("%s%s %d\n", f.name, s.labels, s.g.Value())
			case s.h != nil:
				snap := s.h.Snapshot()
				var cum uint64
				for i, n := range snap.Buckets {
					cum += n
					if n == 0 && i != HistBuckets-1 {
						continue
					}
					pr("%s_bucket%s %d\n", f.name,
						mergeLabels(s.labels, L("le", fmt.Sprintf("%g", bucketUpper(i)))), cum)
				}
				pr("%s_bucket%s %d\n", f.name, mergeLabels(s.labels, L("le", "+Inf")), snap.Count)
				pr("%s_sum%s %d\n", f.name, s.labels, snap.Sum)
				pr("%s_count%s %d\n", f.name, s.labels, snap.Count)
			}
		}
	}
	// Pull-side series last: grouped per collected name so HELP/TYPE
	// headers stay unique even when several callbacks share a name.
	type collected struct {
		help  string
		rows  []string
		value []float64
	}
	dyn := make(map[string]*collected)
	var dynNames []string
	emit := func(name, help string, labels []Label, value float64) {
		c, ok := dyn[name]
		if !ok {
			c = &collected{help: help}
			dyn[name] = c
			dynNames = append(dynNames, name)
		}
		c.rows = append(c.rows, renderLabels(labels))
		c.value = append(c.value, value)
	}
	for _, fn := range collects {
		fn(emit)
	}
	sort.Strings(dynNames)
	for _, name := range dynNames {
		c := dyn[name]
		if c.help != "" {
			pr("# HELP %s %s\n", name, c.help)
		}
		pr("# TYPE %s gauge\n", name)
		for i, row := range c.rows {
			pr("%s%s %g\n", name, row, c.value[i])
		}
	}
	return err
}
