// Package metrics provides the throughput/latency measurement aspect of
// the framework. Throughput is among the interaction requirements the
// paper lists for open concurrent systems (Section 2); composing it as an
// aspect means a component gains instrumentation with zero functional-code
// change.
//
// A Recorder may be shared across components and is internally locked.
// Latency is recorded from admission (pre-activation) to completion
// (post-activation), i.e. the method body plus any inner-layer aspect
// work, and aggregated into exponential histogram buckets.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/aspect"
)

// bucketCount is the number of exponential latency buckets: bucket i holds
// durations < 1us * 2^i, the last bucket is unbounded.
const bucketCount = 32

// MethodStats aggregates one method's measurements.
type MethodStats struct {
	Count   uint64
	Errors  uint64
	Min     time.Duration
	Max     time.Duration
	Sum     time.Duration
	buckets [bucketCount]uint64
}

// Mean returns the mean latency, or 0 with no samples.
func (s *MethodStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(uint64(s.Sum) / s.Count)
}

// Quantile returns an upper-bound estimate of the q-quantile (0 < q <= 1)
// from the histogram buckets, or 0 with no samples.
func (s *MethodStats) Quantile(q float64) time.Duration {
	if s.Count == 0 || q <= 0 {
		return 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	var cum uint64
	for i := 0; i < bucketCount; i++ {
		cum += s.buckets[i]
		if cum >= rank {
			upper := time.Duration(1<<uint(i)) * time.Microsecond
			if upper > s.Max && s.Max > 0 {
				return s.Max
			}
			return upper
		}
	}
	return s.Max
}

func bucketFor(d time.Duration) int {
	us := d.Microseconds()
	for i := 0; i < bucketCount-1; i++ {
		if us < 1<<uint(i) {
			return i
		}
	}
	return bucketCount - 1
}

// Recorder collects per-method statistics.
type Recorder struct {
	mu    sync.Mutex
	now   func() time.Time
	stats map[string]*MethodStats
}

// RecorderOption configures NewRecorder.
type RecorderOption func(*Recorder)

// WithClock overrides the clock (tests).
func WithClock(now func() time.Time) RecorderOption {
	return func(r *Recorder) { r.now = now }
}

// NewRecorder creates an empty recorder.
func NewRecorder(opts ...RecorderOption) *Recorder {
	r := &Recorder{
		now:   time.Now,
		stats: make(map[string]*MethodStats, 8),
	}
	for _, opt := range opts {
		opt(r)
	}
	return r
}

type startKey struct{}

// Aspect returns the measurement aspect. Register it innermost so the
// interval excludes outer concerns' blocking time, or outermost to include
// it.
func (r *Recorder) Aspect(name string) aspect.Aspect {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindMetrics,
		// The recorder carries its own mutex (it spans components), so
		// the aspect needs no admission lock and never blocks.
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			inv.SetAttr(startKey{}, r.now())
			return aspect.Resume
		},
		Post: func(inv *aspect.Invocation) {
			started, ok := inv.Attr(startKey{}).(time.Time)
			inv.DeleteAttr(startKey{})
			if !ok {
				return
			}
			r.observe(inv.Component()+"."+inv.Method(), r.now().Sub(started), inv.Err() != nil)
		},
		CancelFn: func(inv *aspect.Invocation) { inv.DeleteAttr(startKey{}) },
	}
}

func (r *Recorder) observe(key string, d time.Duration, failed bool) {
	if d < 0 {
		d = 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.stats[key]
	if !ok {
		s = &MethodStats{Min: d}
		r.stats[key] = s
	}
	s.Count++
	if failed {
		s.Errors++
	}
	if d < s.Min {
		s.Min = d
	}
	if d > s.Max {
		s.Max = d
	}
	s.Sum += d
	s.buckets[bucketFor(d)]++
}

// Snapshot returns a copy of all per-method statistics, keyed by
// "component.method".
func (r *Recorder) Snapshot() map[string]MethodStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]MethodStats, len(r.stats))
	for k, s := range r.stats {
		out[k] = *s
	}
	return out
}

// Keys returns the sorted measurement keys.
func (r *Recorder) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.stats))
	for k := range r.stats {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Report renders a plain-text table of the collected statistics.
func (r *Recorder) Report() string {
	snap := r.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := fmt.Sprintf("%-32s %10s %8s %12s %12s %12s %12s\n",
		"method", "count", "errors", "mean", "p50", "p99", "max")
	for _, k := range keys {
		s := snap[k]
		out += fmt.Sprintf("%-32s %10d %8d %12v %12v %12v %12v\n",
			k, s.Count, s.Errors, s.Mean(), s.Quantile(0.50), s.Quantile(0.99), s.Max)
	}
	return out
}
