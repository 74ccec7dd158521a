package obs

import (
	"strings"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.CounterOf("x_total", "help", L("m", "open"))
	c.Inc()
	c.Inc()
	if got := c.Value(); got != 2 {
		t.Fatalf("counter = %d, want 2", got)
	}
	if again := r.CounterOf("x_total", "help", L("m", "open")); again != c {
		t.Fatal("CounterOf did not return the same instance for equal labels")
	}
	g := r.GaugeOf("depth", "", L("m", "open"))
	g.Add(3)
	g.Add(-1)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge = %d, want 2", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.CounterOf("dual", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.GaugeOf("dual", "")
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	h.Observe(0)  // bucket 0
	h.Observe(1)  // bucket 1
	h.Observe(2)  // bucket 2 (len=2)
	h.Observe(3)  // bucket 2
	h.Observe(-5) // negative counts as zero: bucket 0
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("count = %d, want 5", s.Count)
	}
	if s.Sum != 6 {
		t.Fatalf("sum = %d, want 6", s.Sum)
	}
	want := map[int]uint64{0: 2, 1: 1, 2: 2}
	for i, n := range s.Buckets {
		if n != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, n, want[i])
		}
	}
}

func TestHistogramOverflowClamped(t *testing.T) {
	var h Histogram
	h.Observe(int64(1) << 62) // Len64 = 63, beyond the top bucket
	s := h.Snapshot()
	if s.Buckets[HistBuckets-1] != 1 {
		t.Fatalf("overflow not absorbed by top bucket: %v", s.Buckets[HistBuckets-1])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	ops := r.CounterOf("am_ops_total", "Operations.", L("method", "open"))
	for i := 0; i < 7; i++ {
		ops.Inc()
	}
	r.GaugeOf("am_depth", "Queue depth.").Add(3)
	r.GaugeFunc("am_live", "Live value.", func() float64 { return 1.5 })
	h := r.HistogramOf("am_lat_ns", "Latency.", L("method", "open"))
	h.Observe(5) // bucket 3, le=7
	r.Collect(func(emit EmitFunc) {
		emit("am_pull", "Pulled.", []Label{L("component", "svc")}, 42)
	})

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE am_ops_total counter",
		`am_ops_total{method="open"} 7`,
		"# TYPE am_depth gauge",
		"am_depth 3",
		"am_live 1.5",
		"# TYPE am_lat_ns histogram",
		`am_lat_ns_bucket{method="open",le="7"} 1`,
		`am_lat_ns_bucket{method="open",le="+Inf"} 1`,
		`am_lat_ns_sum{method="open"} 5`,
		`am_lat_ns_count{method="open"} 1`,
		"# TYPE am_pull gauge",
		`am_pull{component="svc"} 42`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	if got := renderLabels([]Label{L("k", "a\"b\\c\nd")}); got != `{k="a\"b\\c\nd"}` {
		t.Fatalf("escaped labels = %s", got)
	}
}
