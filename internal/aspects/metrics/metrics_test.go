package metrics

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

// stepClock returns a clock advancing by step on every call.
func stepClock(step time.Duration) func() time.Time {
	t0 := time.Unix(1000, 0)
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * step)
	}
}

func TestAspectMeasuresLatency(t *testing.T) {
	r := NewRecorder(WithClock(stepClock(10 * time.Millisecond)))
	a := r.Aspect("metrics")
	if a.Kind() != aspect.KindMetrics {
		t.Errorf("kind = %q", a.Kind())
	}
	i := inv("open")
	if v := a.Precondition(i); v != aspect.Resume {
		t.Fatalf("metrics must never gate: %v", v)
	}
	i.SetResult(nil, nil)
	a.Postaction(i)

	snap := r.Snapshot()
	s, ok := snap["comp.open"]
	if !ok {
		t.Fatalf("no stats for comp.open: %v", r.Keys())
	}
	if s.Count != 1 || s.Errors != 0 {
		t.Errorf("count/errors = %d/%d", s.Count, s.Errors)
	}
	// Two clock ticks apart → 10ms.
	if s.Mean() != 10*time.Millisecond {
		t.Errorf("mean = %v, want 10ms", s.Mean())
	}
	if s.Min != 10*time.Millisecond || s.Max != 10*time.Millisecond {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
}

func TestErrorsCounted(t *testing.T) {
	r := NewRecorder(WithClock(stepClock(time.Millisecond)))
	a := r.Aspect("metrics")
	for k := 0; k < 3; k++ {
		i := inv("open")
		a.Precondition(i)
		var err error
		if k == 1 {
			err = errors.New("boom")
		}
		i.SetResult(nil, err)
		a.Postaction(i)
	}
	s := r.Snapshot()["comp.open"]
	if s.Count != 3 || s.Errors != 1 {
		t.Errorf("count/errors = %d/%d, want 3/1", s.Count, s.Errors)
	}
}

func TestCancelDiscardsMeasurement(t *testing.T) {
	r := NewRecorder()
	a := r.Aspect("metrics")
	i := inv("open")
	a.Precondition(i)
	a.(aspect.Canceler).Cancel(i)
	if len(r.Snapshot()) != 0 {
		t.Error("cancelled admission must not record a sample")
	}
	// A postaction without a matching pre start attr must be a no-op.
	a.Postaction(inv("open"))
	if len(r.Snapshot()) != 0 {
		t.Error("orphan postaction must not record")
	}
}

func TestQuantileAndMean(t *testing.T) {
	var s MethodStats
	if s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Error("empty stats must be zero")
	}
	// Feed 100 samples: 1us..100us via observe.
	r := NewRecorder()
	for k := 1; k <= 100; k++ {
		r.observe("comp.m", time.Duration(k)*time.Microsecond, false)
	}
	st := r.Snapshot()["comp.m"]
	if st.Count != 100 {
		t.Fatalf("count = %d", st.Count)
	}
	p50 := st.Quantile(0.5)
	if p50 < 32*time.Microsecond || p50 > 128*time.Microsecond {
		t.Errorf("p50 = %v outside coarse bucket range", p50)
	}
	p100 := st.Quantile(1)
	if p100 != st.Max {
		t.Errorf("p100 = %v, want max %v", p100, st.Max)
	}
	if q := st.Quantile(2); q != st.Max {
		t.Errorf("q>1 clamps to max, got %v", q)
	}
	if q := st.Quantile(0); q != 0 {
		t.Errorf("q=0 must be 0, got %v", q)
	}
	wantMean := 50500 * time.Nanosecond // mean of 1..100 microseconds
	if st.Mean() != wantMean {
		t.Errorf("mean = %v, want %v", st.Mean(), wantMean)
	}
}

func TestBucketFor(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{1000 * time.Microsecond, 10},
		{time.Hour, bucketCount - 1},
	}
	for _, c := range cases {
		if got := bucketFor(c.d); got != c.want {
			t.Errorf("bucketFor(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

func TestKeysSorted(t *testing.T) {
	r := NewRecorder()
	r.observe("b.m", time.Microsecond, false)
	r.observe("a.m", time.Microsecond, false)
	if got := r.Keys(); !reflect.DeepEqual(got, []string{"a.m", "b.m"}) {
		t.Errorf("keys = %v", got)
	}
}

func TestReportRenders(t *testing.T) {
	r := NewRecorder()
	r.observe("comp.open", 5*time.Microsecond, false)
	r.observe("comp.open", 7*time.Microsecond, true)
	rep := r.Report()
	if rep == "" {
		t.Fatal("empty report")
	}
	for _, want := range []string{"comp.open", "count", "p99"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestNegativeDurationClamped(t *testing.T) {
	r := NewRecorder()
	r.observe("comp.m", -time.Second, false)
	s := r.Snapshot()["comp.m"]
	if s.Min != 0 || s.Max != 0 {
		t.Errorf("negative duration not clamped: %+v", s)
	}
}

func TestConcurrentObservation(t *testing.T) {
	r := NewRecorder()
	a := r.Aspect("metrics")
	var wg sync.WaitGroup
	const workers, per = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				i := inv("open")
				a.Precondition(i)
				i.SetResult(nil, nil)
				a.Postaction(i)
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()["comp.open"]
	if s.Count != workers*per {
		t.Errorf("count = %d, want %d", s.Count, workers*per)
	}
}
