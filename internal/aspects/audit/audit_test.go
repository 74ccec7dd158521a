package audit

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
)

func inv(method string) *aspect.Invocation {
	return aspect.NewInvocation(context.Background(), "comp", method, nil)
}

func fixedClock() func() time.Time {
	t0 := time.Date(2001, 4, 16, 12, 0, 0, 0, time.UTC) // ICDCS 2001
	n := 0
	return func() time.Time {
		n++
		return t0.Add(time.Duration(n) * time.Second)
	}
}

func TestNewTrailValidation(t *testing.T) {
	if _, err := NewTrail(0); err == nil {
		t.Error("capacity 0 must error")
	}
	if _, err := NewTrail(-1); err == nil {
		t.Error("negative capacity must error")
	}
}

func TestAspectRecordsPreAndPost(t *testing.T) {
	tr, err := NewTrail(16, WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	if a.Kind() != aspect.KindAudit {
		t.Errorf("kind = %q", a.Kind())
	}
	i := inv("open")
	if v := a.Precondition(i); v != aspect.Resume {
		t.Fatalf("audit must never gate: %v", v)
	}
	i.SetResult("done", nil)
	a.Postaction(i)

	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[0].Phase != PhasePre || events[1].Phase != PhasePost {
		t.Errorf("phases = %v, %v", events[0].Phase, events[1].Phase)
	}
	if events[0].Method != "open" || events[0].Component != "comp" {
		t.Errorf("identity = %s.%s", events[0].Component, events[0].Method)
	}
	if events[0].Invocation != i.ID() || events[1].Invocation != i.ID() {
		t.Error("invocation IDs must match")
	}
	if events[0].Seq >= events[1].Seq {
		t.Error("sequence must increase")
	}
	if events[1].Err != "" {
		t.Errorf("successful post err = %q", events[1].Err)
	}
}

func TestPostRecordsError(t *testing.T) {
	tr, err := NewTrail(4)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	i := inv("open")
	a.Precondition(i)
	i.SetResult(nil, errors.New("buffer torn"))
	a.Postaction(i)
	events := tr.Events()
	if events[1].Err != "buffer torn" {
		t.Errorf("err = %q", events[1].Err)
	}
}

func TestCancelRecorded(t *testing.T) {
	tr, err := NewTrail(4)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	i := inv("open")
	a.Precondition(i)
	a.(aspect.Canceler).Cancel(i)
	events := tr.Events()
	if len(events) != 2 || events[1].Phase != PhaseCancel {
		t.Fatalf("events = %+v", events)
	}
}

func TestPrincipalAttributed(t *testing.T) {
	tr, err := NewTrail(4)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	i := inv("open")
	auth.WithPrincipal(i, &auth.Principal{Name: "alice"})
	a.Precondition(i)
	if got := tr.Events()[0].Principal; got != "alice" {
		t.Errorf("principal = %q", got)
	}
}

func TestRingEviction(t *testing.T) {
	tr, err := NewTrail(3, WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	for k := 0; k < 5; k++ {
		a.Precondition(inv("open"))
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if tr.Seq() != 5 {
		t.Fatalf("seq = %d, want 5", tr.Seq())
	}
	events := tr.Events()
	// Oldest first: sequences 3, 4, 5.
	for k, want := range []uint64{3, 4, 5} {
		if events[k].Seq != want {
			t.Errorf("event %d seq = %d, want %d", k, events[k].Seq, want)
		}
	}
}

func TestSinkReceivesJSONLines(t *testing.T) {
	var buf bytes.Buffer
	tr, err := NewTrail(4, WithSink(&buf), WithClock(fixedClock()))
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	i := inv("open")
	a.Precondition(i)
	i.SetResult(nil, nil)
	a.Postaction(i)

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink lines = %d, want 2", len(lines))
	}
	var e Event
	if err := json.Unmarshal([]byte(lines[0]), &e); err != nil {
		t.Fatalf("line not JSON: %v", err)
	}
	if e.Method != "open" || e.Phase != PhasePre {
		t.Errorf("decoded event = %+v", e)
	}
	if tr.Drops() != 0 {
		t.Errorf("drops = %d", tr.Drops())
	}
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

func TestSinkFailureCountsDrops(t *testing.T) {
	tr, err := NewTrail(4, WithSink(failingWriter{}))
	if err != nil {
		t.Fatal(err)
	}
	tr.Aspect("audit").Precondition(inv("open"))
	if tr.Drops() != 1 {
		t.Errorf("drops = %d, want 1", tr.Drops())
	}
	// The ring still has the event.
	if tr.Len() != 1 {
		t.Errorf("len = %d, want 1", tr.Len())
	}
}

func TestConcurrentRecording(t *testing.T) {
	tr, err := NewTrail(1024)
	if err != nil {
		t.Fatal(err)
	}
	a := tr.Aspect("audit")
	var wg sync.WaitGroup
	const workers, per = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				i := inv("open")
				a.Precondition(i)
				a.Postaction(i)
			}
		}()
	}
	wg.Wait()
	if got := tr.Seq(); got != workers*per*2 {
		t.Errorf("seq = %d, want %d", got, workers*per*2)
	}
	// Sequence numbers in the ring must be strictly increasing.
	events := tr.Events()
	for k := 1; k < len(events); k++ {
		if events[k].Seq <= events[k-1].Seq {
			t.Fatalf("ring order broken at %d: %d then %d", k, events[k-1].Seq, events[k].Seq)
		}
	}
}
