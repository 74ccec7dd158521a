package statesync

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/aspect"
)

// appendList appends one effect whose arguments are an in-process call's
// list, as Manager.Capture does.
func (l *Log) appendList(term uint64, method string, args []any) (uint64, error) {
	return l.add(term, method, effectArgs{list: args})
}

func TestLogAppendReadAck(t *testing.T) {
	l := NewLog("alpha", 16)
	for i := 1; i <= 5; i++ {
		seq, err := l.appendList(3, "put", []any{fmt.Sprintf("id-%d", i)})
		if err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq=%d err=%v", i, seq, err)
		}
	}
	got := l.ReadFrom(0, 100)
	if len(got) != 5 {
		t.Fatalf("read %d entries, want 5", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Term != 3 || e.Method != "put" || e.Domain != "alpha" || string(e.Args) != fmt.Sprintf(`["id-%d"]`, i+1) {
			t.Fatalf("entry %d malformed: %+v", i, e)
		}
	}
	l.Ack(3)
	if p := l.Pending(); p != 2 {
		t.Fatalf("pending %d after ack 3, want 2", p)
	}
	if got := l.ReadFrom(l.Acked(), 100); len(got) != 2 || got[0].Seq != 4 {
		t.Fatalf("read after ack: %+v", got)
	}
	// Ack is monotone: an older ack cannot move the mark back.
	l.Ack(1)
	if a := l.Acked(); a != 3 {
		t.Fatalf("acked regressed to %d", a)
	}
}

func TestLogOverflowBoundsLag(t *testing.T) {
	l := NewLog("alpha", 16)
	for i := 0; i < l.Capacity(); i++ {
		if _, err := l.appendList(1, "put", nil); err != nil {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	// The unacknowledged window is full: further appends are refused and
	// counted — replication lag is bounded by construction.
	if _, err := l.appendList(1, "put", nil); err == nil {
		t.Fatal("append accepted past an unacked full window")
	}
	if l.Overflows() != 1 || !l.Gapped() {
		t.Fatalf("overflow=%d gapped=%v, want 1/true", l.Overflows(), l.Gapped())
	}
	// A snapshot resync, acknowledging through it, covers the hole and
	// reopens the window.
	l.Ack(l.LastSeq())
	if l.Gapped() {
		t.Fatal("still gapped after resync")
	}
	if _, err := l.appendList(1, "put", nil); err != nil {
		t.Fatal("append refused after resync reclaimed the window")
	}
}

// TestLogGappedWhileAHoleLiesAboveAcked pins the gap flag to the holes
// themselves: acknowledging through one hole (a snapshot's resync, or
// SkipGap) leaves a later one gapped, and only covering the last clears it.
func TestLogGappedWhileAHoleLiesAboveAcked(t *testing.T) {
	l := NewLog("alpha", 16)
	for i, arg := range []any{1, math.NaN(), 3, math.NaN(), 5} { // holes at 2 and 4
		if _, err := l.appendList(1, "put", []any{arg}); (err != nil) != (i%2 == 1) {
			t.Fatalf("append %d: err = %v", i+1, err)
		}
	}
	l.Ack(1)
	if !l.Gapped() {
		t.Fatal("not gapped with holes at 2 and 4 above acked 1")
	}
	if n := l.SkipGap(); n != 1 || !l.Gapped() {
		t.Fatalf("first skip abandoned %d, gapped=%v; want 1 and still gapped by the hole at 4", n, l.Gapped())
	}
	if got := l.ReadFrom(l.Acked(), 100); len(got) != 1 || got[0].Seq != 3 {
		t.Fatalf("read after the first skip: %+v", got)
	}
	l.Ack(3)
	if n := l.SkipGap(); n != 1 || l.Gapped() {
		t.Fatalf("second skip abandoned %d, gapped=%v; want 1 and whole", n, l.Gapped())
	}
	if got := l.ReadFrom(l.Acked(), 100); len(got) != 1 || got[0].Seq != 5 {
		t.Fatalf("read after the second skip: %+v", got)
	}
}

// TestLogSkipGapResumesAfterOverflow pins the no-snapshot overflow
// remedy: a refused append consumes a sequence whose slot is never
// published, so the reader stalls at the hole — SkipGap abandons the lost
// range (counted) and streaming resumes at the next published entry
// instead of wedging for the rest of the term.
func TestLogSkipGapResumesAfterOverflow(t *testing.T) {
	l := NewLog("alpha", 16)
	for i := 0; i < l.Capacity(); i++ {
		if _, err := l.appendList(1, "put", nil); err != nil {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	if _, err := l.appendList(1, "put", nil); err == nil { // seq 17: the hole
		t.Fatal("append accepted past a full window")
	}
	l.Ack(uint64(l.Capacity()))                            // successor caught up on the published prefix
	if _, err := l.appendList(1, "put", nil); err != nil { // seq 18: window reopened
		t.Fatal("append refused after the window drained")
	}
	// The reader stalls at the never-published seq 17...
	if got := l.ReadFrom(l.Acked(), 100); len(got) != 0 {
		t.Fatalf("read %d entries across an unpublished hole", len(got))
	}
	// ...until SkipGap abandons it: streaming resumes at 18.
	if n := l.SkipGap(); n != 1 {
		t.Fatalf("skipped %d sequences, want 1", n)
	}
	if l.Gapped() || l.Skipped() != 1 {
		t.Fatalf("gapped=%v skipped=%d after skip", l.Gapped(), l.Skipped())
	}
	got := l.ReadFrom(l.Acked(), 100)
	if len(got) != 1 || got[0].Seq != 18 {
		t.Fatalf("read after skip: %+v", got)
	}
	l.Ack(got[0].Seq)
	if p := l.Pending(); p != 0 {
		t.Fatalf("pending %d after draining past the hole", p)
	}
}

func TestLogWrapWithAcks(t *testing.T) {
	l := NewLog("alpha", 16)
	// Acknowledge as we go: many times the capacity flows through.
	for i := 1; i <= 10*l.Capacity(); i++ {
		seq, err := l.appendList(2, "put", []any{i})
		if err != nil {
			t.Fatalf("append %d refused with a drained window", i)
		}
		got := l.ReadFrom(l.Acked(), 100)
		if len(got) != 1 || got[0].Seq != seq {
			t.Fatalf("append %d: read %+v", i, got)
		}
		l.Ack(seq)
	}
	if l.Overflows() != 0 {
		t.Fatalf("overflows %d on a drained log", l.Overflows())
	}

	// A run of several entries across the ring's end: a read is a slice of
	// the log itself, so it stops at the end and the next read, after the
	// ack, returns the rest. Appends the window refuses leave the run as
	// it was.
	l = NewLog("alpha", 16)
	for i := 1; i <= 12; i++ {
		l.appendList(2, "put", []any{i})
	}
	l.Ack(12)
	for i := 13; i <= 28; i++ {
		if _, err := l.appendList(2, "put", []any{i}); err != nil {
			t.Fatalf("append %d refused inside the window", i)
		}
	}
	run := l.ReadFrom(l.Acked(), 100)
	if len(run) != 3 || run[0].Seq != 13 || run[2].Seq != 15 {
		t.Fatalf("read across the ring end: %+v, want seqs 13-15", run)
	}
	for i := 29; i <= 31; i++ {
		if _, err := l.appendList(2, "put", []any{i}); err == nil {
			t.Fatalf("append %d accepted over unacknowledged seq 13", i)
		}
	}
	for k, e := range run {
		if want := 13 + k; e.Seq != uint64(want) || string(e.Args) != fmt.Sprintf("[%d]", want) {
			t.Fatalf("run entry %d after refused appends: %+v, want seq and arg %d", k, e, want)
		}
	}
	l.Ack(15)
	rest := l.ReadFrom(l.Acked(), 100)
	if len(rest) != 13 || rest[0].Seq != 16 || rest[12].Seq != 28 || string(rest[12].Args) != "[28]" {
		t.Fatalf("read after the ack: %d entries from %+v, want seqs 16-28", len(rest), rest)
	}
}

func TestLogConcurrentAppend(t *testing.T) {
	l := NewLog("alpha", 4096)
	const workers, per = 8, 256
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				l.appendList(1, "put", []any{w, i})
			}
		}(w)
	}
	wg.Wait()
	got := l.ReadFrom(0, workers*per+10)
	if len(got) != workers*per {
		t.Fatalf("read %d entries, want %d", len(got), workers*per)
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) {
			t.Fatalf("entry %d has seq %d: sequence not dense", i, e.Seq)
		}
	}
}

// TestLogReusesSlotBuffers pins capture's cost: once every slot has held
// its arguments, appending one more effect — encoding an in-process call's
// list into the slot, or copying a served call's wire form — allocates
// nothing.
func TestLogReusesSlotBuffers(t *testing.T) {
	list := []any{"ticket-000001", 7, true}
	// allocs warms a log's slots with args and reports what one more
	// append costs.
	allocs := func(args effectArgs) error {
		l := NewLog("alpha", 16)
		var err error
		appendAck := func() {
			var seq uint64
			if seq, err = l.add(1, "put", args); err == nil {
				l.Ack(seq)
			}
		}
		for i := 0; i < l.Capacity() && err == nil; i++ {
			appendAck()
		}
		if n := testing.AllocsPerRun(1000, appendAck); err != nil || n != 0 {
			return fmt.Errorf("append allocates %.1f times (err %v), want 0", n, err)
		}
		return nil
	}
	t.Run("list", func(t *testing.T) {
		if err := allocs(effectArgs{list: list}); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("wire form", func(t *testing.T) {
		measured := make(chan error, 1)
		stub := serve(t, func(inv *aspect.Invocation) (any, error) {
			measured <- allocs(effectArgs{wire: inv.Wire()})
			return nil, nil
		})
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if _, err := stub.Invoke(ctx, "put", list...); err != nil {
			t.Fatal(err)
		}
		if err := <-measured; err != nil {
			t.Fatal(err)
		}
	})
}
