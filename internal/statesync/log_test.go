package statesync

import (
	"fmt"
	"sync"
	"testing"
)

func TestLogAppendReadAck(t *testing.T) {
	l := NewLog("alpha", 16)
	for i := 1; i <= 5; i++ {
		seq, ok := l.Append(3, "put", []any{fmt.Sprintf("id-%d", i)})
		if !ok || seq != uint64(i) {
			t.Fatalf("append %d: seq=%d ok=%v", i, seq, ok)
		}
	}
	got := l.ReadFrom(0, 100)
	if len(got) != 5 {
		t.Fatalf("read %d entries, want 5", len(got))
	}
	for i, e := range got {
		if e.Seq != uint64(i+1) || e.Term != 3 || e.Method != "put" || e.Domain != "alpha" {
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
		if _, ok := l.Append(1, "put", nil); !ok {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	// The unacknowledged window is full: further appends are refused and
	// counted — replication lag is bounded by construction.
	if _, ok := l.Append(1, "put", nil); ok {
		t.Fatal("append accepted past an unacked full window")
	}
	if l.Overflows() != 1 || !l.Gapped() {
		t.Fatalf("overflow=%d gapped=%v, want 1/true", l.Overflows(), l.Gapped())
	}
	// A snapshot resync covers the hole and reopens the window.
	l.Resync(l.LastSeq())
	if l.Gapped() {
		t.Fatal("still gapped after resync")
	}
	if _, ok := l.Append(1, "put", nil); !ok {
		t.Fatal("append refused after resync reclaimed the window")
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
		if _, ok := l.Append(1, "put", nil); !ok {
			t.Fatalf("append %d refused below capacity", i)
		}
	}
	if _, ok := l.Append(1, "put", nil); ok { // seq 17: the hole
		t.Fatal("append accepted past a full window")
	}
	l.Ack(uint64(l.Capacity()))                // successor caught up on the published prefix
	if _, ok := l.Append(1, "put", nil); !ok { // seq 18: window reopened
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
		seq, ok := l.Append(2, "put", []any{i})
		if !ok {
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
				l.Append(1, "put", []any{w, i})
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
