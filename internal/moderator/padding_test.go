package moderator

// False-sharing audit for the admission hot structures. The domain struct
// groups its synchronization words into cache-line-padded sections — the
// parking mutex, the optimistic guard cell, the admission counters, the
// optimistic-path counters, and the reclamation pins — because on a
// multi-socket box a spinning guardCell.tryLock and a mutex futex word on
// the same line would ping-pong it between cores on every admission. The
// audit pins the layout with unsafe.Offsetof so an innocent field
// reordering cannot silently fold two hot groups back onto one line.

import (
	"testing"
	"unsafe"
)

const cacheLine = 64

func TestDomainPaddingAudit(t *testing.T) {
	var d domain

	line := func(off uintptr) uintptr { return off / cacheLine }
	offMu := unsafe.Offsetof(d.mu)
	offCell := unsafe.Offsetof(d.cell)
	offAdm := unsafe.Offsetof(d.admissions)
	offOpt := unsafe.Offsetof(d.optAdmits)
	offPins := unsafe.Offsetof(d.pins)

	groups := []struct {
		name string
		off  uintptr
	}{
		{"mu", offMu},
		{"cell", offCell},
		{"admissions", offAdm},
		{"optAdmits", offOpt},
		{"pins", offPins},
	}
	for i := 0; i < len(groups); i++ {
		for j := i + 1; j < len(groups); j++ {
			if line(groups[i].off) == line(groups[j].off) {
				t.Errorf("domain.%s (offset %d) and domain.%s (offset %d) share cache line %d",
					groups[i].name, groups[i].off, groups[j].name, groups[j].off, line(groups[i].off))
			}
		}
	}

	// The trailing group members must not spill onto the next group's
	// line either: the last mutex-section field is ticketSeq, the last
	// stat is traceTick, the last optimistic counter is optConflicts.
	if end := unsafe.Offsetof(d.ticketSeq) + unsafe.Sizeof(d.ticketSeq); line(end-1) == line(offCell) {
		t.Errorf("ticketSeq (ends %d) spills onto the guard cell's line", end)
	}
	if end := unsafe.Offsetof(d.traceTick) + unsafe.Sizeof(d.traceTick); line(end-1) == line(offOpt) {
		t.Errorf("traceTick (ends %d) spills onto the optimistic counters' line", end)
	}
	if end := unsafe.Offsetof(d.optConflicts) + unsafe.Sizeof(d.optConflicts); line(end-1) == line(offPins) {
		t.Errorf("optConflicts (ends %d) spills onto the pins' line", end)
	}
}

func TestModeratorWaitersPadding(t *testing.T) {
	var m Moderator
	offWaiters := unsafe.Offsetof(m.waiters)

	// waiters is the hottest cross-domain word: every fast-path admission
	// reads it and every park writes it. Nothing else may live on its
	// line — neither the preceding admin/bookkeeping fields nor anything
	// after it (the trailing pad must reach the struct's end).
	line := func(off uintptr) uintptr { return off / cacheLine }
	for _, f := range []struct {
		name string
		off  uintptr
		sz   uintptr
	}{
		{"admitHook", unsafe.Offsetof(m.admitHook), unsafe.Sizeof(m.admitHook)},
		{"reclaimEra", unsafe.Offsetof(m.reclaimEra), unsafe.Sizeof(m.reclaimEra)},
		{"comp", unsafe.Offsetof(m.comp), unsafe.Sizeof(m.comp)},
		{"domains", unsafe.Offsetof(m.domains), unsafe.Sizeof(m.domains)},
	} {
		if line(f.off) == line(offWaiters) || line(f.off+f.sz-1) == line(offWaiters) {
			t.Errorf("Moderator.%s (offset %d, size %d) shares a cache line with waiters (offset %d)",
				f.name, f.off, f.sz, offWaiters)
		}
	}
	if rest := unsafe.Sizeof(m) - (offWaiters + unsafe.Sizeof(m.waiters)); rest < cacheLine {
		t.Errorf("only %d bytes of trailing pad after waiters, want >= %d", rest, cacheLine)
	}
}
