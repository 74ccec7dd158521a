// Era-pinned reclamation for superseded composition snapshots.
//
// Every composition mutation publishes a fresh immutable compState and
// supersedes the previous one. In-flight invocations may still be running
// under a superseded snapshot — a pre-activation resolves its plan from
// one atomic Load and can then park for an arbitrarily long time — so the
// moderator cannot declare a snapshot quiescent the moment it is replaced.
// Under layer churn (apps add and remove layers, register and unregister
// aspects) that superseded history is exactly the
// kind of unbounded retention a long-lived server cannot afford to track.
//
// The scheme is a small quiescent-state-based reclamation:
//
//   - reclaimEra advances once per retirement. A snapshot is current for
//     exactly one era value: the era recorded when it is retired.
//   - Every pre-activation pins its domain's slot for the era it starts
//     in (pins[era % reclaimSlots]), holding the pin across the whole
//     evaluation, parks included, and releasing it when the receipt (or
//     error) is returned.
//   - A retired snapshot is reclaimed — dropped from the retired list so
//     nothing in the moderator references it — once the era has moved past
//     it AND its era's pin slot reads zero in every domain: every reader
//     that could have loaded it has returned.
//
// Three slots suffice because slot occupancy, not era identity, gates
// reclamation: eras conflate modulo reclaimSlots, which can only delay a
// reclamation (a pin from era e also holds snapshots retired in eras
// e±reclaimSlots), never allow it early.
//
// Memory-safety caveat, documented on purpose: there is a benign window
// between a reader's comp.Load and its pin increment in which a retirement
// may advance the era, so the reader's pin lands one era late. A sweep can
// then declare the snapshot reclaimed while that late reader still holds
// it. This is safe in Go — the reader's own reference keeps the snapshot
// alive for the garbage collector; "reclaimed" only means the moderator
// stops tracking it — so the hot path is not taxed with a pin/validate
// loop for a property the runtime already provides. What the pins DO
// guarantee is bounded retention: the retired list cannot grow without
// bound while traffic flows, and TryReclaim lets tests and operators
// observe it draining.
package moderator

// reclaimSlots is the number of era pin slots per domain. See the package
// comment above for why three are enough.
const reclaimSlots = 3

// retiredComp is one superseded composition snapshot awaiting quiescence.
type retiredComp struct {
	cs  *compState
	era uint64
}

// ReclaimStats describes the reclamation state of a moderator.
type ReclaimStats struct {
	Era       uint64 // retirements so far
	Retired   uint64 // snapshots ever superseded
	Reclaimed uint64 // snapshots released back to the collector
	Pending   uint64 // superseded snapshots still pinned (or just retired)
}

// retireLocked records that old has been superseded by a newer published
// snapshot, advances the reclamation era, and opportunistically sweeps.
// The admin mutex must be held; every comp.Store of a replacement snapshot
// must be followed by retiring the snapshot it replaced.
func (m *Moderator) retireLocked(old *compState) {
	if old == nil {
		return
	}
	e := m.reclaimEra.Add(1)
	m.retired = append(m.retired, retiredComp{cs: old, era: e - 1})
	m.sweepLocked()
}

// sweepLocked drops every retired snapshot whose era is both past and
// quiescent. The admin mutex must be held.
func (m *Moderator) sweepLocked() {
	cur := m.reclaimEra.Load()
	dt := m.domains.Load()
	keep := m.retired[:0]
	for _, r := range m.retired {
		if cur > r.era && eraQuiet(dt, r.era) {
			m.reclaimed++
			continue
		}
		keep = append(keep, r)
	}
	// Zero the dropped tail so the backing array does not pin the
	// snapshots the sweep just released.
	for i := len(keep); i < len(m.retired); i++ {
		m.retired[i] = retiredComp{}
	}
	m.retired = keep
}

// eraQuiet reports whether the era's pin slot is empty in every domain.
func eraQuiet(dt *domainTable, era uint64) bool {
	for _, d := range dt.all {
		if d.pins[era%reclaimSlots].Load() != 0 {
			return false
		}
	}
	return true
}

// TryReclaim sweeps the retired-snapshot list and returns the reclamation
// state. It is safe to call at any time from any goroutine; churn-heavy
// operators may call it periodically, though every retirement already
// sweeps opportunistically.
func (m *Moderator) TryReclaim() ReclaimStats {
	m.admin.Lock()
	defer m.admin.Unlock()
	m.sweepLocked()
	era := m.reclaimEra.Load()
	pending := uint64(len(m.retired))
	return ReclaimStats{
		Era:       era,
		Retired:   m.reclaimed + pending,
		Reclaimed: m.reclaimed,
		Pending:   pending,
	}
}
