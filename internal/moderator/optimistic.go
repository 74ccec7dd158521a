// Admission strategies: what a guarded call holds while its hooks run.
//
// Pre-activation and post-activation are each ONE driver (Preactivation and
// Postactivation in moderator.go): one layer loop, one verdict mapping, one
// set of epilogues. What varies per call is only the lock the hooks run
// under — the route, chosen by acquire from what the code observes:
//
//	routePure   nothing. A plan whose every aspect declared NonBlocking
//	            touches no cross-invocation guard state and never parks.
//	routeCell   the domain's guard cell alone. A guarded plan does touch
//	            guard state, so its hooks need mutual exclusion — but
//	            parking, wake fan-out, sticky tickets and queue bookkeeping
//	            are what the domain mutex really buys, and an uncontended
//	            caller needs none of them.
//	routeMutex  the domain mutex, plus the cell (strictly inside it) around
//	            the hooks of guarded plans so they exclude routeCell's.
//
// Both lock-free routes require that no tracer is installed (events of one
// domain are serialized by its mutex) and that nobody is parked
// moderator-wide (a parked caller's wake-up must stay ordered with
// completions, which the mutex route's fan-out provides). Every condition
// that sends a guarded call to the mutex: tracer installed, m.waiters != 0
// at the gate, plan not cell-eligible (wake span crosses domains), cell
// tryLock lost (Conflicts), waiters appeared before the cell was won
// (Fallbacks), or a Block verdict under the cell (Parks, the upgrade below).
//
// The guardCell is a versioned spin-lock word (sequence counter; odd =
// held) that serializes every guard-state access — preconditions,
// postactions, cancels, abandons — of guarded plans. It is strictly
// innermost: the mutex route acquires it after the domain mutex, and a cell
// holder never acquires any other lock, so lock ordering is trivially
// acyclic.
//
// Why the waiter re-check under the cell is sound: a caller only parks
// after incrementing m.waiters WHILE HOLDING the cell (the mutex route and
// the upgrade both do so). So if a routeCell caller holds the cell and reads
// waiters==0, no caller is parked and none can reach the parked state
// before the cell is released — there is provably nobody to wake, and
// skipping the fan-out is exactly as sound as it is on routePure. This
// closes the PR 2 stranded-caller bug class; the two
// TestOptimistic*Fallback* tests pin it.
//
// The in-place upgrade. A Block under routeCell cannot park there (queues
// belong to the mutex), so the pre-activation driver upgrades where it
// stands: roll the layer back, m.waiters.Add(1) under the cell, ver :=
// cell.unlock(), d.mu.Lock(), cell.lock(), and carry on as routeMutex with
// its locals — layer index, admitted prefix, the blocking entry — intact.
// Its own cell.lock advanced the sequence by exactly one, so if it now
// reads ver+1 no guard hook ran in the window: the verdict still holds and
// the caller parks on it directly (re-running the layer would fire every
// hook twice for one logical attempt, observably unlike the Reference). If
// the sequence moved, guard state may have changed — a completer may even
// have looked for this caller in the queues and not found it — so the layer
// re-evaluates, semantically a spurious wake-up, which re-parking callers
// already tolerate.
package moderator

import (
	"runtime"
	"sync/atomic"
)

// guardCell is a per-domain versioned spin lock over the domain's guard
// state. The sequence is even when free and odd while held; every
// acquire/release pair advances it by two, so a reader comparing sequences
// across a window detects any guard-state access in between (seqlock
// style, but writers-only: guard hooks both read and write guard state, so
// there is no lock-free read side).
type guardCell struct {
	seq atomic.Uint64
}

// guardSpinBudget bounds the tight CAS retries of lock before it starts
// yielding the processor. Cell critical sections are a handful of guard
// hooks (no parking, no allocation, no I/O), so a short budget suffices;
// past it the holder is likely descheduled and spinning would only starve
// it — on a single-CPU host, Gosched is what lets the holder finish.
const guardSpinBudget = 16

// tryLock attempts one acquisition; it never spins.
func (c *guardCell) tryLock() bool {
	s := c.seq.Load()
	return s&1 == 0 && c.seq.CompareAndSwap(s, s+1)
}

// lock spins until the cell is held, yielding after guardSpinBudget tries.
func (c *guardCell) lock() {
	for spins := 0; !c.tryLock(); spins++ {
		if spins >= guardSpinBudget {
			runtime.Gosched()
		}
	}
}

// unlock releases the cell and returns the post-release (even) sequence.
func (c *guardCell) unlock() uint64 {
	return c.seq.Add(1)
}

// version returns the current sequence (odd while the cell is held).
func (c *guardCell) version() uint64 {
	return c.seq.Load()
}

// route is what an admission holds while its hooks run — the one thing the
// three admission strategies differ in (see the package notes above). The
// guard cell is held on every route of a guarded plan and on no route of a
// pure one, so "cell held" never needs tracking separately from the plan.
type route uint8

const (
	routePure  route = iota // nothing held; a Block here is a contract violation
	routeCell               // the guard cell alone; a Block upgrades to routeMutex
	routeMutex              // d.mu, plus the cell for guarded plans; a Block parks
)

// acquire takes the cheapest lock set the plan and the moment allow and
// reports which. lockFree is the caller's half of the gate (no tracer; for a
// completion, a receipt admitted lock-free); p is the test instrumentation
// point fired before the cell attempt.
func (m *Moderator) acquire(plan *compiledPlan, d *domain, lockFree bool, p admitPoint) route {
	if lockFree && m.waiters.Load() == 0 {
		if plan.pure {
			return routePure
		}
		if plan.optimistic {
			m.callAdmitHook(p, d)
			if !d.cell.tryLock() {
				d.optConflicts.Add(1)
			} else if m.waiters.Load() != 0 {
				// Re-check under the cell: a caller that decided to park
				// after the outer gate must increment m.waiters while
				// holding the cell before it can reach the parked state,
				// so this read is authoritative.
				d.cell.unlock()
				d.optFallbacks.Add(1)
			} else {
				return routeCell
			}
		}
	}
	d.mu.Lock()
	if !plan.pure {
		d.cell.lock()
	}
	return routeMutex
}

// admitPoint names an instrumentation point of the cell route, used by
// tests to interleave a competing caller at the exact racy window.
type admitPoint int

const (
	// hookOptimisticPre fires after the outer waiters gate passed but
	// before the pre-activation cell acquisition.
	hookOptimisticPre admitPoint = iota + 1
	// hookOptimisticPost fires after the outer waiters gate passed but
	// before the post-activation cell acquisition.
	hookOptimisticPost
	// hookUpgrade fires inside the upgrade window: the blocked caller is
	// pre-registered and has released the cell, and has not yet taken the
	// domain mutex.
	hookUpgrade
)

// setAdmitHook installs (or, with nil, removes) a test hook called at the
// instrumentation points above. The hook always runs with no lock of its
// invocation held, so it may drive other callers of the same domain — even
// ones that park — without deadlocking against its own invocation.
func (m *Moderator) setAdmitHook(fn func(admitPoint, *domain)) {
	if fn == nil {
		m.admitHook.Store(nil)
		return
	}
	m.admitHook.Store(&fn)
}

func (m *Moderator) callAdmitHook(p admitPoint, d *domain) {
	if h := m.admitHook.Load(); h != nil {
		(*h)(p, d)
	}
}

// OptimisticStats are cumulative counters for the cell route, summed over
// the moderator's admission domains. They are intentionally NOT part of
// Stats: Stats is the observable surface the differential oracle compares
// against the Reference, and which path served an admission is an
// implementation detail the Reference does not share.
type OptimisticStats struct {
	Admits    uint64 // pre-activations committed entirely under the cell
	Completes uint64 // post-activations committed entirely under the cell
	Parks     uint64 // evaluations that hit Block under the cell and upgraded
	Fallbacks uint64 // cell acquired but waiters appeared: mutex fallback
	Conflicts uint64 // cell tryLock lost: mutex fallback
}

// OptimisticStats returns a snapshot of the optimistic-path counters.
func (m *Moderator) OptimisticStats() OptimisticStats {
	var s OptimisticStats
	for _, d := range m.domains.Load().all {
		s.Admits += d.optAdmits.Load()
		s.Completes += d.optCompletes.Load()
		s.Parks += d.optParks.Load()
		s.Fallbacks += d.optFallbacks.Load()
		s.Conflicts += d.optConflicts.Load()
	}
	return s
}
