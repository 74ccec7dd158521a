package naming

import (
	"fmt"
	"sort"
	"time"
)

// Domain leases are the ownership side of the distributed admission plane:
// a cluster node may execute a domain's admissions only while it holds the
// domain's lease, and every granted lease carries a term number that is
// monotone across the domain's whole history. Terms are the fencing tokens
// of cross-node traffic — a forwarded call labeled with term T is honored only by a node that holds the lease at exactly
// term T, so effects from an owner that lost its lease (and anything
// routed on a stale view of ownership) are refused rather than applied.
//
// The rules, enforced by the Store and exercised by the fencing tests:
//
//   - Acquire grants a free or expired domain at term = lastTerm+1, and is
//     idempotent for the live holder (same term back, lease extended).
//   - Renew extends a lease only for the exact (holder, term) pair and only
//     while the lease is still live: renew-after-expiry is REFUSED with
//     ErrStaleTerm, forcing the old owner back through Acquire (which bumps
//     the term and thereby invalidates every fence it ever issued).
//   - Terms never reset: the record survives expiry so the next grant
//     continues the sequence.

// ErrLeaseHeld is returned when a domain lease is live under another holder.
var ErrLeaseHeld error = &codedError{"naming: lease held", "lease-held"}

// ErrStaleTerm is returned when a lease operation (or a fenced remote
// effect) presents a term that is no longer the domain's live term.
var ErrStaleTerm error = &codedError{"naming: stale lease term", "stale-term"}

// DomainLease is one domain-ownership grant. Barrier, when present on a
// grant, is the snapshot barrier the previous holder left at release: the
// new owner's signal that replicated state through Barrier.Seq was handed
// over and must be resumed before serving.
type DomainLease struct {
	Domain  string    `json:"domain"`
	Holder  string    `json:"holder"`
	Term    uint64    `json:"term"`
	Expires time.Time `json:"expires"`
	Barrier *Barrier  `json:"barrier,omitempty"`
}

// Barrier records a graceful state handover: the releasing holder (From,
// at Term) flushed its effect log and snapshot through sequence Seq to the
// domain's successor before giving up the lease. It is consumed by the
// next grant.
type Barrier struct {
	From string `json:"from"`
	Term uint64 `json:"term"`
	Seq  uint64 `json:"seq"`
}

type leaseRecord struct {
	holder  string
	term    uint64
	expires time.Time
	barrier *Barrier // left by the last release-with-barrier, consumed by the next grant
}

func (s *Store) leaseLive(rec leaseRecord, now time.Time) bool {
	return rec.holder != "" && now.Before(rec.expires)
}

// AcquireLease grants holder the lease on domain for ttl (DefaultTTL if
// zero). A free or expired domain is granted at the next term; a live lease
// held by the same holder is extended at its current term; a live lease
// held by anyone else fails with ErrLeaseHeld.
func (s *Store) AcquireLease(domain, holder string, ttl time.Duration) (DomainLease, error) {
	if domain == "" || holder == "" {
		return DomainLease{}, fmt.Errorf("naming: acquire lease %q by %q: empty domain or holder", domain, holder)
	}
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	rec := s.leases[domain]
	if s.leaseLive(rec, now) {
		if rec.holder != holder {
			return DomainLease{}, fmt.Errorf("%w: %s by %s (term %d)", ErrLeaseHeld, domain, rec.holder, rec.term)
		}
		rec.expires = now.Add(ttl)
		s.leases[domain] = rec
		return s.leaseView(domain, rec), nil
	}
	barrier := rec.barrier
	rec = leaseRecord{holder: holder, term: rec.term + 1, expires: now.Add(ttl)}
	s.leases[domain] = rec
	// A pending snapshot barrier is consumed by exactly one grant: the new
	// owner learns the handed-over sequence, later grants start clean.
	l := s.leaseView(domain, rec)
	l.Barrier = barrier
	return l, nil
}

// RenewLease extends the lease on domain, but only for the live (holder,
// term) pair: a renewal after expiry, under the wrong term, or by the wrong
// holder is refused with ErrStaleTerm and the caller must re-acquire (at a
// higher term) to continue.
func (s *Store) RenewLease(domain, holder string, term uint64, ttl time.Duration) (DomainLease, error) {
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	rec, ok := s.leases[domain]
	if !ok || !s.leaseLive(rec, now) || rec.holder != holder || rec.term != term {
		return DomainLease{}, fmt.Errorf("%w: renew %s by %s at term %d", ErrStaleTerm, domain, holder, term)
	}
	rec.expires = now.Add(ttl)
	s.leases[domain] = rec
	return s.leaseView(domain, rec), nil
}

// ReleaseLease gives up the lease immediately if (holder, term) still holds
// it, reporting whether a live lease was released. The term survives so the
// next Acquire still bumps it.
func (s *Store) ReleaseLease(domain, holder string, term uint64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[domain]
	if !ok || !s.leaseLive(rec, s.now()) || rec.holder != holder || rec.term != term {
		return false
	}
	s.leases[domain] = leaseRecord{term: rec.term} // expired, term preserved
	return true
}

// ReleaseLeaseWithBarrier gives up a live lease like ReleaseLease, but
// records a snapshot barrier: the holder asserts it flushed its replicated
// state through seq to the domain's successor before releasing. The next
// AcquireLease grant carries the barrier so the new owner resumes state
// before serving. A release by anyone but the exact live (holder, term)
// pair is refused with ErrStaleTerm — a zombie owner cannot plant a
// barrier over a handover it no longer governs.
func (s *Store) ReleaseLeaseWithBarrier(domain, holder string, term, seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[domain]
	if !ok || !s.leaseLive(rec, s.now()) || rec.holder != holder || rec.term != term {
		return fmt.Errorf("%w: release %s by %s at term %d", ErrStaleTerm, domain, holder, term)
	}
	s.leases[domain] = leaseRecord{
		term:    rec.term,
		barrier: &Barrier{From: holder, Term: term, Seq: seq},
	}
	return nil
}

// LookupLease returns the live lease on domain, or ErrNotFound.
func (s *Store) LookupLease(domain string) (DomainLease, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	rec, ok := s.leases[domain]
	if !ok || !s.leaseLive(rec, s.now()) {
		return DomainLease{}, fmt.Errorf("%w: lease %s", ErrNotFound, domain)
	}
	return s.leaseView(domain, rec), nil
}

// Leases returns all live domain leases sorted by domain.
func (s *Store) Leases() []DomainLease {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	out := make([]DomainLease, 0, len(s.leases))
	for domain, rec := range s.leases {
		if !s.leaseLive(rec, now) {
			continue
		}
		out = append(out, s.leaseView(domain, rec))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Domain < out[j].Domain })
	return out
}

func (s *Store) leaseView(domain string, rec leaseRecord) DomainLease {
	return DomainLease{Domain: domain, Holder: rec.holder, Term: rec.term, Expires: rec.expires}
}
