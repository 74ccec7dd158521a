package naming

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Ring is an immutable consistent-hash ring mapping string keys (admission
// domains) to member ids (cluster nodes). Each member contributes a fixed
// number of virtual points so ownership spreads evenly; a key is owned by
// the member whose point follows the key's hash clockwise. Because only the
// joining or leaving member's points change, membership churn moves a
// bounded fraction of keys (~1/n on join, only the departed member's share
// on leave) — the property the rebalance tests pin down.
//
// A Ring is a value: With and Without return new rings, so a snapshot taken
// by a router stays coherent while the directory builds the next one.
type Ring struct {
	replicas int
	members  []string // sorted, deduplicated
	points   []ringPoint
}

type ringPoint struct {
	hash   uint64
	member string
}

// DefaultRingReplicas is the virtual-point count per member used when
// NewRing is given a non-positive replica count.
const DefaultRingReplicas = 64

// NewRing builds a ring over members with the given number of virtual
// points per member (DefaultRingReplicas if replicas <= 0). Duplicate
// member ids collapse to one.
func NewRing(replicas int, members ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultRingReplicas
	}
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m != "" {
			uniq = append(uniq, m)
		}
	}
	slices.Sort(uniq)
	uniq = slices.Compact(uniq)
	r := &Ring{
		replicas: replicas,
		members:  uniq,
		points:   make([]ringPoint, 0, len(uniq)*replicas),
	}
	// Virtual point i of member m hashes the bytes "m#i", built in one
	// reused buffer.
	var buf [64]byte
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			b := strconv.AppendInt(append(append(buf[:0], m...), '#'), int64(i), 10)
			r.points = append(r.points, ringPoint{hash: ringHash(b), member: m})
		}
	}
	slices.SortFunc(r.points, func(a, b ringPoint) int {
		if c := cmp.Compare(a.hash, b.hash); c != 0 {
			return c
		}
		return strings.Compare(a.member, b.member)
	})
	return r
}

// ringHash is 64-bit FNV-1a over s, then a finalizer.
func ringHash[S string | []byte](s S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	// Raw FNV-1a clusters badly on short strings differing in a suffix
	// (all of a member's virtual points land adjacent, defeating the
	// spread); a murmur3-style finalizer restores avalanche.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

// Owner returns the member owning key, or false on an empty ring.
func (r *Ring) Owner(key string) (string, bool) {
	if r == nil || len(r.points) == 0 {
		return "", false
	}
	h := ringHash(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap: first point clockwise from the top of the hash space
	}
	return r.points[i].member, true
}

// Members returns the member ids in sorted order.
func (r *Ring) Members() []string {
	if r == nil {
		return nil
	}
	out := make([]string, len(r.members))
	copy(out, r.members)
	return out
}

// Without returns a new ring with member removed. Its points are the
// receiver's, already sorted, less the removed member's: no point is
// hashed again.
func (r *Ring) Without(member string) *Ring {
	out := &Ring{
		replicas: r.replicas,
		members:  make([]string, 0, len(r.members)),
		points:   make([]ringPoint, 0, len(r.points)),
	}
	for _, m := range r.members {
		if m != member {
			out.members = append(out.members, m)
		}
	}
	for _, p := range r.points {
		if p.member != member {
			out.points = append(out.points, p)
		}
	}
	return out
}
