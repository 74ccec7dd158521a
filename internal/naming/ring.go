package naming

import (
	"fmt"
	"hash/fnv"
	"sort"
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
	seen := make(map[string]struct{}, len(members))
	for _, m := range members {
		if m == "" {
			continue
		}
		if _, dup := seen[m]; dup {
			continue
		}
		seen[m] = struct{}{}
		uniq = append(uniq, m)
	}
	sort.Strings(uniq)
	r := &Ring{
		replicas: replicas,
		members:  uniq,
		points:   make([]ringPoint, 0, len(uniq)*replicas),
	}
	for _, m := range uniq {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{hash: ringHash(fmt.Sprintf("%s#%d", m, i)), member: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].member < r.points[j].member
	})
	return r
}

func ringHash(s string) uint64 {
	f := fnv.New64a()
	_, _ = f.Write([]byte(s))
	// Raw FNV-1a clusters badly on short strings differing in a suffix
	// (all of a member's virtual points land adjacent, defeating the
	// spread); a murmur3-style finalizer restores avalanche.
	h := f.Sum64()
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

// Without returns a new ring with member removed.
func (r *Ring) Without(member string) *Ring {
	kept := make([]string, 0, len(r.members))
	for _, m := range r.members {
		if m != member {
			kept = append(kept, m)
		}
	}
	return NewRing(r.replicas, kept...)
}
