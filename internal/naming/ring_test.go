package naming

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

func ringKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("domain-%03d", i)
	}
	return keys
}

func ownerMap(t *testing.T, r *Ring, keys []string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		m, ok := r.Owner(k)
		if !ok {
			t.Fatalf("Owner(%q) on non-empty ring reported empty", k)
		}
		out[k] = m
	}
	return out
}

func TestRingEmptyAndBasics(t *testing.T) {
	if _, ok := NewRing(8).Owner("anything"); ok {
		t.Fatal("empty ring must report no owner")
	}
	r := NewRing(8, "b", "a", "a", "")
	if got := r.Members(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Members() = %v, want deduplicated sorted [a b]", got)
	}
	if !slices.Contains(r.Members(), "a") || slices.Contains(r.Members(), "zz") {
		t.Fatal("Members misreported membership")
	}
	// Ownership is deterministic and lands on a member.
	for _, k := range ringKeys(32) {
		o1, _ := r.Owner(k)
		o2, _ := r.Owner(k)
		if o1 != o2 || !slices.Contains(r.Members(), o1) {
			t.Fatalf("Owner(%q) unstable or off-ring: %q vs %q", k, o1, o2)
		}
	}
}

func TestRingSpread(t *testing.T) {
	// Every member of a healthy ring should own a nonzero share of a
	// reasonably sized keyspace.
	r := NewRing(DefaultRingReplicas, "n1", "n2", "n3")
	counts := make(map[string]int)
	for _, owner := range ownerMap(t, r, ringKeys(300)) {
		counts[owner]++
	}
	for _, m := range r.Members() {
		if counts[m] == 0 {
			t.Fatalf("member %s owns zero of 300 keys: %v", m, counts)
		}
	}
}

// TestRingRebalance is the table-driven bounded-movement property: on join,
// keys move only TO the new member; on leave, only the departed member's
// keys move. Nothing else is reshuffled.
func TestRingRebalance(t *testing.T) {
	cases := []struct {
		name     string
		replicas int
		members  []string
		change   string // member joining or leaving
		leave    bool
		keys     int
	}{
		{name: "join-4th-of-3", replicas: 64, members: []string{"n1", "n2", "n3"}, change: "n4", keys: 400},
		{name: "join-2nd-of-1", replicas: 64, members: []string{"solo"}, change: "peer", keys: 200},
		{name: "join-low-replicas", replicas: 4, members: []string{"a", "b", "c"}, change: "d", keys: 400},
		{name: "leave-of-3", replicas: 64, members: []string{"n1", "n2", "n3"}, change: "n2", leave: true, keys: 400},
		{name: "leave-to-solo", replicas: 64, members: []string{"n1", "n2"}, change: "n1", leave: true, keys: 200},
		{name: "leave-low-replicas", replicas: 4, members: []string{"a", "b", "c", "d"}, change: "c", leave: true, keys: 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			keys := ringKeys(tc.keys)
			before := NewRing(tc.replicas, tc.members...)
			var after *Ring
			if tc.leave {
				after = before.Without(tc.change)
			} else {
				after = NewRing(tc.replicas, append(before.Members(), tc.change)...)
			}
			ownersBefore := ownerMap(t, before, keys)
			ownersAfter := ownerMap(t, after, keys)
			moved := 0
			for _, k := range keys {
				ob, oa := ownersBefore[k], ownersAfter[k]
				if ob == oa {
					continue
				}
				moved++
				if tc.leave {
					if ob != tc.change {
						t.Fatalf("key %q moved from surviving member %s to %s on leave of %s", k, ob, oa, tc.change)
					}
				} else {
					if oa != tc.change {
						t.Fatalf("key %q moved from %s to %s, not to the joining member %s", k, ob, oa, tc.change)
					}
				}
			}
			// Movement is bounded by roughly the changed member's share.
			// Allow 3x slack over the ideal 1/n for hash-spread variance.
			n := len(after.Members())
			if !tc.leave {
				// joining: ideal share is keys/n on the new ring
				if limit := 3 * tc.keys / n; moved > limit {
					t.Fatalf("join moved %d of %d keys, above bound %d", moved, tc.keys, limit)
				}
			} else {
				if limit := 3 * tc.keys / (n + 1); moved > limit {
					t.Fatalf("leave moved %d of %d keys, above bound %d", moved, tc.keys, limit)
				}
			}
		})
	}
}

// TestRingGrowthSequenceBoundedMovement walks a membership growth sequence
// 3→4→5 and asserts the cumulative handoff discipline the cluster's
// state-sync plane relies on: at every join, keys move only TO the joiner
// (an existing member never inherits another existing member's key, so a
// join can never force a state handoff between two incumbents), and each
// step's movement stays within 3x the joiner's fair share.
func TestRingGrowthSequenceBoundedMovement(t *testing.T) {
	const keyCount = 500
	keys := ringKeys(keyCount)
	steps := []struct {
		join string
	}{
		{join: "n4"}, // 3 → 4
		{join: "n5"}, // 4 → 5
	}
	r := NewRing(DefaultRingReplicas, "n1", "n2", "n3")
	owners := ownerMap(t, r, keys)
	for _, st := range steps {
		next := NewRing(DefaultRingReplicas, append(r.Members(), st.join)...)
		nextOwners := ownerMap(t, next, keys)
		moved := 0
		for _, k := range keys {
			if owners[k] == nextOwners[k] {
				continue
			}
			moved++
			if nextOwners[k] != st.join {
				t.Fatalf("join of %s moved key %q between incumbents %s → %s",
					st.join, k, owners[k], nextOwners[k])
			}
		}
		n := len(next.Members())
		if limit := 3 * keyCount / n; moved > limit {
			t.Fatalf("join of %s moved %d of %d keys, above bound %d", st.join, moved, keyCount, limit)
		}
		if moved == 0 {
			t.Fatalf("join of %s moved nothing: joiner owns no keys", st.join)
		}
		r, owners = next, nextOwners
	}
}

// ringGoldenKeys are the keys of TestRingPlacementGolden, in the order of
// each row's owners.
var ringGoldenKeys = []string{
	"alpha", "beta", "gamma", "assign+open", "open", "assign", "echo", "put", "", "x",
	"domain-000", "domain-001", "domain-017", "domain-255", "cluster/member/n1",
	"a-very-long-domain-name-with-many-parts",
}

// TestRingPlacementGolden pins placement: nodes built from different
// versions of this package must agree on every key's owner, so a change
// to how the ring is built may not move one. The owners were recorded
// with the ring of fmt.Sprintf("%s#%d") points hashed by hash/fnv.
func TestRingPlacementGolden(t *testing.T) {
	golden := []struct {
		replicas int
		members  string
		owners   string // one per ringGoldenKeys entry
	}{
		{0, "n1", "n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1 n1"},
		{0, "n1 n2", "n2 n2 n2 n2 n1 n2 n2 n2 n1 n2 n2 n2 n1 n2 n1 n2"},
		{0, "n1 n2 n3", "n3 n2 n2 n2 n1 n2 n2 n2 n1 n3 n2 n2 n3 n3 n1 n2"},
		{0, "node-a node-b node-c", "node-b node-c node-c node-b node-a node-a node-b node-b node-c node-c node-c node-b node-b node-a node-c node-a"},
		{0, "a b c d e f g", "d f d b b a d c g c g d c c a e"},
		{4, "a b c d", "c b d b a c a c c a c c d c a c"},
		{1, "x y", "x y y y y y x x x x y y y y x y"},
		{200, "r1 r2 r3 r4 r5", "r4 r5 r3 r1 r5 r2 r5 r4 r4 r1 r5 r1 r1 r5 r2 r3"},
	}
	for _, g := range golden {
		r := NewRing(g.replicas, strings.Fields(g.members)...)
		want := strings.Fields(g.owners)
		for i, k := range ringGoldenKeys {
			if got, _ := r.Owner(k); got != want[i] {
				t.Errorf("ring %d×[%s]: Owner(%q) = %s, want %s", g.replicas, g.members, k, got, want[i])
			}
		}
	}
}

// TestRingWithoutEqualsRebuild pins Without against a ring built from
// scratch over the remaining members, for every member of sets of 1 to 7,
// an absent member among them.
func TestRingWithoutEqualsRebuild(t *testing.T) {
	keys := ringKeys(10000)
	all := []string{"n1", "n2", "n3", "n4", "n5", "n6", "n7"}
	for size := 1; size <= len(all); size++ {
		members := all[:size]
		r := NewRing(0, members...)
		for _, gone := range append(slices.Clone(members), "absent") {
			rest := slices.DeleteFunc(slices.Clone(members), func(m string) bool { return m == gone })
			got, want := r.Without(gone), NewRing(0, rest...)
			if !slices.Equal(got.Members(), want.Members()) {
				t.Fatalf("%v without %s: members %v, want %v", members, gone, got.Members(), want.Members())
			}
			for _, k := range keys {
				g, gok := got.Owner(k)
				w, wok := want.Owner(k)
				if g != w || gok != wok {
					t.Fatalf("%v without %s: Owner(%q) = %q,%v, want %q,%v", members, gone, k, g, gok, w, wok)
				}
			}
		}
	}
}

// TestRingAllocations bounds the heap allocations of building a ring, of
// deriving one without a member, and of a lookup, for a 3-member ring at
// the default replica count: what every heartbeat of a cluster node pays.
func TestRingAllocations(t *testing.T) {
	members := []string{"node-a", "node-b", "node-c"}
	r := NewRing(0, members...)
	for _, c := range []struct {
		name string
		max  float64
		f    func()
	}{
		{"NewRing", 10, func() { NewRing(0, members...) }},
		{"Without", 3, func() { r.Without("node-b") }},
		{"Owner", 0, func() { r.Owner("alpha") }},
	} {
		got := testing.AllocsPerRun(100, c.f)
		t.Logf("%s: %.0f allocations", c.name, got)
		if got > c.max {
			t.Errorf("%s: %.0f allocations, want at most %.0f", c.name, got, c.max)
		}
	}
}
