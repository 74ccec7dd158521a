package moderator

import (
	"sort"
	"testing"
	"time"

	"repro/internal/aspect"
)

// The in-process A/B behind the single-caller claims of EXPERIMENTS.md
// E12 and E14: each admission tier must beat the path it exists to
// avoid by a clear margin on the same machine, in the same process.
// Ratios only, one goroutine, so the verdict does not depend on the
// host's speed or core count.

const (
	// abMinRatio is the keep-rule: a tier that is not at least this much
	// faster than its fallback for one uncontended caller has no claim
	// left. Measured ratios are 1.6x-3.2x; 1.25 leaves room for noise.
	abMinRatio = 1.25
	abWarmup   = 2000
	abRounds   = 40
	abOps      = 5000
)

// abAuditStack registers a 3-deep stack of no-op audit aspects on "m".
// Without the NonBlocking capability the same stack is guarded as far as
// the moderator can tell and may not take the lock-free pure path.
func abAuditStack(t *testing.T, m Admitter, nonBlocking bool) {
	t.Helper()
	for _, name := range []string{"audit-a", "audit-b", "audit-c"} {
		err := m.Register("m", aspect.KindAudit, &aspect.Func{
			AspectName:      name,
			AspectKind:      aspect.KindAudit,
			NonBlockingFlag: nonBlocking,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// abRound times n admit+complete pairs of one caller on one reused
// invocation record, so the admission mechanism is all that is on the
// clock, and returns ns per pair.
func abRound(t *testing.T, m Admitter, inv *aspect.Invocation, n int) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		adm, err := m.Preactivation(inv)
		if err != nil {
			t.Fatal(err)
		}
		m.Postactivation(inv, adm)
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n)
}

// abPairRatios interleaves short rounds of the two variants and returns
// the slow/fast ratio of each adjacent pair of rounds, sorted. A round is
// shorter than a GC period or a scheduler quantum, and the two rounds of a
// pair run back to back, so a load spike from elsewhere on the host slows
// both sides of a pair alike or spoils only a few pairs; the median pair
// reads the mechanism, not the host's load.
func abPairRatios(t *testing.T, fast, slow Admitter) []float64 {
	t.Helper()
	inv := aspect.NewInvocation(nil, "ab", "m", nil)
	abRound(t, fast, inv, abWarmup)
	abRound(t, slow, inv, abWarmup)
	ratios := make([]float64, abRounds)
	for r := range ratios {
		fastNs := abRound(t, fast, inv, abOps)
		ratios[r] = abRound(t, slow, inv, abOps) / fastNs
	}
	sort.Float64s(ratios)
	return ratios
}

func TestTiersAB(t *testing.T) {
	if testing.Short() {
		t.Skip("timing A/B skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing ratios are meaningless under the race detector")
	}

	// (a) Pure lock-free path vs the same stack forced onto the domain
	// mutex. The slow side gets the mutex route from a tracer: a guarded
	// stack with no wake list is otherwise seqlock-eligible and the
	// "mutex" side would quietly measure the optimistic tier instead.
	pureFast := New("ab-pure")
	abAuditStack(t, pureFast, true)
	pureMutex := forceMutexRoute(New("ab-pure"))
	abAuditStack(t, pureMutex, false)

	// (b) Guarded-but-uncontended stack (NonBlocking audit, self-waking
	// capacity-1 guard, NonBlocking metrics): optimistic seqlock tier vs
	// the mutex tier every fallback takes.
	optOn := New("ab-guarded")
	optSemStack(t, optOn)
	optOff := forceMutexRoute(New("ab-guarded"))
	optSemStack(t, optOff)

	// (c) The same guarded stack, sharded Moderator (optOn again) vs
	// single-mutex Reference.
	reference := NewReference("ab-guarded")
	optSemStack(t, reference)

	for _, c := range []struct {
		name       string
		fast, slow Admitter
	}{
		{"pure fast path vs mutex", pureFast, pureMutex},
		{"optimistic vs mutex", optOn, optOff},
		{"sharded vs reference", optOn, reference},
	} {
		ratios := abPairRatios(t, c.fast, c.slow)
		ratio := ratios[len(ratios)/2]
		t.Logf("%s: median pair %.2fx; pairs, sorted: %.2f", c.name, ratio, ratios)
		if ratio < abMinRatio {
			t.Errorf("%s: %.2fx, want >= %.2fx", c.name, ratio, abMinRatio)
		}
	}
	if os := optOn.OptimisticStats(); os.Admits == 0 || os.Fallbacks+os.Conflicts != 0 {
		t.Errorf("optimistic side did not stay on the optimistic tier: %+v", os)
	}
	if os := optOff.OptimisticStats(); os.Admits != 0 {
		t.Errorf("mutex side took the optimistic tier: %+v", os)
	}
}
