package schedtest

// Exhaustive schedule exploration over guarded plans: every scenario here
// is enumerated completely (all interleavings of its threads), each
// interleaving executed lockstep against the sharded Moderator and the
// single-mutex Reference, with a full observable comparison after every
// step and at every drained terminal. The sharded side runs with
// optimistic admission ON (the default), so every interleaving of the
// optimistic guard-cell protocol with parking, waking, cancellation and
// recomposition is certified against the executable spec; the two
// MutexTier scenarios rerun with it OFF, enumerating the blocking path
// alone. A zero-divergence run of these tests IS the
// certification artifact for guarded admission.

import (
	"math"
	"sync"
	"testing"

	"repro/internal/aspect"
	"repro/internal/moderator"
	"repro/internal/waitq"
)

// capSemBuild returns a Build function for a guarded "kappa" stack:
// a NonBlocking audit, a capacity-1 semaphore (WakeSingle-safe, FIFO
// deterministic), and a NonBlocking metrics tail. The probe exposes the
// semaphore occupancy and every hook count, so a double-evaluated
// precondition (the exact bug class of a broken optimistic verdict
// handoff) diverges from the Reference immediately.
func capSemBuild(m moderator.Admitter) (func() []int64, error) {
	var (
		mu      sync.Mutex
		used    int64
		pre     int64
		post    int64
		cancel  int64
		preAud  int64
		postAud int64
	)
	if err := m.Register("kappa", aspect.KindAudit, &aspect.Func{
		AspectName: "audit-pre", AspectKind: aspect.KindAudit, NonBlockingFlag: true,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			mu.Lock()
			preAud++
			mu.Unlock()
			return aspect.Resume
		},
	}); err != nil {
		return nil, err
	}
	if err := m.Register("kappa", aspect.KindSynchronization, &aspect.Func{
		AspectName: "sem", AspectKind: aspect.KindSynchronization,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			mu.Lock()
			defer mu.Unlock()
			pre++
			if used >= 1 {
				return aspect.Block
			}
			used++
			return aspect.Resume
		},
		Post: func(*aspect.Invocation) {
			mu.Lock()
			used--
			post++
			mu.Unlock()
		},
		CancelFn: func(*aspect.Invocation) {
			mu.Lock()
			used--
			cancel++
			mu.Unlock()
		},
		WakeList: []string{"kappa"},
	}); err != nil {
		return nil, err
	}
	if err := m.Register("kappa", aspect.KindMetrics, &aspect.Func{
		AspectName: "audit-post", AspectKind: aspect.KindMetrics, NonBlockingFlag: true,
		Pre: func(*aspect.Invocation) aspect.Verdict {
			mu.Lock()
			postAud++
			mu.Unlock()
			return aspect.Resume
		},
	}); err != nil {
		return nil, err
	}
	return func() []int64 {
		mu.Lock()
		defer mu.Unlock()
		return []int64{used, pre, post, cancel, preAud, postAud}
	}, nil
}

func runScenario(t *testing.T, sc Scenario) {
	t.Helper()
	stats, err := Explore(sc)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Terminals == 0 {
		t.Fatalf("%s: exploration visited no terminals", sc.Name)
	}
	t.Logf("%s: %d terminals, %d steps, max depth %d — zero divergences",
		sc.Name, stats.Terminals, stats.Steps, stats.MaxDepth)
}

// TestExhaustiveCapSemWakeSingle is the core certification: three caller
// threads, three ops each, racing for a capacity-1 semaphore on a guarded
// (optimistic-eligible) plan under WakeSingle+FIFO. Every interleaving of
// {optimistic admit, mutex admit, park, wake, cancel} at these bounds is
// executed on both implementations.
func TestExhaustiveCapSemWakeSingle(t *testing.T) {
	runScenario(t, Scenario{
		Name: "capsem-wakesingle",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		Build:   capSemBuild,
		Methods: []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpCancel}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
		},
	})
}

// TestExhaustiveRepublishChurn interleaves two semaphore callers with an
// operator thread that republishes the composition (register/unregister a
// layer) and kicks the queue — every recomposition point races the
// optimistic fast path's snapshot load and the reclamation of the
// superseded snapshot while callers may be pinned.
func TestExhaustiveRepublishChurn(t *testing.T) {
	runScenario(t, Scenario{
		Name: "republish-churn",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		Build:   capSemBuild,
		Methods: []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpCancel}, {Kind: OpFinish}},
			{{Kind: OpChurn, Method: "kappa"}, {Kind: OpKick, Method: "kappa"}, {Kind: OpChurn, Method: "kappa"}},
		},
	})
}

// TestExhaustiveGateBroadcast covers the broadcast wake family: two
// callers park on a closed all-or-nothing gate; a controller method's
// postaction toggles the gate and fans out cross-method wakes. The gate
// admits every parked caller when open, so WakeBroadcast outcomes stay a
// pure function of the schedule.
func TestExhaustiveGateBroadcast(t *testing.T) {
	build := func(m moderator.Admitter) (func() []int64, error) {
		var (
			mu      sync.Mutex
			open    bool
			gatePre int64
			gateOK  int64
			toggles int64
		)
		if err := m.Register("kappa", aspect.KindSynchronization, &aspect.Func{
			AspectName: "gate", AspectKind: aspect.KindSynchronization,
			Pre: func(*aspect.Invocation) aspect.Verdict {
				mu.Lock()
				defer mu.Unlock()
				gatePre++
				if !open {
					return aspect.Block
				}
				gateOK++
				return aspect.Resume
			},
		}); err != nil {
			return nil, err
		}
		if err := m.Register("ctl", aspect.KindScheduling, &aspect.Func{
			AspectName: "toggle", AspectKind: aspect.KindScheduling,
			Pre: func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
			Post: func(*aspect.Invocation) {
				mu.Lock()
				open = !open
				toggles++
				mu.Unlock()
			},
			WakeList: []string{"kappa", "ctl"},
		}); err != nil {
			return nil, err
		}
		return func() []int64 {
			mu.Lock()
			defer mu.Unlock()
			o := int64(0)
			if open {
				o = 1
			}
			return []int64{o, gatePre, gateOK, toggles}
		}, nil
	}
	runScenario(t, Scenario{
		Name:    "gate-broadcast",
		Options: []moderator.Option{moderator.WithWakeMode(moderator.WakeBroadcast)},
		Build:   build,
		Methods: []string{"kappa", "ctl"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "ctl"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "ctl"}, {Kind: OpFinish}},
		},
	})
}

// TestExplorationExercisesOptimisticPath is the sanity check that the
// certification actually covers the optimistic guard-cell protocol: a
// replayed schedule with an uncontended guarded begin must commit at
// least one admission through the lock-free path on the sharded side. If
// eligibility ever silently regressed (every admission quietly taking the
// mutex), the exhaustive suites above would still pass — this test is
// what fails.
func TestExplorationExercisesOptimisticPath(t *testing.T) {
	sc := Scenario{
		Name: "optimistic-probe",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		Build:   capSemBuild,
		Methods: []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
		},
	}
	w, err := newWorld(&sc)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := w.step(0, []string{"T0:begin", "T0:finish"}[:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	m := w.sides[0].m.(*moderator.Moderator)
	if os := m.OptimisticStats(); os.Admits == 0 || os.Completes == 0 {
		t.Fatalf("uncontended guarded begin did not use the optimistic path: %+v", os)
	}
}

// discardTracer drops every event and samples so rarely that no detail op
// ever fires; installing it is how a scenario forces the mutex route.
type discardTracer struct{}

func (discardTracer) Trace(moderator.TraceEvent) {}
func (discardTracer) SampleEvery() int           { return math.MaxInt }

// TestExhaustiveMutexTierCapSem reruns the capacity-1 semaphore race with
// a tracer installed, so every guarded begin on the sharded side takes the
// blocking domain mutex — the route every optimistic fallback ends on,
// here enumerated without the seqlock in front of it.
func TestExhaustiveMutexTierCapSem(t *testing.T) {
	runScenario(t, Scenario{
		Name: "capsem-mutex",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		ShardedTracer: discardTracer{},
		Build:         capSemBuild,
		Methods:       []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpCancel}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
		},
	})
}

// TestExhaustiveMutexTierRepublishChurn races mutex-tier admissions against
// recomposition: the republish/kick operator thread from the optimistic
// churn scenario, with the mutex route forced by a tracer.
func TestExhaustiveMutexTierRepublishChurn(t *testing.T) {
	runScenario(t, Scenario{
		Name: "republish-churn-mutex",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		ShardedTracer: discardTracer{},
		Build:         capSemBuild,
		Methods:       []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}, {Kind: OpBegin, Method: "kappa"}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpCancel}, {Kind: OpFinish}},
			{{Kind: OpChurn, Method: "kappa"}, {Kind: OpKick, Method: "kappa"}, {Kind: OpChurn, Method: "kappa"}},
		},
	})
}

// TestExplorationMixedArrivalFamilies replays one contended schedule under
// the default options and asserts both guarded arrival families fired on
// the sharded side: the holder admits optimistically, and the first blocked
// caller hands its verdict off from the seqlock to the mutex path (later
// ones see a parked waiter and go to the mutex directly).
func TestExplorationMixedArrivalFamilies(t *testing.T) {
	sc := Scenario{
		Name: "mixed-arrivals",
		Options: []moderator.Option{
			moderator.WithWakeMode(moderator.WakeSingle),
			moderator.WithWakePolicy(waitq.FIFO),
		},
		Build:   capSemBuild,
		Methods: []string{"kappa"},
		Threads: []Thread{
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
			{{Kind: OpBegin, Method: "kappa"}, {Kind: OpFinish}},
		},
	}
	w, err := newWorld(&sc)
	if err != nil {
		t.Fatal(err)
	}
	schedule := []string{"T0:begin", "T1:begin", "T2:begin", "T0:finish", "T1:finish", "T2:finish"}
	threads := []int{0, 1, 2, 0, 1, 2}
	for i, th := range threads {
		if err := w.step(th, schedule[:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	m := w.sides[0].m.(*moderator.Moderator)
	os := m.OptimisticStats()
	if os.Admits == 0 {
		t.Fatalf("holder did not admit optimistically: %+v", os)
	}
	if os.Parks == 0 && os.Fallbacks == 0 {
		t.Fatalf("no blocked caller handed off from the seqlock to the mutex path: %+v", os)
	}
}
