package moderator

// The differential oracle: randomized op schedules (invoke / block / abort
// / cancel / kick / layer-churn / register-churn) are replayed in
// lockstep against BOTH the sharded Moderator and the single-mutex Reference, and
// every observable — admission ledgers (Stats), waiting counts, admitted /
// parked / outcome sets, guard state, Describe snapshots, and per-invocation
// hook traces (onion ordering and rollback) — must be identical after every
// op.
//
// Determinism is what makes exact comparison possible: the harness issues
// one op at a time and waits for both implementations to quiesce (every
// in-flight caller parked) before comparing. Schedules are derived from a
// seed; a failure message always carries the seed, and
// `go test -run TestDifferentialOracle -v` replays it.
//
// Two scenario families keep the outcome deterministic despite wake-ups:
//
//   - WakeSingle + FIFO with per-method capacity/token guards: each wake
//     releases exactly one caller, chosen by sticky-ticket FIFO, so the
//     admission order is a pure function of the schedule. alpha and beta
//     are additionally grouped into one admission domain (exercising the
//     shared-domain code path) while keeping independent guards.
//   - WakeBroadcast with an all-or-nothing gate shared by the grouped
//     {alpha, beta}: when the gate opens every waiter admits, when it is
//     closed every arrival parks — no partial capacity to race for.
//
// The omega method is guarded (on and off) by a non-Waker aspect, so its
// completions exercise the conservative wake-everything path across all
// domains. The veneer layer appears and disappears mid-schedule, proving
// admission receipts outlive RemoveLayer identically in both
// implementations. The psi method carries a fully NonBlocking stack, so
// schedules mix the sharded moderator's lock-free fast path (and its
// fallbacks: active waiters, the impure veneer) with the guarded mutex
// path, replayed against the always-locked Reference.
//
// The kappa method is the guarded-fast family: a mixed stack — NonBlocking
// audits sandwiching a self-waking synchronization guard — that is
// optimistic-eligible on the sharded side. Uncontended kappa admissions
// commit through the seqlock guard cell without the domain mutex, while
// parked waiters anywhere force the same begins onto the mutex path, so
// every schedule races the optimistic protocol's gates (waiter check,
// cell acquisition, verdict handoff) against parking, cancellation and
// layer churn — under exact hook-trace comparison with the
// Reference, which never has an optimistic path at all.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/aspect"
)

const diffIdxAttr = "diff-idx"

type diffResult struct {
	adm *Admission
	err error
}

type diffCall struct {
	idx    int
	inv    *aspect.Invocation
	cancel context.CancelFunc
	adm    *Admission
	done   chan diffResult
}

// diffGuards is the aspect-owned state of one scenario instance. Hooks
// mutate it under the implementation's admission locking; the harness only
// reads it at quiescence.
type diffGuards struct {
	UsedAlpha int
	UsedBeta  int
	UsedKappa int
	Tokens    int
	Open      bool
}

type diffConfig struct {
	mode          WakeMode
	capAlpha      int
	allMethods    []string
	beginMethods  []string
	veneerMethods []string
}

func newDiffConfig(mode WakeMode, rng *rand.Rand) diffConfig {
	cfg := diffConfig{mode: mode, capAlpha: 1 + rng.Intn(2)}
	if mode == WakeSingle {
		cfg.allMethods = []string{"alpha", "beta", "gamma", "delta", "omega", "refill", "psi", "kappa"}
		cfg.beginMethods = []string{"alpha", "alpha", "beta", "gamma", "gamma", "delta", "omega", "psi", "psi", "kappa", "kappa"}
		cfg.veneerMethods = []string{"alpha", "gamma", "psi", "kappa"}
	} else {
		cfg.allMethods = []string{"alpha", "beta", "delta", "omega", "toggle", "psi", "kappa"}
		cfg.beginMethods = []string{"alpha", "alpha", "beta", "beta", "delta", "omega", "psi", "psi", "kappa", "kappa"}
		cfg.veneerMethods = []string{"alpha", "beta", "psi", "kappa"}
	}
	return cfg
}

// rawAudit deliberately does NOT implement aspect.Waker: invocations it
// guards take the moderator's conservative wake-everything path.
type rawAudit struct{ s *diffScenario }

func (r *rawAudit) Name() string      { return "raw-audit" }
func (r *rawAudit) Kind() aspect.Kind { return aspect.KindAudit }
func (r *rawAudit) Precondition(inv *aspect.Invocation) aspect.Verdict {
	r.s.trace(inv, "resume:raw-audit")
	return aspect.Resume
}
func (r *rawAudit) Postaction(inv *aspect.Invocation) { r.s.trace(inv, "post:raw-audit") }

type diffScenario struct {
	t    *testing.T
	tag  string
	impl Admitter
	cfg  diffConfig

	inflight map[int]*diffCall // begun, Preactivation not yet returned
	admitted map[int]*diffCall // admitted, awaiting Postactivation
	outcomes map[int]string    // terminal outcome per invocation index

	g diffGuards

	raw    *rawAudit
	veneer *aspect.Func

	trMu   sync.Mutex
	traces map[int][]string
}

func (s *diffScenario) trace(inv *aspect.Invocation, event string) {
	idx, ok := inv.Attr(diffIdxAttr).(int)
	if !ok {
		return
	}
	s.trMu.Lock()
	s.traces[idx] = append(s.traces[idx], event)
	s.trMu.Unlock()
}

// capSem is a per-method counting semaphore guard (deterministic under
// WakeSingle: one release wakes one FIFO waiter).
func (s *diffScenario) capSem(name, self string, capn int, used *int) *aspect.Func {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if *used >= capn {
				s.trace(inv, "block:"+name)
				return aspect.Block
			}
			*used++
			s.trace(inv, "resume:"+name)
			return aspect.Resume
		},
		Post: func(inv *aspect.Invocation) {
			*used--
			s.trace(inv, "post:"+name)
		},
		CancelFn: func(inv *aspect.Invocation) {
			*used--
			s.trace(inv, "cancel:"+name)
		},
		WakeList: []string{self},
	}
}

func newDiffScenario(t *testing.T, tag string, impl Admitter, cfg diffConfig) *diffScenario {
	t.Helper()
	s := &diffScenario{
		t:        t,
		tag:      tag,
		impl:     impl,
		cfg:      cfg,
		inflight: make(map[int]*diffCall),
		admitted: make(map[int]*diffCall),
		outcomes: make(map[int]string),
		traces:   make(map[int][]string),
	}
	s.raw = &rawAudit{s: s}
	s.veneer = &aspect.Func{
		AspectName: "veneer-trace",
		AspectKind: aspect.KindMetrics,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			s.trace(inv, "resume:veneer-trace")
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:veneer-trace") },
		CancelFn: func(inv *aspect.Invocation) { s.trace(inv, "cancel:veneer-trace") },
	}

	// alpha and beta share one admission domain but keep independent
	// guards, so WakeSingle outcomes stay a pure function of the schedule.
	if err := impl.GroupMethods("alpha", "beta"); err != nil {
		t.Fatalf("%s: group: %v", tag, err)
	}
	must := func(err error) {
		if err != nil {
			t.Fatalf("%s: setup: %v", tag, err)
		}
	}
	if cfg.mode == WakeSingle {
		must(impl.Register("alpha", aspect.KindSynchronization, s.capSem("cap-alpha", "alpha", cfg.capAlpha, &s.g.UsedAlpha)))
		must(impl.Register("beta", aspect.KindSynchronization, s.capSem("cap-beta", "beta", 1, &s.g.UsedBeta)))
		must(impl.Register("gamma", aspect.KindSynchronization, &aspect.Func{
			AspectName: "token-gate",
			AspectKind: aspect.KindSynchronization,
			Pre: func(inv *aspect.Invocation) aspect.Verdict {
				if s.g.Tokens == 0 {
					s.trace(inv, "block:token-gate")
					return aspect.Block
				}
				s.g.Tokens--
				s.trace(inv, "resume:token-gate")
				return aspect.Resume
			},
			Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:token-gate") },
			WakeList: []string{"gamma"},
		}))
		// refill's wake list spans gamma: registering it auto-groups
		// {gamma, refill} into one domain on the sharded implementation.
		must(impl.Register("refill", aspect.KindScheduling, &aspect.Func{
			AspectName: "refill-ctl",
			AspectKind: aspect.KindScheduling,
			Pre: func(inv *aspect.Invocation) aspect.Verdict {
				s.trace(inv, "resume:refill-ctl")
				return aspect.Resume
			},
			Post: func(inv *aspect.Invocation) {
				s.g.Tokens++
				s.trace(inv, "post:refill-ctl")
			},
			WakeList: []string{"gamma", "refill"},
		}))
	} else {
		gate := &aspect.Func{
			AspectName: "gate",
			AspectKind: aspect.KindSynchronization,
			Pre: func(inv *aspect.Invocation) aspect.Verdict {
				if !s.g.Open {
					s.trace(inv, "block:gate")
					return aspect.Block
				}
				s.trace(inv, "resume:gate")
				return aspect.Resume
			},
			Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:gate") },
			WakeList: []string{"alpha", "beta"},
		}
		must(impl.Register("alpha", aspect.KindSynchronization, gate))
		must(impl.Register("beta", aspect.KindSynchronization, gate))
		must(impl.Register("toggle", aspect.KindScheduling, &aspect.Func{
			AspectName: "toggle-ctl",
			AspectKind: aspect.KindScheduling,
			Pre: func(inv *aspect.Invocation) aspect.Verdict {
				s.trace(inv, "resume:toggle-ctl")
				return aspect.Resume
			},
			Post: func(inv *aspect.Invocation) {
				s.g.Open, _ = inv.Arg(0).(bool)
				s.trace(inv, "post:toggle-ctl")
			},
			WakeList: []string{"alpha", "beta", "toggle", "kappa"},
		}))
	}
	// kappa: the guarded-fast stack. NonBlocking audits around one
	// synchronization guard whose wake list targets only kappa itself, so
	// the sharded implementation's compiler marks the plan
	// optimistic-eligible: uncontended begins commit under the seqlock
	// guard cell, contended ones fall back to the domain mutex — both
	// against the Reference's single always-locked path. Under WakeSingle
	// the guard is a capacity-1 semaphore (FIFO-deterministic); under
	// WakeBroadcast it is an all-or-nothing view of the shared gate state
	// (toggle-ctl wakes kappa when it flips), so outcomes stay a pure
	// function of the schedule in both modes.
	must(impl.Register("kappa", aspect.KindAudit, &aspect.Func{
		AspectName:      "kappa-audit",
		AspectKind:      aspect.KindAudit,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			s.trace(inv, "resume:kappa-audit")
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:kappa-audit") },
		CancelFn: func(inv *aspect.Invocation) { s.trace(inv, "cancel:kappa-audit") },
	}))
	if cfg.mode == WakeSingle {
		must(impl.Register("kappa", aspect.KindSynchronization, s.capSem("cap-kappa", "kappa", 1, &s.g.UsedKappa)))
	} else {
		must(impl.Register("kappa", aspect.KindSynchronization, &aspect.Func{
			AspectName: "gate-kappa",
			AspectKind: aspect.KindSynchronization,
			Pre: func(inv *aspect.Invocation) aspect.Verdict {
				if !s.g.Open {
					s.trace(inv, "block:gate-kappa")
					return aspect.Block
				}
				s.trace(inv, "resume:gate-kappa")
				return aspect.Resume
			},
			Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:gate-kappa") },
			WakeList: []string{"kappa"},
		}))
	}
	must(impl.Register("kappa", aspect.KindMetrics, &aspect.Func{
		AspectName:      "kappa-metrics",
		AspectKind:      aspect.KindMetrics,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			s.trace(inv, "resume:kappa-metrics")
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:kappa-metrics") },
		CancelFn: func(inv *aspect.Invocation) { s.trace(inv, "cancel:kappa-metrics") },
	}))
	// delta: the probe admits first, then the aborter may reject the
	// invocation — rolling the probe's admission back via Cancel.
	must(impl.Register("delta", aspect.KindAudit, &aspect.Func{
		AspectName: "probe",
		AspectKind: aspect.KindAudit,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			s.trace(inv, "resume:probe")
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:probe") },
		CancelFn: func(inv *aspect.Invocation) { s.trace(inv, "cancel:probe") },
	}))
	must(impl.Register("delta", aspect.KindAuthentication, &aspect.Func{
		AspectName: "aborter",
		AspectKind: aspect.KindAuthentication,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if flag, _ := inv.Arg(0).(bool); flag {
				s.trace(inv, "abort:aborter")
				return aspect.Abort
			}
			s.trace(inv, "resume:aborter")
			return aspect.Resume
		},
		Post: func(inv *aspect.Invocation) { s.trace(inv, "post:aborter") },
	}))
	// psi: a fully pure stack — every guard declares NonBlocking, so the
	// sharded implementation may admit it on the lock-free fast path
	// (when nothing is parked) while the Reference always takes its one
	// mutex. Every observable must still agree, including rollback order
	// when the pure gate aborts, and the veneer layer (whose trace aspect
	// is NOT NonBlocking) toggles the plan between pure and impure
	// mid-schedule.
	must(impl.Register("psi", aspect.KindAudit, &aspect.Func{
		AspectName:      "pure-audit",
		AspectKind:      aspect.KindAudit,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			s.trace(inv, "resume:pure-audit")
			return aspect.Resume
		},
		Post:     func(inv *aspect.Invocation) { s.trace(inv, "post:pure-audit") },
		CancelFn: func(inv *aspect.Invocation) { s.trace(inv, "cancel:pure-audit") },
	}))
	must(impl.Register("psi", aspect.KindAuthentication, &aspect.Func{
		AspectName:      "pure-gate",
		AspectKind:      aspect.KindAuthentication,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if flag, _ := inv.Arg(0).(bool); flag {
				s.trace(inv, "abort:pure-gate")
				return aspect.Abort
			}
			s.trace(inv, "resume:pure-gate")
			return aspect.Resume
		},
		Post: func(inv *aspect.Invocation) { s.trace(inv, "post:pure-gate") },
	}))
	return s
}

func (s *diffScenario) begin(idx int, method string, flag bool) {
	ctx, cancel := context.WithCancel(context.Background())
	inv := aspect.NewInvocation(ctx, "diff", method, []any{flag})
	inv.SetAttr(diffIdxAttr, idx)
	c := &diffCall{idx: idx, inv: inv, cancel: cancel, done: make(chan diffResult, 1)}
	s.inflight[idx] = c
	go func() {
		adm, err := s.impl.Preactivation(inv)
		c.done <- diffResult{adm: adm, err: err}
	}()
}

func (s *diffScenario) finish(idx int) {
	c := s.admitted[idx]
	if c == nil {
		s.t.Fatalf("%s: finish(%d): not admitted", s.tag, idx)
	}
	s.impl.Postactivation(c.inv, c.adm)
	delete(s.admitted, idx)
	s.outcomes[idx] = "completed"
	c.cancel()
}

func (s *diffScenario) cancelParked(idx int) {
	c := s.inflight[idx]
	if c == nil {
		s.t.Fatalf("%s: cancel(%d): not in flight", s.tag, idx)
	}
	c.cancel()
	r := <-c.done
	delete(s.inflight, idx)
	if r.err == nil {
		// The wake raced the cancellation and admitted the caller; keep
		// the receipt so the ledger still balances. The cross-impl
		// comparison will catch any divergence.
		c.adm = r.adm
		s.admitted[idx] = c
		return
	}
	s.outcomes[idx] = classifyErr(r.err)
}

// invokeNow runs a never-blocking control invocation synchronously.
func (s *diffScenario) invokeNow(idx int, method string, args []any) {
	inv := aspect.NewInvocation(context.Background(), "diff", method, args)
	inv.SetAttr(diffIdxAttr, idx)
	adm, err := s.impl.Preactivation(inv)
	if err != nil {
		s.t.Fatalf("%s: invokeNow(%s): %v", s.tag, method, err)
	}
	s.impl.Postactivation(inv, adm)
	s.outcomes[idx] = "completed"
}

func classifyErr(err error) string {
	switch {
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, aspect.ErrAborted):
		return "aborted"
	default:
		return "error"
	}
}

func (s *diffScenario) drainResults() {
	for idx, c := range s.inflight {
		select {
		case r := <-c.done:
			delete(s.inflight, idx)
			if r.err != nil {
				s.outcomes[idx] = classifyErr(r.err)
				continue
			}
			c.adm = r.adm
			s.admitted[idx] = c
		default:
		}
	}
}

func (s *diffScenario) parkedTotal() int {
	n := 0
	for _, meth := range s.cfg.allMethods {
		n += s.impl.Waiting(meth)
	}
	return n
}

// quiesce waits until every in-flight caller is parked on a wait queue (or
// has delivered its result): the implementation is then at rest and every
// observable is stable.
func (s *diffScenario) quiesce(seed int64) {
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; ; i++ {
		s.drainResults()
		if len(s.inflight) == s.parkedTotal() {
			runtime.Gosched()
			s.drainResults()
			if len(s.inflight) == s.parkedTotal() {
				return
			}
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("seed %d: %s never quiesced (inflight=%d parked=%d)",
				seed, s.tag, len(s.inflight), s.parkedTotal())
		}
		if i > 200 {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func sortedCallKeys(m map[int]*diffCall) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func pickCall(m map[int]*diffCall, sel int) (int, bool) {
	if len(m) == 0 {
		return 0, false
	}
	keys := sortedCallKeys(m)
	return keys[sel%len(keys)], true
}

func compareScenarios(t *testing.T, seed int64, step int, a, b *diffScenario) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d step %d: %s", seed, step, fmt.Sprintf(format, args...))
	}
	for _, meth := range a.cfg.allMethods {
		if aw, bw := a.impl.Waiting(meth), b.impl.Waiting(meth); aw != bw {
			fail("Waiting(%s): sharded=%d reference=%d", meth, aw, bw)
		}
	}
	if ak, bk := sortedCallKeys(a.inflight), sortedCallKeys(b.inflight); !reflect.DeepEqual(ak, bk) {
		fail("parked sets diverge: sharded=%v reference=%v", ak, bk)
	}
	if ak, bk := sortedCallKeys(a.admitted), sortedCallKeys(b.admitted); !reflect.DeepEqual(ak, bk) {
		fail("admitted sets diverge: sharded=%v reference=%v", ak, bk)
	}
	if !reflect.DeepEqual(a.outcomes, b.outcomes) {
		fail("outcomes diverge: sharded=%v reference=%v", a.outcomes, b.outcomes)
	}
	if a.g != b.g {
		fail("guard state diverges: sharded=%+v reference=%+v", a.g, b.g)
	}
	if as, bs := a.impl.Stats(), b.impl.Stats(); as != bs {
		fail("admission ledgers diverge: sharded=%+v reference=%+v", as, bs)
	}
	if ad, bd := a.impl.Describe(), b.impl.Describe(); !reflect.DeepEqual(ad, bd) {
		fail("Describe diverges:\nsharded:   %+v\nreference: %+v", ad, bd)
	}
}

const (
	opBegin = iota
	opFinish
	opCancel
	opKick
	opControl // refill (single) / toggle (broadcast)
	opVeneer  // add or remove the transient veneer layer
	opOmega   // register or unregister the non-Waker audit on omega
	opKinds
)

type diffOp struct {
	kind   int
	method string
	flag   bool
	sel    int
}

func genSchedule(rng *rand.Rand, cfg diffConfig, n int) []diffOp {
	ops := make([]diffOp, n)
	for i := range ops {
		r := rng.Intn(93)
		op := diffOp{sel: rng.Intn(1 << 30), flag: rng.Intn(3) == 0}
		switch {
		case r < 36:
			op.kind = opBegin
			op.method = cfg.beginMethods[rng.Intn(len(cfg.beginMethods))]
		case r < 60:
			op.kind = opFinish
		case r < 70:
			op.kind = opCancel
		case r < 77:
			op.kind = opKick
			op.method = cfg.allMethods[rng.Intn(len(cfg.allMethods))]
		case r < 85:
			op.kind = opControl
			op.flag = rng.Intn(2) == 0
		case r < 90:
			op.kind = opVeneer
		default:
			op.kind = opOmega
		}
		ops[i] = op
	}
	return ops
}

// runDiffSchedule replays one seeded schedule against both implementations
// in lockstep and compares every observable after every op.
func runDiffSchedule(t *testing.T, seed int64, mode WakeMode) {
	t.Helper()
	runDiffScheduleCfg(t, seed, mode, nil, false)
}

// runDiffScheduleCfg is runDiffSchedule with a tweaked scenario config;
// extra options apply to the sharded implementation only.
func runDiffScheduleCfg(t *testing.T, seed int64, mode WakeMode, tweak func(*diffConfig), mutexRoute bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := newDiffConfig(mode, rng)
	if tweak != nil {
		tweak(&cfg)
	}

	sharded := New("diff", WithWakeMode(mode))
	if mutexRoute {
		forceMutexRoute(sharded)
	}
	a := newDiffScenario(t, "sharded", sharded, cfg)
	b := newDiffScenario(t, "reference", NewReference("diff", WithWakeMode(mode)), cfg)

	ops := genSchedule(rng, cfg, 20+rng.Intn(21))
	nextIdx := 0
	veneerOn, omegaOn := false, false

	apply := func(step int, f func(s *diffScenario)) {
		f(a)
		f(b)
		a.quiesce(seed)
		b.quiesce(seed)
		compareScenarios(t, seed, step, a, b)
	}

	for step, op := range ops {
		switch op.kind {
		case opBegin:
			idx := nextIdx
			nextIdx++
			apply(step, func(s *diffScenario) { s.begin(idx, op.method, op.flag) })
		case opFinish:
			idx, ok := pickCall(a.admitted, op.sel)
			if !ok {
				continue
			}
			apply(step, func(s *diffScenario) { s.finish(idx) })
		case opCancel:
			idx, ok := pickCall(a.inflight, op.sel)
			if !ok {
				continue
			}
			apply(step, func(s *diffScenario) { s.cancelParked(idx) })
		case opKick:
			apply(step, func(s *diffScenario) { s.impl.Kick(op.method) })
		case opControl:
			idx := nextIdx
			nextIdx++
			if mode == WakeSingle {
				apply(step, func(s *diffScenario) { s.invokeNow(idx, "refill", nil) })
			} else {
				apply(step, func(s *diffScenario) { s.invokeNow(idx, "toggle", []any{op.flag}) })
			}
		case opVeneer:
			if !veneerOn {
				apply(step, func(s *diffScenario) {
					if err := s.impl.AddLayer("veneer", Outermost); err != nil {
						t.Fatalf("seed %d: %s: add veneer: %v", seed, s.tag, err)
					}
					for _, meth := range cfg.veneerMethods {
						if err := s.impl.RegisterIn("veneer", meth, aspect.KindMetrics, s.veneer); err != nil {
							t.Fatalf("seed %d: %s: register veneer: %v", seed, s.tag, err)
						}
					}
				})
			} else {
				// In-flight receipts keep the removed layer's aspects:
				// their postactions must still run (checked via traces).
				apply(step, func(s *diffScenario) {
					if err := s.impl.RemoveLayer("veneer"); err != nil {
						t.Fatalf("seed %d: %s: remove veneer: %v", seed, s.tag, err)
					}
				})
			}
			veneerOn = !veneerOn
		case opOmega:
			if !omegaOn {
				apply(step, func(s *diffScenario) {
					if err := s.impl.Register("omega", aspect.KindAudit, s.raw); err != nil {
						t.Fatalf("seed %d: %s: register omega: %v", seed, s.tag, err)
					}
				})
			} else {
				apply(step, func(s *diffScenario) {
					if _, err := s.impl.Unregister(BaseLayer, "omega", aspect.KindAudit); err != nil {
						t.Fatalf("seed %d: %s: unregister omega: %v", seed, s.tag, err)
					}
				})
			}
			omegaOn = !omegaOn
		}
	}

	// Drain: cancel every parked caller, then complete every admission.
	for len(a.inflight) > 0 {
		idx := sortedCallKeys(a.inflight)[0]
		apply(len(ops), func(s *diffScenario) { s.cancelParked(idx) })
	}
	for len(a.admitted) > 0 {
		idx := sortedCallKeys(a.admitted)[0]
		apply(len(ops)+1, func(s *diffScenario) { s.finish(idx) })
	}

	// Final ledger and hook-trace equality: same admissions, blocks,
	// aborts, completions; same onion ordering and rollback per
	// invocation.
	if as, bs := a.impl.Stats(), b.impl.Stats(); as != bs {
		t.Fatalf("seed %d: final ledgers diverge: sharded=%+v reference=%+v", seed, as, bs)
	}
	a.trMu.Lock()
	b.trMu.Lock()
	equal := reflect.DeepEqual(a.traces, b.traces)
	a.trMu.Unlock()
	b.trMu.Unlock()
	if !equal {
		t.Fatalf("seed %d: hook traces diverge:\nsharded:   %v\nreference: %v",
			seed, a.traces, b.traces)
	}
}

func diffScheduleCount() int {
	if testing.Short() {
		return 60
	}
	return 520 // ×2 modes ⇒ >1000 schedules per full run
}

func TestDifferentialOracleSingleWake(t *testing.T) {
	t.Parallel()
	for i := 0; i < diffScheduleCount(); i++ {
		seed := int64(0xC0FFEE) + int64(i)
		runDiffSchedule(t, seed, WakeSingle)
	}
}

func TestDifferentialOracleBroadcastWake(t *testing.T) {
	t.Parallel()
	for i := 0; i < diffScheduleCount(); i++ {
		seed := int64(0xBEEF00) + int64(i)
		runDiffSchedule(t, seed, WakeBroadcast)
	}
}

// TestDifferentialOracleGuardedFast skews the begin distribution toward
// the guarded-fast kappa stack (with psi mixed in, so pure fast-path and
// optimistic guarded admissions race the same parked waiters) across both
// wake modes. Together with the two base oracles this puts the optimistic
// guard-cell protocol under 1500+ lockstep schedules per full run.
func TestDifferentialOracleGuardedFast(t *testing.T) {
	t.Parallel()
	kappaHeavy := func(cfg *diffConfig) {
		cfg.beginMethods = []string{"kappa", "kappa", "kappa", "kappa", "psi", "alpha", "kappa", "psi", "kappa"}
	}
	for i := 0; i < diffScheduleCount(); i++ {
		mode := WakeSingle
		if i%2 == 1 {
			mode = WakeBroadcast
		}
		runDiffScheduleCfg(t, int64(0xFACADE)+int64(i), mode, kappaHeavy, false)
	}
}

// TestDifferentialOracleMutexTier is the mutex-route oracle family: the
// sharded side runs under a discard tracer, so every begin — contended or
// not, guarded or pure — takes the blocking domain mutex, the route every
// optimistic fallback ends on, against the Reference.
func TestDifferentialOracleMutexTier(t *testing.T) {
	t.Parallel()
	guardHeavy := func(cfg *diffConfig) {
		cfg.beginMethods = append(cfg.beginMethods, "kappa", "alpha", "kappa")
	}
	for i := 0; i < diffScheduleCount(); i++ {
		mode := WakeSingle
		if i%2 == 1 {
			mode = WakeBroadcast
		}
		runDiffScheduleCfg(t, int64(0xBA7C4)+int64(i), mode, guardHeavy, true)
	}
}

// TestDifferentialOracleQuick drives the same lockstep oracle through
// testing/quick with arbitrary generated seeds; a failing seed appears in
// the subtest name for replay.
func TestDifferentialOracleQuick(t *testing.T) {
	t.Parallel()
	prop := func(seed int64, broadcast bool) bool {
		mode := WakeSingle
		if broadcast {
			mode = WakeBroadcast
		}
		return t.Run(fmt.Sprintf("seed=%d,mode=%v", seed, mode), func(st *testing.T) {
			runDiffSchedule(st, seed, mode)
		})
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(20260806))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialConcurrentLedgers is the metamorphic tier of the oracle:
// the SAME fully concurrent workload (64 goroutines over grouped and
// independent methods with live layer churn) runs against both
// implementations at full speed — no lockstep — and the outcome ledgers
// must still agree: identical admissions, identical (schedule-determined)
// aborts, balanced completions, and zero leaked guard state.
func TestDifferentialConcurrentLedgers(t *testing.T) {
	t.Parallel()
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		shard := runConcurrentWorkload(t, seed, func() Admitter { return New("conc") })
		ref := runConcurrentWorkload(t, seed, func() Admitter { return NewReference("conc") })
		if shard != ref {
			t.Fatalf("seed %d: concurrent ledgers diverge: sharded=%+v reference=%+v", seed, shard, ref)
		}
	}
}

// TestDifferentialConcurrentLedgersMutexTier reruns the metamorphic tier
// with the mutex route forced on the sharded side: the full-speed
// 64-goroutine workload piles every op up on the domain mutexes, and the
// outcome ledgers must still match the Reference exactly.
func TestDifferentialConcurrentLedgersMutexTier(t *testing.T) {
	t.Parallel()
	seeds := []int64{11, 12, 13}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		shard := runConcurrentWorkload(t, seed, func() Admitter { return forceMutexRoute(New("conc")) })
		ref := runConcurrentWorkload(t, seed, func() Admitter { return NewReference("conc") })
		if shard != ref {
			t.Fatalf("seed %d: mutex-tier concurrent ledgers diverge: sharded=%+v reference=%+v", seed, shard, ref)
		}
	}
}

type concurrentLedger struct {
	Admissions  uint64
	Aborts      uint64
	Completions uint64
	LeakedPair  int
	LeakedSolo  int
	// PureHits counts pure-stack preconditions (schedule-determined, so
	// it must agree exactly); LeakedPure is the pure aspect's pre/post
	// balance, which must drain to zero.
	PureHits   uint64
	LeakedPure int64
}

func runConcurrentWorkload(t *testing.T, seed int64, mk func() Admitter) concurrentLedger {
	t.Helper()
	const (
		goroutines = 64
		perG       = 40
	)
	impl := mk()
	var pairUsed, soloUsed int
	pairSem := &aspect.Func{
		AspectName: "pair-sem",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if pairUsed >= 4 {
				return aspect.Block
			}
			pairUsed++
			return aspect.Resume
		},
		Post:     func(*aspect.Invocation) { pairUsed-- },
		CancelFn: func(*aspect.Invocation) { pairUsed-- },
		WakeList: []string{"put", "get"}, // auto-groups {put, get}
	}
	soloSem := &aspect.Func{
		AspectName: "solo-sem",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if soloUsed >= 2 {
				return aspect.Block
			}
			soloUsed++
			return aspect.Resume
		},
		Post:     func(*aspect.Invocation) { soloUsed-- },
		CancelFn: func(*aspect.Invocation) { soloUsed-- },
		WakeList: []string{"solo"},
	}
	aborter := &aspect.Func{
		AspectName: "aborter",
		AspectKind: aspect.KindAuthentication,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if flag, _ := inv.Arg(0).(bool); flag {
				return aspect.Abort
			}
			return aspect.Resume
		},
	}
	// "pure" runs a NonBlocking-only stack at full concurrency: the
	// sharded implementation races its lock-free fast path against the
	// mutex path (waiters come and go on the sem-guarded methods), and
	// the hit/balance counters must still match the Reference exactly.
	var pureHits atomic.Uint64
	var pureBalance atomic.Int64
	pure := &aspect.Func{
		AspectName:      "pure-count",
		AspectKind:      aspect.KindAudit,
		NonBlockingFlag: true,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			pureHits.Add(1)
			pureBalance.Add(1)
			return aspect.Resume
		},
		Post:     func(*aspect.Invocation) { pureBalance.Add(-1) },
		CancelFn: func(*aspect.Invocation) { pureBalance.Add(-1) },
	}
	for _, reg := range []struct {
		method string
		kind   aspect.Kind
		a      aspect.Aspect
	}{
		{"put", aspect.KindSynchronization, pairSem},
		{"get", aspect.KindSynchronization, pairSem},
		{"solo", aspect.KindSynchronization, soloSem},
		{"reject", aspect.KindAuthentication, aborter},
		{"pure", aspect.KindAudit, pure},
	} {
		if err := impl.Register(reg.method, reg.kind, reg.a); err != nil {
			t.Fatal(err)
		}
	}

	// Pre-generate each worker's op list so the abort count is a pure
	// function of the seed — identical for both implementations.
	methods := []string{"put", "get", "solo", "free", "reject", "pure"}
	rng := rand.New(rand.NewSource(seed))
	plans := make([][]diffOp, goroutines)
	for g := range plans {
		plan := make([]diffOp, perG)
		for k := range plan {
			plan[k] = diffOp{method: methods[rng.Intn(len(methods))], flag: rng.Intn(4) == 0}
		}
		plans[g] = plan
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		noop := aspect.New("transient", aspect.KindMetrics, nil, nil)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := impl.AddLayer("transient", Outermost); err != nil {
				t.Error(err)
				return
			}
			if err := impl.RegisterIn("transient", "put", aspect.KindMetrics, noop); err != nil {
				t.Error(err)
				return
			}
			if err := impl.RemoveLayer("transient"); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(plan []diffOp) {
			defer wg.Done()
			for _, op := range plan {
				abortable := op.method == "reject" && op.flag
				inv := aspect.NewInvocation(context.Background(), "conc", op.method, []any{abortable})
				adm, err := impl.Preactivation(inv)
				if err != nil {
					if !abortable {
						t.Errorf("unexpected preactivation error on %s: %v", op.method, err)
					}
					continue
				}
				// Hold the admission across a yield so callers overlap and
				// the capacity guards really park, even on one processor.
				runtime.Gosched()
				impl.Postactivation(inv, adm)
			}
		}(plans[g])
	}
	if !waitGroupWithin(&wg, 60*time.Second) {
		t.Fatalf("seed %d: workload stalled with callers parked: %+v", seed, impl.Stats())
	}
	close(stop)
	churn.Wait()
	if t.Failed() {
		t.FailNow()
	}
	st := impl.Stats()
	return concurrentLedger{
		Admissions:  st.Admissions,
		Aborts:      st.Aborts,
		Completions: st.Completions,
		LeakedPair:  pairUsed,
		LeakedSolo:  soloUsed,
		PureHits:    pureHits.Load(),
		LeakedPure:  pureBalance.Load(),
	}
}
