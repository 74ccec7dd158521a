// Package schedtest is a deterministic cooperative scheduler that turns
// the moderator's randomized differential oracle into an exhaustive one at
// small bounds: it enumerates EVERY interleaving of a small set of caller
// and operator threads — optimistic admit, mutex admit, park, wake,
// cancel, kick, republish — over small guarded plan sets, executing each
// interleaving against the sharded Moderator and the single-mutex
// Reference in lockstep and cross-checking every intermediate and
// terminal state.
//
// # Why this is sound
//
// The explorer controls the only source of nondeterminism the framework
// exposes to a quiesced system: which actor acts next. After every step it
// drives both implementations to quiescence (every issued pre-activation
// has either returned or parked) before comparing observables, so one
// logical step's internal racing — wake cascades re-evaluating guards —
// has fully settled before the next choice point. Scenarios are written so
// cascades themselves are deterministic, the same discipline the
// randomized oracle relies on: capacity guards use WakeSingle with FIFO
// queues (exactly one parked caller is released, in sticky-ticket order),
// and broadcast scenarios use all-or-nothing gates (every parked caller
// admits when the gate opens). Within those families, a schedule prefix
// uniquely determines both implementations' observable state, so
// depth-first replay from the root visits every reachable state of the
// bounded system — including every interleaving of the optimistic
// fast-path gates with parking and recomposition — and any divergence
// between the two implementations is reported with the exact schedule
// that produced it.
//
// # What is compared
//
// After every step (and at every terminal after draining): per-method
// Waiting counts, the Stats counters, scenario guard-state probes (guard
// occupancy and per-hook invocation counts, which catch double-evaluated
// preconditions), and the classified outcome of every returned call.
// Guard-hook counts are the load-bearing check for the optimistic path's
// verdict handoff: re-running a blocked layer's preconditions under the
// mutex after the optimistic evaluation already ran them would show up as
// a count divergence from the Reference.
package schedtest

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/aspect"
	"repro/internal/moderator"
)

// OpKind names one schedulable action of a thread.
type OpKind int

const (
	// OpBegin issues a pre-activation of Op.Method. The thread is blocked
	// (cannot take further steps) while the call is parked.
	OpBegin OpKind = iota + 1
	// OpFinish runs post-activation for the thread's admitted call.
	// A no-op if the call aborted.
	OpFinish
	// OpCancel cancels the thread's in-flight (parked) call. Enabled even
	// while the thread is blocked: it models the caller's own deadline.
	// A no-op if the call already returned.
	OpCancel
	// OpKick wakes every caller blocked on Op.Method.
	OpKick
	// OpChurn republishes the composition: odd occurrences register a
	// NonBlocking audit aspect for Op.Method in a dedicated churn layer
	// (creating it), even occurrences remove the layer again.
	OpChurn
)

func (k OpKind) String() string {
	switch k {
	case OpBegin:
		return "begin"
	case OpFinish:
		return "finish"
	case OpCancel:
		return "cancel"
	case OpKick:
		return "kick"
	case OpChurn:
		return "churn"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one schedulable action.
type Op struct {
	Kind   OpKind
	Method string
}

// Thread is one sequential actor: a caller issuing begin/finish/cancel
// sequences, or an operator issuing kicks and recompositions.
type Thread []Op

// Scenario is one bounded system to explore exhaustively.
type Scenario struct {
	Name string
	// Options configure both implementations (wake mode, policy).
	Options []moderator.Option
	// ShardedTracer, when set, is installed on the sharded side only. An
	// installed tracer keeps every admission off the lock-free routes, so a
	// discarding one explores the mutex route from the first instruction.
	ShardedTracer moderator.Tracer
	// Build registers the aspect stacks on one implementation and returns
	// a probe reading its guard state and hook counts. It is called once
	// per implementation per replay; probes of the two implementations
	// are compared element-wise.
	Build func(m moderator.Admitter) (probe func() []int64, err error)
	// Methods lists the methods whose Waiting counts are compared (and
	// that OpKick/OpChurn may reference).
	Methods []string
	// Threads are the actors whose interleavings are enumerated.
	Threads []Thread
}

// Stats summarizes one exhaustive exploration.
type Stats struct {
	Terminals int // complete interleavings executed
	Steps     int // scheduled steps across all replays (incl. replay prefixes)
	MaxDepth  int // longest schedule
}

// Divergence is returned (wrapped) when the implementations disagree; it
// carries the exact schedule prefix that produced the disagreement.
type Divergence struct {
	Scenario string
	Schedule []string
	Detail   string
}

func (d *Divergence) Error() string {
	return fmt.Sprintf("schedtest %s: divergence after %v: %s", d.Scenario, d.Schedule, d.Detail)
}

const (
	churnLayer   = "sched-churn"
	quiesceGrace = 10 * time.Second
)

// call tracks one issued pre-activation on one implementation.
type call struct {
	inv    *aspect.Invocation
	cancel context.CancelFunc
	done   chan struct{}
	adm    *moderator.Admission
	err    error
}

func (c *call) returned() bool {
	select {
	case <-c.done:
		return true
	default:
		return false
	}
}

// side is one implementation under exploration.
type side struct {
	m     moderator.Admitter
	probe func() []int64
	calls map[int]*call // thread index → outstanding call
	churn int
}

// world is one lockstep replay: both implementations plus per-thread
// progress.
type world struct {
	sc    *Scenario
	sides [2]*side // [0] sharded, [1] reference
	pc    []int    // per-thread program counter
}

func newWorld(sc *Scenario) (*world, error) {
	w := &world{sc: sc, pc: make([]int, len(sc.Threads))}
	sharded := moderator.New("sched", sc.Options...)
	if sc.ShardedTracer != nil {
		sharded.SetTracer(sc.ShardedTracer)
	}
	impls := [2]moderator.Admitter{sharded, moderator.NewReference("sched", sc.Options...)}
	for i, m := range impls {
		probe, err := sc.Build(m)
		if err != nil {
			return nil, fmt.Errorf("schedtest %s: build side %d: %w", sc.Name, i, err)
		}
		w.sides[i] = &side{m: m, probe: probe, calls: make(map[int]*call)}
	}
	return w, nil
}

// enabled lists the threads that can take their next op right now: the
// thread has ops left and is not blocked in a parked begin — except that
// OpCancel is allowed while parked (it is the only way a blocked caller
// acts, and it models its deadline firing).
func (w *world) enabled() []int {
	var out []int
	for t := range w.sc.Threads {
		i := w.pc[t]
		if i >= len(w.sc.Threads[t]) {
			continue
		}
		if c := w.sides[0].calls[t]; c != nil && !c.returned() {
			if w.sc.Threads[t][i].Kind != OpCancel {
				continue
			}
		}
		out = append(out, t)
	}
	return out
}

// step runs thread t's next op on both implementations, quiesces, and
// compares. The schedule so far is passed for diagnostics.
func (w *world) step(t int, schedule []string) error {
	op := w.sc.Threads[t][w.pc[t]]
	w.pc[t]++
	switch op.Kind {
	case OpBegin:
		for _, s := range w.sides {
			if c := s.calls[t]; c != nil && !c.returned() {
				return fmt.Errorf("schedtest %s: thread %d begins while a call is in flight", w.sc.Name, t)
			}
			ctx, cancel := context.WithCancel(context.Background())
			c := &call{cancel: cancel, done: make(chan struct{})}
			c.inv = aspect.NewInvocation(ctx, "sched", op.Method, nil)
			s.calls[t] = c
			go func(m moderator.Admitter, c *call) {
				c.adm, c.err = m.Preactivation(c.inv)
				close(c.done)
			}(s.m, c)
		}
	case OpFinish:
		for _, s := range w.sides {
			c := s.calls[t]
			if c == nil || !c.returned() {
				return fmt.Errorf("schedtest %s: thread %d finishes a call that is not admitted", w.sc.Name, t)
			}
			if c.err == nil {
				s.m.Postactivation(c.inv, c.adm)
			}
			c.cancel()
			delete(s.calls, t)
		}
	case OpCancel:
		// The explorer owns this scheduling point: a cancelled caller is
		// still counted by Waiting until it un-parks, so quiesce's
		// inflight == parked poll cannot tell "cancelled" from "parked".
		for _, s := range w.sides {
			if c := s.calls[t]; c != nil {
				c.cancel()
				if err := awaitReturn(c); err != nil {
					return w.diverge(schedule, fmt.Sprintf("%s thread %d: %v", s.m.Name(), t, err))
				}
			}
		}
	case OpKick:
		for _, s := range w.sides {
			s.m.Kick(op.Method)
		}
	case OpChurn:
		for _, s := range w.sides {
			s.churn++
			var err error
			if s.churn%2 == 1 {
				if err = s.m.AddLayer(churnLayer, moderator.Outermost); err == nil {
					err = s.m.RegisterIn(churnLayer, op.Method, aspect.KindMetrics, &aspect.Func{
						AspectName: "churn-audit", AspectKind: aspect.KindMetrics, NonBlockingFlag: true,
					})
				}
			} else {
				err = s.m.RemoveLayer(churnLayer)
			}
			if err != nil {
				return fmt.Errorf("schedtest %s: churn %d: %w", w.sc.Name, s.churn, err)
			}
		}
	default:
		return fmt.Errorf("schedtest %s: unknown op kind %v", w.sc.Name, op.Kind)
	}
	if err := w.quiesce(); err != nil {
		return w.diverge(schedule, err.Error())
	}
	return w.compare(schedule)
}

// quiesce waits until, on each side, every outstanding call has either
// returned or is parked (counted by Waiting), and the view is stable
// across consecutive observations.
func (w *world) quiesce() error {
	deadline := time.Now().Add(quiesceGrace)
	for _, s := range w.sides {
		stable := 0
		for stable < 3 {
			inflight := 0
			for _, c := range s.calls {
				if !c.returned() {
					inflight++
				}
			}
			parked := 0
			for _, meth := range w.sc.Methods {
				parked += s.m.Waiting(meth)
			}
			if inflight == parked {
				stable++
			} else {
				stable = 0
				if time.Now().After(deadline) {
					return fmt.Errorf("%s never quiesced: %d in flight, %d parked",
						s.m.Name(), inflight, parked)
				}
			}
			runtime.Gosched()
		}
	}
	return nil
}

// awaitReturn blocks until c's pre-activation has returned. The explorer
// calls it right after cancelling c, when the return is certain.
func awaitReturn(c *call) error {
	grace := time.NewTimer(quiesceGrace)
	defer grace.Stop()
	select {
	case <-c.done:
		return nil
	case <-grace.C:
		return errors.New("cancelled call never returned")
	}
}

// compare checks every observable of the two quiesced implementations.
func (w *world) compare(schedule []string) error {
	a, b := w.sides[0], w.sides[1]
	for _, meth := range w.sc.Methods {
		if wa, wb := a.m.Waiting(meth), b.m.Waiting(meth); wa != wb {
			return w.diverge(schedule, fmt.Sprintf("Waiting(%s): sharded=%d reference=%d", meth, wa, wb))
		}
	}
	if sa, sb := a.m.Stats(), b.m.Stats(); sa != sb {
		return w.diverge(schedule, fmt.Sprintf("stats: sharded=%+v reference=%+v", sa, sb))
	}
	pa, pb := a.probe(), b.probe()
	if len(pa) != len(pb) {
		return w.diverge(schedule, fmt.Sprintf("probe length: sharded=%d reference=%d", len(pa), len(pb)))
	}
	for i := range pa {
		if pa[i] != pb[i] {
			return w.diverge(schedule, fmt.Sprintf("probe[%d]: sharded=%d reference=%d (full: %v vs %v)",
				i, pa[i], pb[i], pa, pb))
		}
	}
	// Outcomes of returned calls.
	for t := range w.sc.Threads {
		ca, cb := a.calls[t], b.calls[t]
		if (ca == nil) != (cb == nil) {
			return w.diverge(schedule, fmt.Sprintf("thread %d call presence: sharded=%v reference=%v",
				t, ca != nil, cb != nil))
		}
		if ca == nil {
			continue
		}
		ra, rb := ca.returned(), cb.returned()
		if ra != rb {
			return w.diverge(schedule, fmt.Sprintf("thread %d returned: sharded=%v reference=%v", t, ra, rb))
		}
		if ra {
			oa, ob := classifyCall(ca), classifyCall(cb)
			if oa != ob {
				return w.diverge(schedule, fmt.Sprintf("thread %d outcome: sharded=%s reference=%s", t, oa, ob))
			}
		}
	}
	return nil
}

// drain cancels every parked call, finishes every admitted one, and
// re-compares the terminal state: guards must be balanced and the two
// implementations must agree on every final observable.
func (w *world) drain(schedule []string) error {
	for _, s := range w.sides {
		for _, c := range s.calls {
			c.cancel()
		}
	}
	// Every call must have returned before any admitted one is finished:
	// a finish's wake would otherwise race a parked call's cancel, and the
	// two sides may resolve that race differently.
	for _, s := range w.sides {
		for t, c := range s.calls {
			if err := awaitReturn(c); err != nil {
				return w.diverge(schedule, fmt.Sprintf("drain %s thread %d: %v", s.m.Name(), t, err))
			}
		}
	}
	for t := range w.sc.Threads {
		var outs [2]string
		live := false
		for i, s := range w.sides {
			c := s.calls[t]
			if c == nil {
				outs[i] = "none"
				continue
			}
			live = true
			outs[i] = classifyCall(c)
			if c.err == nil {
				s.m.Postactivation(c.inv, c.adm)
			}
			delete(s.calls, t)
		}
		if live && outs[0] != outs[1] {
			return w.diverge(schedule, fmt.Sprintf("drain thread %d: sharded=%s reference=%s", t, outs[0], outs[1]))
		}
	}
	if err := w.quiesce(); err != nil {
		return w.diverge(schedule, err.Error())
	}
	return w.compare(schedule)
}

func (w *world) diverge(schedule []string, detail string) error {
	return &Divergence{Scenario: w.sc.Name, Schedule: append([]string(nil), schedule...), Detail: detail}
}

func classifyCall(c *call) string {
	if c.err == nil {
		return "admitted"
	}
	return classifyErr(c.err)
}

func classifyErr(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	case errors.Is(err, aspect.ErrAborted):
		return "aborted"
	default:
		return "error"
	}
}

// Explore enumerates every interleaving of the scenario's threads by
// depth-first replay from the root, comparing both implementations after
// every step and at every drained terminal. It returns the exploration
// stats and the first divergence (or harness error) encountered.
func Explore(sc Scenario) (Stats, error) {
	var stats Stats
	labels := func(prefix []int) []string {
		out := make([]string, len(prefix))
		counts := make([]int, len(sc.Threads))
		for i, t := range prefix {
			op := sc.Threads[t][counts[t]]
			out[i] = fmt.Sprintf("T%d:%s", t, op.Kind)
			if op.Method != "" {
				out[i] += ":" + op.Method
			}
			counts[t]++
		}
		return out
	}
	var dfs func(prefix []int) error
	dfs = func(prefix []int) error {
		w, err := newWorld(&sc)
		if err != nil {
			return err
		}
		sched := labels(prefix)
		for i, t := range prefix {
			stats.Steps++
			if err := w.step(t, sched[:i+1]); err != nil {
				return err
			}
		}
		if len(prefix) > stats.MaxDepth {
			stats.MaxDepth = len(prefix)
		}
		next := w.enabled()
		if len(next) == 0 {
			stats.Terminals++
			return w.drain(sched)
		}
		for _, t := range next {
			child := append(append([]int(nil), prefix...), t)
			if err := dfs(child); err != nil {
				return err
			}
		}
		return nil
	}
	err := dfs(nil)
	return stats, err
}
