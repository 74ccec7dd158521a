package moderator

// Registration-time interference checking.
//
// RegisterIn is the one mutator that brings an aspect into a composition,
// and the sharded moderator runs the hooks of different admission domains
// under different mutexes — a pure stack under none at all. Three
// mechanically checkable classes of registration would make that unsound,
// and RegisterIn refuses each with a structured report before anything is
// stored:
//
//   - capability: the aspect declares NonBlocking — granting its stack the
//     lock-free route when its peers do too — while also declaring
//     behaviour only meaningful for blocking guards: a non-empty wake list
//     (wake fan-out is skipped on that route) or an Abandon hook (only
//     blocked callers abandon). The declaration contradicts itself;
//     admitting it could strand parked callers. Checked on the aspect
//     alone.
//
//   - wake-overlap: the aspect declares a wake span (aspect.Waker with a
//     non-empty list) that cannot be merged into one admission domain,
//     because two of the spanned domains already saw traffic
//     (ErrDomainActive). Its hooks would touch guard state across domain
//     mutexes. A span that can merge is merged (see RegisterIn).
//
//   - shared-guard: one stateful guard instance (synchronization or
//     scheduling kind, or wake-declaring, and not NonBlocking) is already
//     bound to a method in a different admission domain, counted after the
//     registration's own wake-span merge. Its hooks would mutate shared
//     guard state under two mutexes. Observational aspects (metrics,
//     audit, authentication) are exempt: sharing a passive instance across
//     domains is the normal veneer pattern. Any instance, of any kind and
//     in any layer, already bound to the registering method itself is
//     refused too: its hooks would run twice per call, and a stateful
//     guard would reserve twice.
//
// The Reference needs no checker: under its one mutex every method is one
// domain, and with no lock-free route a NonBlocking declaration has
// nothing to subvert. The differential oracle only registers compositions
// this checker accepts, so duplicates never reach it either.
//
// The taxonomy follows the "invasive pattern" classification literature:
// these are exactly the compositions where an independently authored
// aspect observably perturbs concerns it never named.

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"

	"repro/internal/aspect"
)

// Interference classes reported by the checker.
const (
	InterferenceWakeOverlap = "wake-overlap"
	InterferenceSharedGuard = "shared-guard"
	InterferenceCapability  = "capability"
)

// ErrInterference is the sentinel wrapped by every InterferenceError.
var ErrInterference = errors.New("moderator: interference detected")

// InterferenceFinding is one refused pattern in a registration.
type InterferenceFinding struct {
	Class  string `json:"class"`
	Method string `json:"method"`
	Aspect string `json:"aspect"`
	Detail string `json:"detail"`
}

// InterferenceReport is the structured result of vetting one
// registration.
type InterferenceReport struct {
	Findings []InterferenceFinding `json:"findings"`
}

// OK reports whether the registration was free of interference findings.
func (r InterferenceReport) OK() bool { return len(r.Findings) == 0 }

// String renders the report for logs and error messages.
func (r InterferenceReport) String() string {
	if r.OK() {
		return "no interference"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d interference finding(s)", len(r.Findings))
	for _, f := range r.Findings {
		fmt.Fprintf(&b, "\n  [%s] %s (aspect %q): %s", f.Class, f.Method, f.Aspect, f.Detail)
	}
	return b.String()
}

// InterferenceError refuses a registration the checker flagged. It carries
// the structured report and unwraps to ErrInterference and, for a
// wake-overlap refusal, to the ErrDomainActive merge failure behind it.
type InterferenceError struct {
	Component string
	Report    InterferenceReport
	cause     error
}

func (e *InterferenceError) Error() string {
	return fmt.Sprintf("moderator %s: registration refused: %s", e.Component, e.Report.String())
}

func (e *InterferenceError) Unwrap() []error {
	if e.cause == nil {
		return []error{ErrInterference}
	}
	return []error{ErrInterference, e.cause}
}

// vetLocked runs the checks on registering a at (method, kind)
// against the composition cs. It returns the domain table the
// registration's wake span merges into — nil when it merges nothing — for
// the caller to publish once the registration is stored, or an
// *InterferenceError. Nothing is published here. The registration has
// passed validateRegistration. The admin mutex must be held.
func (m *Moderator) vetLocked(cs *compState, method string, kind aspect.Kind, a aspect.Aspect) (*domainTable, error) {
	findings := checkCapability(method, a)
	dt := m.domains.Load()
	var merged *domainTable
	var cause error
	if span := wakeSpan(a); len(span) > 0 {
		next, err := m.mergeLocked(append([]string{method}, span...))
		switch {
		case errors.Is(err, ErrDomainActive):
			cause = err
			findings = append(findings, InterferenceFinding{
				Class: InterferenceWakeOverlap, Method: method, Aspect: a.Name(),
				Detail: fmt.Sprintf("wake span %v cannot merge into one admission domain: %v", span, err),
			})
		case err != nil:
			return nil, fmt.Errorf("moderator %s: register %s/%s: %w", m.name, method, kind, err)
		case next != nil:
			merged, dt = next, next
		}
	}
	findings = append(findings, checkDuplicate(cs.plans[method], method, a)...)
	findings = append(findings, checkSharedGuard(cs.plans, dt, method, kind, a)...)
	if len(findings) > 0 {
		sortFindings(findings)
		return nil, &InterferenceError{Component: m.name, Report: InterferenceReport{Findings: findings}, cause: cause}
	}
	return merged, nil
}

// sortFindings orders findings deterministically: by class, then method,
// then aspect, then detail.
func sortFindings(fs []InterferenceFinding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Class != b.Class {
			return a.Class < b.Class
		}
		if a.Method != b.Method {
			return a.Method < b.Method
		}
		if a.Aspect != b.Aspect {
			return a.Aspect < b.Aspect
		}
		return a.Detail < b.Detail
	})
}

// abandons reports whether the aspect carries an Abandon hook. The Func
// adapter implements every optional interface unconditionally, so for it
// the actual hook field decides.
func abandons(a aspect.Aspect) bool {
	if f, ok := a.(*aspect.Func); ok {
		return f.AbandonFn != nil
	}
	_, ok := a.(aspect.Abandoner)
	return ok
}

// declaresNonBlocking reports whether the aspect grants the fast-path
// capability.
func declaresNonBlocking(a aspect.Aspect) bool {
	nb, ok := a.(aspect.NonBlocking)
	return ok && nb.NonBlocking()
}

// wakeSpan returns the aspect's declared wake list, or nil.
func wakeSpan(a aspect.Aspect) []string {
	if w, ok := a.(aspect.Waker); ok {
		return w.Wakes()
	}
	return nil
}

// statefulGuard classifies an aspect entry as carrying cross-invocation
// guard state: synchronization- or scheduling-kind (or wake-declaring)
// and not exempted by a NonBlocking declaration.
func statefulGuard(kind aspect.Kind, a aspect.Aspect) bool {
	if declaresNonBlocking(a) {
		return false
	}
	if kind == aspect.KindSynchronization || kind == aspect.KindScheduling {
		return true
	}
	return len(wakeSpan(a)) > 0
}

// checkCapability flags a NonBlocking declaration that contradicts itself
// (class "capability").
func checkCapability(method string, a aspect.Aspect) []InterferenceFinding {
	if !declaresNonBlocking(a) {
		return nil
	}
	var out []InterferenceFinding
	if span := wakeSpan(a); len(span) > 0 {
		out = append(out, InterferenceFinding{
			Class: InterferenceCapability, Method: method, Aspect: a.Name(),
			Detail: fmt.Sprintf("declares NonBlocking but wakes %v: the lock-free fast path skips wake fan-out, so its completions could strand parked callers", span),
		})
	}
	if abandons(a) {
		out = append(out, InterferenceFinding{
			Class: InterferenceCapability, Method: method, Aspect: a.Name(),
			Detail: "declares NonBlocking but implements Abandon: only blocked callers abandon, and a NonBlocking precondition must never block",
		})
	}
	return out
}

// checkDuplicate flags the instance a when method's plan p already binds
// it, in any layer and under any kind (class "shared-guard"). A
// non-comparable instance is skipped, as in checkSharedGuard.
func checkDuplicate(p *compiledPlan, method string, a aspect.Aspect) []InterferenceFinding {
	if p == nil || !reflect.TypeOf(a).Comparable() {
		return nil
	}
	for i := range p.entries {
		if e := &p.entries[i]; e.a == a {
			return []InterferenceFinding{{
				Class: InterferenceSharedGuard, Method: method, Aspect: a.Name(),
				Detail: fmt.Sprintf("instance already bound to this method (layer %q, kind %s): its hooks would run twice per call", e.layer, e.kind),
			}}
		}
	}
	return nil
}

// checkSharedGuard flags every other method whose plan already binds the
// stateful instance a in an admission domain other than method's under the
// domain table dt (class "shared-guard"). An instance whose dynamic type
// is not comparable cannot be identity-tracked and is skipped (such an
// aspect cannot be registered twice as the same instance anyway).
func checkSharedGuard(plans map[string]*compiledPlan, dt *domainTable, method string, kind aspect.Kind, a aspect.Aspect) []InterferenceFinding {
	if !statefulGuard(kind, a) || !reflect.TypeOf(a).Comparable() {
		return nil
	}
	// Every planned method has a domain, so a nil d (method gets a fresh
	// domain of its own) matches none of them.
	d := dt.byMethod[method]
	var out []InterferenceFinding
	for meth, p := range plans {
		if dt.byMethod[meth] == d {
			continue
		}
		for i := range p.entries {
			if e := &p.entries[i]; e.a == a && statefulGuard(e.kind, e.a) {
				out = append(out, InterferenceFinding{
					Class: InterferenceSharedGuard, Method: method, Aspect: a.Name(),
					Detail: fmt.Sprintf("stateful guard instance already bound to method %q in a different admission domain: its hooks would mutate shared state under two mutexes", meth),
				})
				break
			}
		}
	}
	return out
}
