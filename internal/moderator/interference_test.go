package moderator

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/aspect"
)

func syncGuard(name string) *aspect.Func {
	return &aspect.Func{
		AspectName: name,
		AspectKind: aspect.KindSynchronization,
		Pre:        func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
	}
}

func admitComplete(t *testing.T, m *Moderator, method string) {
	t.Helper()
	i := aspect.NewInvocation(context.Background(), "comp", method, nil)
	adm, err := m.Preactivation(i)
	if err != nil {
		t.Fatalf("preactivation(%s): %v", method, err)
	}
	m.Postactivation(i, adm)
}

func mustRegister(t *testing.T, m *Moderator, method string, kind aspect.Kind, a aspect.Aspect) {
	t.Helper()
	if err := m.Register(method, kind, a); err != nil {
		t.Fatalf("register %s/%s: %v", method, kind, err)
	}
}

// findingsOf asserts err is a refusal and returns its report.
func findingsOf(t *testing.T, err error) InterferenceReport {
	t.Helper()
	if err == nil {
		t.Fatal("registration accepted, want interference refusal")
	}
	if !errors.Is(err, ErrInterference) {
		t.Fatalf("refusal does not wrap ErrInterference: %v", err)
	}
	var ie *InterferenceError
	if !errors.As(err, &ie) {
		t.Fatalf("refusal is not an *InterferenceError: %v", err)
	}
	if ie.Component == "" || ie.Report.OK() {
		t.Fatalf("refusal carries empty report: %+v", ie)
	}
	return ie.Report
}

func hasFinding(r InterferenceReport, class, method string) bool {
	for _, f := range r.Findings {
		if f.Class == class && f.Method == method {
			return true
		}
	}
	return false
}

func TestInterferenceWakeOverlapAcrossActiveDomains(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "a", aspect.KindSynchronization, syncGuard("guard-a"))
	mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
	// Both domains saw traffic; they can no longer merge.
	admitComplete(t, m, "a")
	admitComplete(t, m, "b")

	err := m.Register("a", aspect.KindScheduling, &aspect.Func{
		AspectName: "cross-waker",
		AspectKind: aspect.KindScheduling,
		WakeList:   []string{"b"},
	})
	report := findingsOf(t, err)
	if !hasFinding(report, InterferenceWakeOverlap, "a") {
		t.Errorf("missing wake-overlap finding for method a:\n%s", report)
	}
	if got := len(m.Aspects("a")); got != 1 {
		t.Errorf("refused waker was stored: a has %d aspects, want 1", got)
	}
}

func TestInterferenceWakeSpanMergesQuiescentDomains(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "a", aspect.KindSynchronization, syncGuard("guard-a"))
	mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
	// Only a has seen traffic: {a,b} can merge into a's domain.
	admitComplete(t, m, "a")
	err := m.Register("a", aspect.KindScheduling, &aspect.Func{
		AspectName: "cross-waker",
		AspectKind: aspect.KindScheduling,
		WakeList:   []string{"b"},
	})
	if err != nil {
		t.Fatalf("registration with mergeable wake span refused: %v", err)
	}
	if got := m.Domains(); !reflect.DeepEqual(got, [][]string{{"a", "b"}}) {
		t.Errorf("wake span did not merge {a,b}: domains %v", got)
	}
}

// TestInterferenceSharedGuardAcrossCandidateDomains: the candidate — the
// registration under vetting — would bind a stateful instance in a second
// admission domain.
func TestInterferenceSharedGuardAcrossCandidateDomains(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "x", aspect.KindSynchronization, syncGuard("guard-x"))
	mustRegister(t, m, "y", aspect.KindSynchronization, syncGuard("guard-y"))
	shared := syncGuard("shared-guard")
	mustRegister(t, m, "x", aspect.KindSynchronization, shared)
	report := findingsOf(t, m.Register("y", aspect.KindSynchronization, shared))
	if !hasFinding(report, InterferenceSharedGuard, "y") {
		t.Errorf("missing shared-guard finding for method y:\n%s", report)
	}
	if !strings.Contains(report.String(), `"x"`) {
		t.Errorf("finding does not name the method already bound:\n%s", report)
	}
}

// TestInterferenceSharedGuardCandidateVsStable: the stable binding that
// makes a candidate registration invasive may sit in any layer, and
// grouping the two methods first is what makes sharing the instance sound.
func TestInterferenceSharedGuardCandidateVsStable(t *testing.T) {
	m := New("comp")
	shared := syncGuard("shared-guard")
	mustRegister(t, m, "x", aspect.KindSynchronization, shared)
	mustRegister(t, m, "y", aspect.KindSynchronization, syncGuard("guard-y"))
	if err := m.AddLayer("outer", Outermost); err != nil {
		t.Fatal(err)
	}
	report := findingsOf(t, m.RegisterIn("outer", "y", aspect.KindSynchronization, shared))
	if !hasFinding(report, InterferenceSharedGuard, "y") {
		t.Errorf("missing shared-guard finding for method y:\n%s", report)
	}
	if err := m.GroupMethods("x", "y"); err != nil {
		t.Fatal(err)
	}
	if err := m.RegisterIn("outer", "y", aspect.KindSynchronization, shared); err != nil {
		t.Errorf("shared guard within one grouped domain refused: %v", err)
	}
}

func TestInterferenceSharedVeneerExempt(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "x", aspect.KindSynchronization, syncGuard("guard-x"))
	mustRegister(t, m, "y", aspect.KindSynchronization, syncGuard("guard-y"))
	// A passive observational instance shared across domains is the normal
	// veneer pattern, not interference.
	veneer := &aspect.Func{
		AspectName: "shared-metrics",
		AspectKind: aspect.KindMetrics,
		Pre:        func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
	}
	for _, meth := range []string{"x", "y"} {
		if err := m.Register(meth, aspect.KindMetrics, veneer); err != nil {
			t.Fatalf("shared observational veneer refused on %s: %v", meth, err)
		}
	}
}

func TestInterferenceCapabilityViolations(t *testing.T) {
	cases := []struct {
		name   string
		aspect *aspect.Func
		detail string
	}{
		{
			name: "nonblocking-with-wakes",
			aspect: &aspect.Func{
				AspectName:      "nb-waker",
				AspectKind:      aspect.KindSynchronization,
				NonBlockingFlag: true,
				WakeList:        []string{"other"},
			},
			detail: "wake fan-out",
		},
		{
			name: "nonblocking-with-abandon",
			aspect: &aspect.Func{
				AspectName:      "nb-abandoner",
				AspectKind:      aspect.KindSynchronization,
				NonBlockingFlag: true,
				AbandonFn:       func(*aspect.Invocation) {},
			},
			detail: "never block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New("comp")
			mustRegister(t, m, "open", aspect.KindSynchronization, syncGuard("stable-guard"))
			report := findingsOf(t, m.Register("open", aspect.KindSynchronization, tc.aspect))
			if !hasFinding(report, InterferenceCapability, "open") {
				t.Fatalf("missing capability finding:\n%s", report)
			}
			var found bool
			for _, f := range report.Findings {
				if strings.Contains(f.Detail, tc.detail) {
					found = true
				}
			}
			if !found {
				t.Errorf("no finding detail mentions %q:\n%s", tc.detail, report)
			}
		})
	}
}

// TestInterferenceReportDeterministic: findings arrive sorted by class,
// method, aspect, so refusal reports are stable across runs.
func TestInterferenceReportDeterministic(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "a", aspect.KindSynchronization, syncGuard("guard-a"))
	mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
	// One stateful instance waking a, bound on a, then offered to b after
	// both domains saw traffic: wake-overlap and shared-guard at once.
	shared := &aspect.Func{
		AspectName: "shared-waker",
		AspectKind: aspect.KindSynchronization,
		WakeList:   []string{"a"},
	}
	mustRegister(t, m, "a", aspect.KindSynchronization, shared)
	admitComplete(t, m, "a")
	admitComplete(t, m, "b")
	report := findingsOf(t, m.Register("b", aspect.KindSynchronization, shared))
	if len(report.Findings) < 2 {
		t.Fatalf("want at least 2 findings, got:\n%s", report)
	}
	for i := 1; i < len(report.Findings); i++ {
		a, b := report.Findings[i-1], report.Findings[i]
		if a.Class > b.Class || (a.Class == b.Class && a.Method > b.Method) {
			t.Errorf("findings not sorted at %d:\n%s", i, report)
		}
	}
}

// TestRegisterInInterference is the registration contract in one table:
// a refused registration publishes no snapshot and leaves the composition
// and the domains exactly as they were, a wake-overlap refusal also matches the ErrDomainActive
// merge failure behind it, and a shared instance is accepted once its wake
// span merges both methods into one domain.
func TestRegisterInInterference(t *testing.T) {
	cases := []struct {
		name string
		// inst is the instance under test; setup builds the composition
		// around it, and the call under test registers it on b.
		inst  *aspect.Func
		setup func(t *testing.T, m *Moderator, inst *aspect.Func)
		kind  aspect.Kind // of the call under test; "" means synchronization
		class string      // "" means the registration is accepted
		is    []error     // errors.Is targets of the refusal
	}{
		{
			name: "capability",
			inst: &aspect.Func{AspectName: "nb", AspectKind: aspect.KindSynchronization,
				NonBlockingFlag: true, AbandonFn: func(*aspect.Invocation) {}},
			setup: func(t *testing.T, m *Moderator, _ *aspect.Func) {
				mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
			},
			class: InterferenceCapability,
			is:    []error{ErrInterference},
		},
		{
			name: "wake-overlap",
			inst: &aspect.Func{AspectName: "b-wakes-a", AspectKind: aspect.KindSynchronization,
				WakeList: []string{"a"}},
			setup: func(t *testing.T, m *Moderator, _ *aspect.Func) {
				mustRegister(t, m, "a", aspect.KindSynchronization, syncGuard("guard-a"))
				mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
				admitComplete(t, m, "a")
				admitComplete(t, m, "b")
			},
			class: InterferenceWakeOverlap,
			is:    []error{ErrInterference, ErrDomainActive},
		},
		{
			name: "shared-guard",
			inst: syncGuard("shared"),
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				mustRegister(t, m, "a", aspect.KindSynchronization, inst)
			},
			class: InterferenceSharedGuard,
			is:    []error{ErrInterference},
		},
		{
			name: "shared-instance-merged-by-its-wake-span",
			inst: &aspect.Func{AspectName: "shared-waker", AspectKind: aspect.KindSynchronization,
				WakeList: []string{"a"}},
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				mustRegister(t, m, "a", aspect.KindSynchronization, inst)
				admitComplete(t, m, "a")
			},
		},
		{
			// A stateful guard bound twice on one method would run its
			// precondition, and reserve, twice per call.
			name: "duplicate-stateful",
			inst: syncGuard("dup"),
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				mustRegister(t, m, "b", aspect.KindSynchronization, inst)
			},
			class: InterferenceSharedGuard,
			is:    []error{ErrInterference},
		},
		{
			name: "duplicate-observational",
			inst: &aspect.Func{AspectName: "dup-audit", AspectKind: aspect.KindAudit},
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				mustRegister(t, m, "b", aspect.KindAudit, inst)
			},
			kind:  "audit-again",
			class: InterferenceSharedGuard,
			is:    []error{ErrInterference},
		},
		{
			name: "duplicate-in-another-layer",
			inst: syncGuard("dup"),
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				if err := m.AddLayer("outer", Outermost); err != nil {
					t.Fatal(err)
				}
				if err := m.RegisterIn("outer", "b", aspect.KindSynchronization, inst); err != nil {
					t.Fatal(err)
				}
			},
			class: InterferenceSharedGuard,
			is:    []error{ErrInterference},
		},
		{
			// One sync instance on two methods of one grouped domain is
			// shared guard state, not a duplicate.
			name: "shared-instance-on-grouped-methods",
			inst: syncGuard("shared"),
			setup: func(t *testing.T, m *Moderator, inst *aspect.Func) {
				mustRegister(t, m, "a", aspect.KindSynchronization, inst)
				if err := m.GroupMethods("a", "b"); err != nil {
					t.Fatal(err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := New("comp")
			tc.setup(t, m, tc.inst)
			before, domains, snap := m.Describe(), m.Domains(), m.comp.Load()
			kind := tc.kind
			if kind == "" {
				kind = aspect.KindSynchronization
			}
			err := m.Register("b", kind, tc.inst)
			if tc.class == "" {
				if err != nil {
					t.Fatalf("registration refused: %v", err)
				}
				if reflect.DeepEqual(m.Describe(), before) {
					t.Error("accepted registration did not change Describe")
				}
				assertPlansMatch(t, m)
				return
			}
			if report := findingsOf(t, err); !hasFinding(report, tc.class, "b") {
				t.Errorf("refusal lacks a %s finding for b:\n%s", tc.class, report)
			}
			if m.comp.Load() != snap {
				t.Error("refused registration published a snapshot")
			}
			for _, target := range tc.is {
				if !errors.Is(err, target) {
					t.Errorf("errors.Is(err, %v) = false: %v", target, err)
				}
			}
			if after := m.Describe(); !reflect.DeepEqual(after, before) {
				t.Errorf("refused registration changed Describe:\nbefore %+v\nafter  %+v", before, after)
			}
			if after := m.Domains(); !reflect.DeepEqual(after, domains) {
				t.Errorf("refused registration changed the domains: before %v after %v", domains, after)
			}
			assertPlansMatch(t, m)
		})
	}
}

// TestRegisterValidation: an empty method, an empty kind or a nil aspect is
// refused before the interference checker runs — a plain error, not an
// ErrInterference — and the refusal publishes no snapshot.
func TestRegisterValidation(t *testing.T) {
	m := New("comp")
	mustRegister(t, m, "b", aspect.KindSynchronization, syncGuard("guard-b"))
	before, domains, snap := m.Describe(), m.Domains(), m.comp.Load()
	for name, register := range map[string]func() error{
		"empty method": func() error { return m.Register("", aspect.KindSynchronization, syncGuard("g")) },
		"empty kind":   func() error { return m.Register("b", "", syncGuard("g")) },
		"nil aspect":   func() error { return m.Register("b", aspect.KindSynchronization, nil) },
	} {
		err := register()
		if err == nil || errors.Is(err, ErrInterference) {
			t.Errorf("%s: err = %v, want a plain refusal", name, err)
		}
		if m.comp.Load() != snap {
			t.Errorf("%s: refused registration published a snapshot", name)
		}
	}
	if after := m.Describe(); !reflect.DeepEqual(after, before) {
		t.Errorf("refused registrations changed Describe:\nbefore %+v\nafter  %+v", before, after)
	}
	if after := m.Domains(); !reflect.DeepEqual(after, domains) {
		t.Errorf("refused registrations changed the domains: before %v after %v", domains, after)
	}
}
