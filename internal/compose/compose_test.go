package compose

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/aspect"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/syncguard"
	"repro/internal/moderator"
	"repro/internal/proxy"
)

func newComponent(t *testing.T, opts ...moderator.Option) *proxy.Proxy {
	t.Helper()
	p := proxy.New(moderator.New("comp", opts...))
	body := func(*aspect.Invocation) (any, error) { return nil, nil }
	for _, m := range []string{"open", "assign"} {
		if err := p.Bind(m, body); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

func noop(name string, kind aspect.Kind, wakes ...string) aspect.Aspect {
	return &aspect.Func{AspectName: name, AspectKind: kind, WakeList: wakes}
}

func issuesOf(r *Report, rule string) []Issue {
	var out []Issue
	for _, i := range r.Issues {
		if i.Rule == rule {
			out = append(out, i)
		}
	}
	return out
}

func TestCleanCompositionVerifies(t *testing.T) {
	p := newComponent(t)
	buf, err := syncguard.NewBuffer(4, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	mod := p.Moderator()
	if err := mod.Register("open", aspect.KindSynchronization, buf.ProducerAspect()); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("assign", aspect.KindSynchronization, buf.ConsumerAspect()); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	if !r.OK() {
		t.Fatalf("clean composition flagged:\n%s", r)
	}
	if len(r.Issues) != 0 {
		t.Errorf("issues = %v", r.Issues)
	}
	if !strings.Contains(r.String(), "no issues") {
		t.Errorf("report = %q", r.String())
	}
}

func TestWakeTargetsExist(t *testing.T) {
	p := newComponent(t)
	if err := p.Moderator().Register("open", aspect.KindSynchronization,
		noop("g", aspect.KindSynchronization, "asign" /* typo */)); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	found := issuesOf(r, "wake-targets-exist")
	if len(found) != 1 || found[0].Severity != Error {
		t.Fatalf("issues = %v", r.Issues)
	}
	if r.OK() {
		t.Error("report must not be OK with an error issue")
	}
	if len(r.Errors()) != 1 {
		t.Errorf("Errors() = %v", r.Errors())
	}
}

func TestDuplicateOnMethod(t *testing.T) {
	p := newComponent(t)
	a := noop("dup", aspect.KindAudit)
	mod := p.Moderator()
	if err := mod.Register("open", aspect.KindAudit, a); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("open", "audit-again", a); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	if got := issuesOf(r, "duplicate-on-method"); len(got) != 1 {
		t.Fatalf("issues = %v", r.Issues)
	}
	// The same instance on different methods of one admission domain is
	// fine (shared guard state); Verify must not flag it.
	p2 := newComponent(t)
	mod2 := p2.Moderator()
	shared := noop("shared", aspect.KindSynchronization)
	if err := mod2.Register("open", aspect.KindSynchronization, shared); err != nil {
		t.Fatal(err)
	}
	// Ungrouped, open and assign are two domains: the moderator refuses to
	// run one guard's hooks under both of their mutexes.
	err := mod2.Register("assign", aspect.KindSynchronization, shared)
	var ie *moderator.InterferenceError
	if !errors.As(err, &ie) || len(ie.Report.Findings) == 0 ||
		ie.Report.Findings[0].Class != moderator.InterferenceSharedGuard {
		t.Fatalf("ungrouped cross-method sharing: err = %v, want a %s refusal", err, moderator.InterferenceSharedGuard)
	}
	if err := mod2.GroupMethods("open", "assign"); err != nil {
		t.Fatal(err)
	}
	if err := mod2.Register("assign", aspect.KindSynchronization, shared); err != nil {
		t.Fatal(err)
	}
	if got := issuesOf(Verify(p2), "duplicate-on-method"); len(got) != 0 {
		t.Errorf("cross-method sharing flagged: %v", got)
	}
}

func TestAuthorizationBeforeAuthenticationFlagged(t *testing.T) {
	p := newComponent(t)
	mod := p.Moderator()
	store := auth.NewTokenStore()
	// Wrong order: authorization registered (and thus evaluated) first.
	if err := mod.Register("open", aspect.KindAuthorization,
		auth.Authorizer("authz", auth.ACL{"open": {"client"}})); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("open", aspect.KindAuthentication,
		auth.Authenticator("authn", store)); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	if got := issuesOf(r, "order-authentication-before-authorization"); len(got) != 1 {
		t.Fatalf("issues = %v", r.Issues)
	}

	// Correct order via an outer security layer: no issue.
	p2 := newComponent(t)
	mod2 := p2.Moderator()
	if err := mod2.AddLayer("security", moderator.Outermost); err != nil {
		t.Fatal(err)
	}
	if err := mod2.RegisterIn("security", "open", aspect.KindAuthentication,
		auth.Authenticator("authn", store)); err != nil {
		t.Fatal(err)
	}
	if err := mod2.RegisterIn("security", "open", aspect.KindAuthorization,
		auth.Authorizer("authz", auth.ACL{"open": {"client"}})); err != nil {
		t.Fatal(err)
	}
	if got := issuesOf(Verify(p2), "order-authentication-before-authorization"); len(got) != 0 {
		t.Errorf("correct order flagged: %v", got)
	}
}

func TestAuthenticationOutermostWarning(t *testing.T) {
	p := newComponent(t)
	mod := p.Moderator()
	if err := mod.Register("open", aspect.KindAudit, noop("audit", aspect.KindAudit)); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("open", aspect.KindAuthentication,
		auth.Authenticator("authn", auth.NewTokenStore())); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	got := issuesOf(r, "authentication-outermost")
	if len(got) != 1 || got[0].Severity != Warning {
		t.Fatalf("issues = %v", r.Issues)
	}
	// Warnings alone keep the report OK.
	onlyWarnings := true
	for _, i := range r.Issues {
		if i.Severity == Error {
			onlyWarnings = false
		}
	}
	if onlyWarnings && !r.OK() {
		t.Error("warnings must not fail OK()")
	}
}

func TestUnguardedMethodsWarning(t *testing.T) {
	p := newComponent(t)
	if err := p.Moderator().Register("open", aspect.KindSynchronization,
		noop("g", aspect.KindSynchronization, "open")); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	got := issuesOf(r, "unguarded-methods")
	if len(got) != 1 || got[0].Method != "assign" {
		t.Fatalf("issues = %v", r.Issues)
	}

	// A component with no sync aspects at all is consistent.
	p2 := newComponent(t)
	if got := issuesOf(Verify(p2), "unguarded-methods"); len(got) != 0 {
		t.Errorf("bare component flagged: %v", got)
	}
}

func TestWakerCoverage(t *testing.T) {
	// WakeSingle: a guarded method nobody wakes is flagged.
	p := newComponent(t, moderator.WithWakeMode(moderator.WakeSingle))
	mod := p.Moderator()
	if err := mod.Register("open", aspect.KindSynchronization,
		noop("g-open", aspect.KindSynchronization, "open")); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("assign", aspect.KindSynchronization,
		noop("g-assign", aspect.KindSynchronization)); err != nil { // wakes nobody
		t.Fatal(err)
	}
	r := Verify(p)
	got := issuesOf(r, "waker-coverage")
	if len(got) != 1 || got[0].Method != "assign" {
		t.Fatalf("issues = %v", r.Issues)
	}

	// Broadcast mode: silent.
	p2 := newComponent(t)
	if err := p2.Moderator().Register("open", aspect.KindSynchronization,
		noop("g", aspect.KindSynchronization)); err != nil {
		t.Fatal(err)
	}
	if got := issuesOf(Verify(p2), "waker-coverage"); len(got) != 0 {
		t.Errorf("broadcast mode flagged: %v", got)
	}
}

func TestVerifyAppsAreClean(t *testing.T) {
	// The repository's own applications must pass their default rules.
	// (ticket app in broadcast mode with buffer aspects.)
	pTicket := newComponent(t)
	buf, err := syncguard.NewBuffer(2, "open", "assign")
	if err != nil {
		t.Fatal(err)
	}
	mod := pTicket.Moderator()
	if err := mod.AddLayer("security", moderator.Outermost); err != nil {
		t.Fatal(err)
	}
	store := auth.NewTokenStore()
	for _, m := range []string{"open", "assign"} {
		if err := mod.RegisterIn("security", m, aspect.KindAuthentication,
			auth.Authenticator("authn-"+m, store)); err != nil {
			t.Fatal(err)
		}
	}
	if err := mod.Register("open", aspect.KindSynchronization, buf.ProducerAspect()); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("assign", aspect.KindSynchronization, buf.ConsumerAspect()); err != nil {
		t.Fatal(err)
	}
	r := Verify(pTicket)
	if !r.OK() {
		t.Fatalf("full stack flagged:\n%s", r)
	}
}

func TestIssueAndSeverityStrings(t *testing.T) {
	i := Issue{Severity: Error, Rule: "r", Method: "", Detail: "d"}
	if !strings.Contains(i.String(), "<component>") || !strings.Contains(i.String(), "error") {
		t.Errorf("issue string = %q", i.String())
	}
	if Warning.String() != "warning" || Error.String() != "error" {
		t.Error("severity strings wrong")
	}
}

func TestErrorsSortedFirst(t *testing.T) {
	p := newComponent(t)
	mod := p.Moderator()
	// Produce both a warning (auth not outermost) and an error (bad wake
	// target).
	if err := mod.Register("open", aspect.KindAudit, noop("audit", aspect.KindAudit)); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("open", aspect.KindAuthentication,
		auth.Authenticator("authn", auth.NewTokenStore())); err != nil {
		t.Fatal(err)
	}
	if err := mod.Register("assign", aspect.KindSynchronization,
		noop("g", aspect.KindSynchronization, "nope")); err != nil {
		t.Fatal(err)
	}
	r := Verify(p)
	if len(r.Issues) < 2 {
		t.Fatalf("issues = %v", r.Issues)
	}
	if r.Issues[0].Severity != Error {
		t.Errorf("errors must sort first: %v", r.Issues)
	}
}
