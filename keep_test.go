package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// keepReason is why an identifier no program references is kept. The set
// is closed: anything without one of these reasons is deleted.
type keepReason int

const (
	// paperFigure: the identifier reproduces a figure of the paper; the
	// note names the figure ("Fig. n") and the test EXPERIMENTS cites.
	paperFigure keepReason = iota + 1
	// experiment: a live EXPERIMENTS entry measures or asserts through
	// it; the note names the entry ("En").
	experiment
	// testOracle: a reference implementation or invariant check that
	// tests compare the product against.
	testOracle
	// clockSeam: a clock injection point that stays until the admission
	// plane runs on one virtual clock.
	clockSeam
	// testObserver: read only by a test; the note names the test
	// ("TestX") and the kept mechanism that test checks.
	testObserver
)

// notePattern is what each reason's note must cite.
var notePattern = map[keepReason]*regexp.Regexp{
	paperFigure:  regexp.MustCompile(`Figs?\. [0-9]+`),
	experiment:   regexp.MustCompile(`\bE[0-9]+\b`),
	testOracle:   regexp.MustCompile(`\S`),
	clockSeam:    regexp.MustCompile(`\S`),
	testObserver: regexp.MustCompile(`\bTest[A-Z]\w*`),
}

type keepEntry struct {
	reason keepReason
	note   string
}

// keepAllowlist names the exported identifiers under internal/ that no
// program references, keyed by package path below internal/, then the
// identifier ("pkg.Name" or "pkg.Type.Method").
var keepAllowlist = map[string]keepEntry{
	"amrpc.Client.Connected":                   {testObserver, "TestIdempotentCallRetriesThroughReconnect: the client re-dials after its connection drops"},
	"amrpc.Client.PendingCalls":                {testObserver, "TestCloseMidPipelineResolvesAllPending: Close resolves every pending call"},
	"apps/auction.Guarded.Moderator":           {testObserver, "TestGuardedWithSecurity: authentication evaluates before authorization on every auction method"},
	"apps/ticket.Guarded.Buffer":               {testObserver, "TestGuardedConcurrentProducersConsumers: the buffer guard's invariants under concurrent callers"},
	"aspect.Invocation.ArgInt":                 {experiment, "E5: TestStickyTicketPreservesFIFOAcrossReparks identifies each parked caller through it"},
	"aspect.Invocation.NumArgs":                {testObserver, "TestRawArgumentsAndEncodedValues: a raw call reaches its component with no decoded arguments"},
	"aspect.Invocation.Result":                 {paperFigure, "Fig. 10: TestGuardedInvokeRunsPhasesAroundBody, where postactivation reads the body's result"},
	"aspect.KindFaultTolerance":                {experiment, "E8: the kind the circuit breaker registers under"},
	"aspects/audit.Trail.Drops":                {testObserver, "TestSinkFailureCountsDrops: a failing sink never fails the audited call"},
	"aspects/audit.Trail.Len":                  {testObserver, "TestRingEviction: the trail retains a bounded ring of events"},
	"aspects/audit.Trail.Seq":                  {testObserver, "TestConcurrentRecording: every audited event is numbered once under concurrent callers"},
	"aspects/audit.WithClock":                  {clockSeam, "audit timestamps"},
	"aspects/auth.TokenStore.Len":              {testObserver, "TestTokenStoreLifecycle: Issue and Revoke add and remove live tokens"},
	"aspects/coord.Barrier.Arrived":            {testObserver, "TestBarrierManyCohortsConcurrent: the barrier releases whole cohorts (E11)"},
	"aspects/metrics.Recorder.Keys":            {testObserver, "TestAspectReuseAcrossApplications: one recorder composes onto every application (E10)"},
	"aspects/metrics.WithClock":                {clockSeam, "metrics latency timing"},
	"aspects/sched.FairShare.Outstanding":      {testObserver, "TestFairSharePerClientLimit: the per-client cap apps/auction composes"},
	"aspects/syncguard.Buffer.CheckInvariants": {testOracle, "the bounded-buffer guard's invariants, checked between operations"},
	"aspects/syncguard.Buffer.Count":           {testObserver, "TestBufferProducerConsumerProtocol: a producer commits its slot at postactivation"},
	"aspects/syncguard.Mutex.Locked":           {testObserver, "TestMutexAdmissionProtocol: the mutex guard admits one caller at a time"},
	"aspects/syncguard.RWLock.CheckInvariants": {testOracle, "the readers-writer guard's invariants, checked between operations"},
	"aspects/syncguard.RWLock.Readers":         {testObserver, "TestRWLockExclusion: readers share, a writer excludes"},
	"aspects/syncguard.RWLock.Writing":         {testObserver, "TestRWLockExclusion: readers share, a writer excludes"},
	"aspects/syncguard.Semaphore.InUse":        {testObserver, "TestSemaphoreCounting: the semaphore admits up to its limit"},
	"moderator.Moderator.Unregister":           {paperFigure, "Fig. 9: TestUnregisterStopsGuarding"},
	"moderator.NewReference":                   {testOracle, "the single-mutex moderator the differential oracles and schedtest compare against"},
	"moderator.Reference.AddLayer":             {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Aspects":              {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.DescribeString":       {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.GroupMethods":         {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Kick":                 {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Layers":               {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Postactivation":       {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Preactivation":        {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Register":             {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.RemoveLayer":          {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.SetTracer":            {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.Reference.Unregister":           {testOracle, "moderator.Reference implements Admitter for the differential oracles"},
	"moderator.WithWakeMode":                   {experiment, "E5 and E6: BenchmarkE5WaitPolicy, TestPriorityAdmissionUnderLoad"},
	"moderator.WithWakePolicy":                 {experiment, "E5 and E6: BenchmarkE5WaitPolicy, TestPriorityAdmissionUnderLoad"},
	"naming.Ring.Members":                      {testObserver, "TestRingEmptyAndBasics: NewRing deduplicates and sorts its members"},
	"naming.WithClock":                         {clockSeam, "lease expiry in the naming store"},
	"statesync.Log.Capacity":                   {testObserver, "TestLogOverflowBoundsLag: the effect log bounds a lagging replica"},
	"statesync.Manager.Seq":                    {testObserver, "TestClusterSameTermReacquireKeepsReplication: a lease re-acquired at the same term keeps its effect log"},
	"waitq.Queue.Policy":                       {testObserver, "TestInvalidPolicyDefaultsToFIFO: an unknown wake policy falls back to FIFO"},
}

// keepPackages names the packages under internal/ that no program
// imports, keyed like keepAllowlist.
var keepPackages = map[string]keepEntry{
	"apps/reservation":   {experiment, "E10: one aspect set reused across the four applications"},
	"apps/timecard":      {experiment, "E10: one aspect set reused across the four applications"},
	"aspects/fault":      {experiment, "E8: the circuit breaker, the fault-tolerance concern"},
	"baseline/decorator": {experiment, "E1: the decorator-chain baseline"},
	"baseline/tangled":   {experiment, "E1: the hand-woven monitor baseline"},
	"chaosnet":           {experiment, "E17: the fault injector under the cluster chaos soak"},
	"schedtest":          {experiment, "E16: exhaustive schedule exploration against the Reference"},
}

// dynamicMethods are called by the standard library through an interface
// the module never names, so defining one is a use.
var dynamicMethods = map[string]bool{
	"Unwrap": true, "Is": true, "As": true,
	"Error": true, "String": true, "MarshalJSON": true,
}

// listedPackage is the part of `go list -json` the check reads.
type listedPackage struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Imports    []string
	Module     *struct{ Main bool }
}

// TestKeepRule is the keep rule as a check: a mechanism under internal/
// stays only if a program needs it or a written reason keeps it. It
// type-checks every package of the module from its non-test files and
// fails on any exported identifier under internal/ that no program
// references and that keepAllowlist does not name, on any package under
// internal/ that no program imports and that keepPackages does not name,
// and on any entry of either list that has gone stale.
//
// A program is a main package (cmd/*, examples/*, benchmark) and every
// package it imports, transitively, through non-test files. An identifier
// is a package-level name or a method of a package-level type; struct
// fields and interface methods are not checked. A method counts as used
// when a program calls it, when a program calls an interface method of
// the same name, or when the standard library calls it dynamically
// (dynamicMethods).
func TestKeepRule(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	// go list -deps prints every package after its dependencies, so
	// type-checking in this order finds each import already checked.
	var pkgs []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatalf("go list output: %v", err)
		}
		if p.Module != nil && p.Module.Main && len(p.GoFiles) > 0 {
			pkgs = append(pkgs, p)
		}
	}

	fset := token.NewFileSet()
	imp := &moduleImporter{
		checked: make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
	}
	byPath := make(map[string]*listedPackage, len(pkgs))
	infos := make(map[string]*types.Info, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		tp, err := (&types.Config{Importer: imp}).Check(p.ImportPath, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		imp.checked[p.ImportPath] = tp
		infos[p.ImportPath] = info
	}

	// Programs: every main package, and what they import, transitively.
	reachable := make(map[string]bool)
	var visit func(path string)
	visit = func(path string) {
		p, ok := byPath[path]
		if !ok || reachable[path] {
			return
		}
		reachable[path] = true
		for _, dep := range p.Imports {
			visit(dep)
		}
	}
	for _, p := range pkgs {
		if p.Name == "main" {
			visit(p.ImportPath)
		}
	}

	used := make(map[types.Object]bool)
	ifaceMethods := make(map[string]bool)
	mark := func(obj types.Object) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
			if recv := o.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceMethods[o.Name()] = true
			}
		case *types.Var:
			obj = o.Origin()
		}
		used[obj] = true
	}
	for path := range reachable {
		info := infos[path]
		for _, obj := range info.Uses {
			mark(obj)
		}
		for _, sel := range info.Selections {
			mark(sel.Obj())
		}
	}

	// Every exported identifier under internal/, and whether a program
	// uses it.
	const internal = "repro/internal/"
	live := make(map[string]bool)
	var unkept []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, internal) {
			continue
		}
		rel := strings.TrimPrefix(p.ImportPath, internal)
		if !reachable[p.ImportPath] {
			live[rel] = false
			continue
		}
		scope := imp.checked[p.ImportPath].Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				live[rel+"."+name] = used[obj]
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() {
					live[rel+"."+name+"."+m.Name()] = used[m] || ifaceMethods[m.Name()] || dynamicMethods[m.Name()]
				}
			}
		}
	}
	for key, isUsed := range live {
		if isUsed {
			continue
		}
		if _, isPkg := byPath[internal+key]; isPkg {
			if _, ok := keepPackages[key]; !ok {
				unkept = append(unkept, fmt.Sprintf("package %s: no program imports it", key))
			}
			continue
		}
		if _, ok := keepAllowlist[key]; !ok {
			unkept = append(unkept, fmt.Sprintf("%s: no program references it", key))
		}
	}
	for key, e := range keepAllowlist {
		isUsed, ok := live[key]
		switch {
		case !ok:
			unkept = append(unkept, fmt.Sprintf("%s: stale allowlist entry, no such identifier", key))
		case isUsed:
			unkept = append(unkept, fmt.Sprintf("%s: stale allowlist entry, a program now references it", key))
		}
		checkNote(t, key, e)
	}
	for key, e := range keepPackages {
		p, ok := byPath[internal+key]
		switch {
		case !ok:
			unkept = append(unkept, fmt.Sprintf("package %s: stale allowlist entry, no such package", key))
		case reachable[p.ImportPath]:
			unkept = append(unkept, fmt.Sprintf("package %s: stale allowlist entry, a program now imports it", key))
		}
		checkNote(t, key, e)
	}
	sort.Strings(unkept)
	for _, msg := range unkept {
		t.Error(msg)
	}
}

func checkNote(t *testing.T, key string, e keepEntry) {
	t.Helper()
	pat, ok := notePattern[e.reason]
	if !ok {
		t.Errorf("%s: allowlist reason %d is not one of the fixed set", key, e.reason)
		return
	}
	if !pat.MatchString(e.note) {
		t.Errorf("%s: allowlist note %q does not cite what its reason requires (%s)", key, e.note, pat)
	}
}

// moduleImporter hands the type checker the module's packages as they
// were checked from their non-test files, and the standard library from
// source.
type moduleImporter struct {
	checked map[string]*types.Package
	std     types.ImporterFrom
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	return m.ImportFrom(path, "", 0)
}

func (m *moduleImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	if strings.HasPrefix(path, "repro/") {
		return nil, fmt.Errorf("%s imported before it was checked", path)
	}
	return m.std.ImportFrom(path, "", mode)
}
