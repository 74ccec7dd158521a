package moderator

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/aspect"
)

// FuzzInterferenceChecker drives registrations decoded from raw bytes,
// one Register call at a time, onto an already-active composition and
// asserts soundness: a registration that exhibits a known-invasive
// pattern by construction must NEVER be accepted, and a refused one must
// leave the composition as it was. Over-flagging (refusing a registration
// the predicate below calls safe) is allowed — the checker is
// conservative — but a false "safe" is a bug.
//
// Decoding: the input is consumed in 3-byte specs, at most 6:
//
//	b0: method index b0 % 3, bit 2 NonBlocking, bit 3 registration
//	    kind (1 = synchronization, 0 = metrics)
//	b1: bits 0-2 wake mask over the method set
//	b2: bits 0-1 shared-instance id (specs with one id share one aspect
//	    instance; the first spec fixes its flags)
//
// The composition starts with one private guard per method and all three
// admission domains active (one admission driven through each), so no
// registration can ever merge two of them and the invasive predicates
// below are exact, each judged against the registrations accepted so far:
//
//	capability:   the instance declares NonBlocking with a non-empty wake
//	              list
//	wake-overlap: its wake span names a method other than its own
//	shared-guard: the instance is stateful (blocking-capable: registered
//	              at synchronization kind or declaring wakes, and not
//	              NonBlocking) and an accepted stateful registration of the
//	              same instance sits on another method
//	duplicate:    an accepted registration of the same instance, of any
//	              kind, already sits on the same method
func FuzzInterferenceChecker(f *testing.F) {
	// One known-invasive encoding per class, plus safe shapes.
	f.Add([]byte{0x0C, 0x02, 0x00})                   // capability: NonBlocking on m0 + wakes m1
	f.Add([]byte{0x08, 0x02, 0x00})                   // wake-overlap: guard on m2 wakes m1
	f.Add([]byte{0x08, 0x00, 0x01, 0x09, 0x00, 0x01}) // shared-guard: one sync instance on m2 and m0
	f.Add([]byte{0x00, 0x00, 0x00})                   // safe: private metrics veneer
	f.Add([]byte{0x0C, 0x00, 0x02, 0x0D, 0x00, 0x02}) // safe: shared NonBlocking instance, no wakes
	f.Add([]byte{0x08, 0x01, 0x00})                   // wake-overlap: guard on m2 wakes m0
	f.Add([]byte{0x08, 0x04, 0x00})                   // safe: guard on m2 wakes only m2
	f.Add([]byte{0x00, 0x00, 0x03, 0x09, 0x00, 0x03}) // duplicate: one instance twice on m0

	methods := []string{"m0", "m1", "m2"}

	f.Fuzz(func(t *testing.T, data []byte) {
		type spec struct {
			method   string
			kind     aspect.Kind
			instance *aspect.Func
		}
		instances := map[byte]*aspect.Func{}
		var specs []spec
		for i := 0; i+3 <= len(data) && len(specs) < 6; i += 3 {
			b0, b1, b2 := data[i], data[i+1], data[i+2]
			id := b2 % 4
			inst, ok := instances[id]
			if !ok {
				var wakes []string
				for bit, meth := range methods {
					if b1&(1<<bit) != 0 {
						wakes = append(wakes, meth)
					}
				}
				inst = &aspect.Func{
					AspectName:      fmt.Sprintf("fuzz-%d", id),
					AspectKind:      aspect.KindSynchronization,
					NonBlockingFlag: b0&0x04 != 0,
					WakeList:        wakes,
					Pre:             func(*aspect.Invocation) aspect.Verdict { return aspect.Resume },
				}
				instances[id] = inst
			}
			kind := aspect.KindMetrics
			if b0&0x08 != 0 {
				kind = aspect.KindSynchronization
			}
			specs = append(specs, spec{method: methods[b0%3], kind: kind, instance: inst})
		}
		if len(specs) == 0 {
			return
		}

		// Independent invasiveness predicate, straight from the decoded
		// specs — no checker internals involved.
		stateful := func(s spec) bool {
			if s.instance.NonBlockingFlag {
				return false
			}
			return s.kind == aspect.KindSynchronization || len(s.instance.WakeList) > 0
		}
		invasive := func(s spec, accepted []spec) bool {
			if s.instance.NonBlockingFlag && len(s.instance.WakeList) > 0 {
				return true // capability
			}
			for _, w := range s.instance.WakeList {
				if w != s.method {
					return true // wake-overlap: span crosses active domains
				}
			}
			for _, a := range accepted {
				if a.instance == s.instance && a.method == s.method {
					return true // duplicate on one method
				}
			}
			if stateful(s) {
				for _, a := range accepted {
					if a.instance == s.instance && a.method != s.method && stateful(a) {
						return true // shared-guard across distinct domains
					}
				}
			}
			return false
		}

		m := New("fuzz")
		for _, meth := range methods {
			if err := m.Register(meth, aspect.KindSynchronization, syncGuard("stable-"+meth)); err != nil {
				t.Fatal(err)
			}
			admitComplete(t, m, meth)
		}
		var accepted []spec
		for i, s := range specs {
			before := m.Describe()
			err := m.Register(s.method, s.kind, s.instance)
			if err == nil {
				if invasive(s, accepted) {
					t.Fatalf("checker accepted known-invasive registration %d: specs %+v", i, specs)
				}
				accepted = append(accepted, s)
				continue
			}
			if !errors.Is(err, ErrInterference) {
				t.Fatalf("registration %d refused with a non-interference error: %v", i, err)
			}
			if !reflect.DeepEqual(m.Describe(), before) {
				t.Fatalf("refused registration %d changed the composition: %v", i, err)
			}
		}
		if got := len(m.Domains()); got != len(methods) {
			t.Fatalf("domains merged across active methods: %v", m.Domains())
		}
	})
}
