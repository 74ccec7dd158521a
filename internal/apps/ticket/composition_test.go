package ticket

import (
	"testing"

	"repro/internal/aspect"
	"repro/internal/aspects/audit"
	"repro/internal/aspects/auth"
	"repro/internal/aspects/metrics"
)

// TestTicketdCompositions pins the composition policy on the four
// compositions cmd/ticketd can build ({-auth} × {-audit}, metrics always
// on), each assembled the way ticketd assembles it: on every bound method,
// every wake target names a bound method, authentication (when enabled)
// evaluates first, no aspect instance appears twice, and a synchronization
// aspect guards the sequential server.
func TestTicketdCompositions(t *testing.T) {
	for _, tc := range []struct {
		name        string
		auth, audit bool
	}{
		{"plain", false, false},
		{"audit", false, true},
		{"auth", true, false},
		{"auth+audit", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := GuardedConfig{Capacity: 16, Metrics: metrics.NewRecorder()}
			if tc.audit {
				trail, err := audit.NewTrail(1024)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Audit = trail
			}
			g, err := NewGuarded(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.auth {
				store := auth.NewTokenStore()
				store.Issue("alice", "client")
				if err := g.EnableAuthentication(store); err != nil {
					t.Fatal(err)
				}
			}

			methods := g.Proxy().Methods()
			bound := make(map[string]bool, len(methods))
			for _, meth := range methods {
				bound[meth] = true
			}
			for _, meth := range methods {
				aspects := g.Moderator().Aspects(meth)
				if tc.auth && (len(aspects) == 0 || aspects[0].Kind() != aspect.KindAuthentication) {
					t.Errorf("%s: authentication does not evaluate first: %v", meth, kinds(aspects))
				}
				seen := make(map[aspect.Aspect]bool, len(aspects))
				synced := false
				for _, a := range aspects {
					if seen[a] {
						t.Errorf("%s: aspect %q bound twice", meth, a.Name())
					}
					seen[a] = true
					synced = synced || a.Kind() == aspect.KindSynchronization
					if w, ok := a.(aspect.Waker); ok {
						for _, target := range w.Wakes() {
							if !bound[target] {
								t.Errorf("%s: aspect %q wakes unbound method %q", meth, a.Name(), target)
							}
						}
					}
				}
				if !synced {
					t.Errorf("%s: no synchronization aspect: %v", meth, kinds(aspects))
				}
			}
		})
	}
}

func kinds(aspects []aspect.Aspect) []aspect.Kind {
	out := make([]aspect.Kind, len(aspects))
	for i, a := range aspects {
		out[i] = a.Kind()
	}
	return out
}
