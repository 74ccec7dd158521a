package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/aspect"
	"repro/internal/moderator"
)

type smuggledKey struct{}

// TestShadowEndToEnd wires the full production shape: a moderator with a
// deliberately faulty guard (its verdict depends on an attribute the
// caller smuggles onto the invocation, invisible to replay), a shadow
// engine sampling every admission, a collector watching it, and the HTTP
// handler — then asserts the divergence surfaces at /shadow AND as
// am_shadow_* metrics.
func TestShadowEndToEnd(t *testing.T) {
	mod := moderator.New("svc")
	faulty := &aspect.Func{
		AspectName: "smuggling-guard",
		AspectKind: aspect.KindSynchronization,
		Pre: func(inv *aspect.Invocation) aspect.Verdict {
			if inv.Attr(smuggledKey{}) != nil {
				return aspect.Resume
			}
			return aspect.Abort
		},
	}
	if err := mod.Register("open", aspect.KindSynchronization, faulty); err != nil {
		t.Fatal(err)
	}

	c := NewCollector(WithSampleEvery(1))
	c.Watch(mod)
	sh := moderator.NewShadow(mod, moderator.WithShadowSampleEvery(1))
	sh.Start()
	mod.SetShadow(sh)
	c.WatchShadow(sh)

	const n = 16
	for i := 0; i < n; i++ {
		inv := aspect.NewInvocation(context.Background(), "svc", "open", nil)
		inv.SetAttr(smuggledKey{}, true)
		adm, err := mod.Preactivation(inv)
		if err != nil {
			t.Fatalf("admission %d: %v", i, err)
		}
		mod.Postactivation(inv, adm)
	}
	mod.SetShadow(nil)
	sh.Stop()

	srv := httptest.NewServer(NewHTTPHandler(c))
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var dump ShadowDump
	if err := json.Unmarshal([]byte(get("/shadow")), &dump); err != nil {
		t.Fatalf("decode /shadow: %v", err)
	}
	if len(dump.Components) != 1 {
		t.Fatalf("/shadow components = %d, want 1", len(dump.Components))
	}
	sc := dump.Components[0]
	if sc.Component != "svc" || sc.SampleEvery != 1 {
		t.Errorf("shadow component header = %+v", sc)
	}
	if sc.Stats.Sampled != n {
		t.Errorf("/shadow sampled = %d, want %d", sc.Stats.Sampled, n)
	}
	if sc.Stats.VerdictDivergences == 0 {
		t.Fatalf("injected fault produced no verdict divergences at /shadow: %+v", sc.Stats)
	}
	if len(sc.Divergences) == 0 {
		t.Fatal("/shadow carries no divergence records")
	}
	for _, d := range sc.Divergences {
		if d.Class != "verdict" || d.Method != "open" {
			t.Errorf("unexpected divergence record: %+v", d)
		}
	}

	metrics := get("/metrics")
	for _, want := range []string{
		`am_shadow_sampled_total{component="svc"} 16`,
		`am_shadow_divergences_total{class="verdict",component="svc"}`,
		`am_shadow_divergences_total{class="stack",component="svc"} 0`,
		`am_shadow_replayed_total{component="svc"}`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, metrics)
		}
	}
	if strings.Contains(metrics, `am_shadow_divergences_total{class="verdict",component="svc"} 0`) {
		t.Fatal("verdict divergence counter stayed zero in /metrics")
	}

	var desc DescribeSnapshot
	if err := json.Unmarshal([]byte(get("/describe")), &desc); err != nil {
		t.Fatalf("decode /describe: %v", err)
	}
	if len(desc.Components) != 1 {
		t.Fatalf("/describe components = %d, want 1", len(desc.Components))
	}
	comp := desc.Components[0]
	if len(comp.Layers) != 1 || len(comp.Layers[0].Methods["open"]) != 1 {
		t.Errorf("/describe layers = %+v, want the base layer guarding open", comp.Layers)
	}
}

// TestShadowSnapshotEmpty: a collector with no shadows yields an empty,
// non-nil component list (stable JSON for older clients).
func TestShadowSnapshotEmpty(t *testing.T) {
	c := NewCollector()
	dump := c.ShadowSnapshot()
	if dump.Components == nil || len(dump.Components) != 0 {
		t.Fatalf("empty snapshot = %+v", dump)
	}
}
