package obs

// The HTTP introspection surface. NewHTTPHandler serves these endpoints
// off a Collector:
//
//	/metrics   Prometheus text exposition: event-derived instruments plus
//	           exact pull-side aggregates from every watched source.
//	/trace     JSON dump of recent lifecycle events (?n= limits, newest
//	           kept), with the cumulative drop counter.
//	/describe  JSON structural snapshot of every watched source: layers,
//	           per-method aspect stacks, admission domains, stats, queues.
//	/shadow    JSON shadow-admission stats and recent divergences.
//	/cluster   JSON ownership view of the distributed admission plane:
//	           members, domain owners, lease terms, plane counters.
//
// All handlers read atomically-published or mutex-copied state; scraping
// never blocks the admission path (at worst a /trace snapshot makes a
// concurrent same-domain ring write drop, which the drop counter records).

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/moderator"
	"repro/internal/waitq"
)

// TraceDump is the /trace response body.
type TraceDump struct {
	Drops  uint64  `json:"drops"`
	Events []Event `json:"events"`
}

// DescribeAspect is one aspect in a /describe stack.
type DescribeAspect struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
}

// DescribeLayer is one composition layer in a /describe snapshot.
type DescribeLayer struct {
	Name    string                      `json:"name"`
	Methods map[string][]DescribeAspect `json:"methods"`
}

// DescribeComponent is one watched source's structural snapshot.
type DescribeComponent struct {
	Name    string                 `json:"name"`
	Epoch   uint64                 `json:"epoch,omitempty"`
	Canary  *moderator.CanaryInfo  `json:"canary,omitempty"`
	Layers  []DescribeLayer        `json:"layers"`
	Domains [][]string             `json:"domains,omitempty"`
	Stats   moderator.Stats        `json:"stats"`
	Queues  map[string]waitq.Stats `json:"queues,omitempty"`
	Parked  map[string]int         `json:"parked,omitempty"`
}

// DescribeSnapshot is the /describe response body.
type DescribeSnapshot struct {
	SampleEvery int                 `json:"sample_every"`
	Components  []DescribeComponent `json:"components"`
}

// Describe builds the introspection snapshot served at /describe.
func (c *Collector) Describe() DescribeSnapshot {
	snap := DescribeSnapshot{SampleEvery: c.every}
	for _, s := range c.watched() {
		comp := DescribeComponent{
			Name:   s.Name(),
			Stats:  s.Stats(),
			Queues: s.QueueStats(),
		}
		for _, li := range s.Describe() {
			dl := DescribeLayer{Name: li.Name, Methods: make(map[string][]DescribeAspect, len(li.Methods))}
			for m, infos := range li.Methods {
				stack := make([]DescribeAspect, 0, len(infos))
				for _, ai := range infos {
					stack = append(stack, DescribeAspect{Name: ai.Name, Kind: string(ai.Kind)})
				}
				dl.Methods[m] = stack
			}
			comp.Layers = append(comp.Layers, dl)
		}
		if ds, ok := s.(domainsSource); ok {
			comp.Domains = ds.Domains()
		}
		if es, ok := s.(epochSource); ok {
			comp.Epoch = es.Epoch()
			if info, staged := es.CanaryInfo(); staged {
				comp.Canary = &info
			}
		}
		parked := make(map[string]int)
		for q := range comp.Queues {
			if i := strings.IndexByte(q, '/'); i > 0 {
				m := q[:i]
				if _, seen := parked[m]; !seen {
					parked[m] = s.Waiting(m)
				}
			}
		}
		if len(parked) > 0 {
			comp.Parked = parked
		}
		snap.Components = append(snap.Components, comp)
	}
	return snap
}

// DefaultTraceLimit bounds /trace responses when no ?n= is given.
const DefaultTraceLimit = 256

// NewHTTPHandler returns the introspection mux for a collector.
func NewHTTPHandler(c *Collector) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = c.reg.WritePrometheus(w)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, r *http.Request) {
		n := DefaultTraceLimit
		if raw := r.URL.Query().Get("n"); raw != "" {
			if v, err := strconv.Atoi(raw); err == nil && v > 0 {
				n = v
			}
		}
		dump := TraceDump{Drops: c.Drops(), Events: c.Events(n)}
		if dump.Events == nil {
			dump.Events = []Event{}
		}
		writeJSON(w, dump)
	})
	mux.HandleFunc("/describe", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.Describe())
	})
	mux.HandleFunc("/shadow", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.ShadowSnapshot())
	})
	mux.HandleFunc("/cluster", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, c.ClusterSnapshot())
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
