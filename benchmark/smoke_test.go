package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarations holds the harness's metric and workload tables equal to
// BENCHMARK.json: same names, units, directions and bounds, in both
// directions, and every name well formed.
func TestDeclarations(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is malformed", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	check := func(kind string, got []declJSON, want []metricDecl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(got), len(want))
		}
		byName := make(map[string]declJSON, len(got))
		for _, d := range got {
			if _, dup := byName[d.Name]; dup {
				t.Errorf("%s: %s declared twice", kind, d.Name)
			}
			byName[d.Name] = d
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("%s: %q (unit %q) is malformed", kind, d.Name, d.Unit)
			}
		}
		for _, w := range want {
			d, ok := byName[w.name]
			switch {
			case !ok:
				t.Errorf("%s: the harness emits %s, BENCHMARK.json does not declare it", kind, w.name)
			case d.Unit != w.unit || d.Better != w.better:
				t.Errorf("%s: %s is (%s, %s) in BENCHMARK.json, (%s, %s) in the harness", kind, w.name, d.Unit, d.Better, w.unit, w.better)
			case bounded && (d.Bound == nil || *d.Bound != w.bound):
				t.Errorf("%s: %s has bound %v in BENCHMARK.json, %v in the harness", kind, w.name, d.Bound, w.bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s: %s must not carry a bound", kind, w.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// TestSmoke runs every workload end to end and layer by layer for a timed
// phase of 300 ms with the correctness gates on, and checks that each run
// emits exactly the declared metrics with their declared units.
func TestSmoke(t *testing.T) {
	p := params{seed: 7, seconds: 0.3, callers: min(runtime.NumCPU(), 4), outDir: t.TempDir(), scale: 0.05}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measureUntraced(w, p)
			if err != nil {
				t.Fatal(err)
			}
			tp := p
			tp.traced = true
			layers, err := measureTraced(w, tp)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []*runRecord{e2e, layers} {
				for _, v := range rec.Violations {
					t.Errorf("gate: %s", v)
				}
				if rec.Attempted == 0 || rec.Failed != 0 || !rec.Correct {
					t.Errorf("attempted %d failed %d correct %v", rec.Attempted, rec.Failed, rec.Correct)
				}
				if rec.Env.GoVersion == "" || rec.Env.Kernel == "" || rec.Env.Segments != numSegments || rec.Env.Seed != p.seed {
					t.Errorf("incomplete environment stamp: %+v", rec.Env)
				}
			}
			if len(e2e.EndToEnd) != len(endToEnd) || len(layers.PerLayer) != len(perLayer) {
				t.Errorf("emitted %d end-to-end and %d layer metrics, declared %d and %d",
					len(e2e.EndToEnd), len(layers.PerLayer), len(endToEnd), len(perLayer))
			}
			for _, d := range endToEnd {
				if v, ok := e2e.EndToEnd[d.name]; !ok || v.Unit != d.unit || v.Value <= 0 {
					t.Errorf("%s = %v %q, want a positive value in %s", d.name, v.Value, v.Unit, d.unit)
				}
			}
			for _, d := range perLayer {
				if v, ok := layers.PerLayer[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("%s: emitted=%v unit %q, want unit %s", d.name, ok, v.Unit, d.unit)
				}
			}
			if _, err := os.Stat(filepath.Join(p.outDir, "trace-"+w.name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	val := func(median, spread float64) e2eValue {
		return e2eValue{summary: summary{Median: median, Spread: spread}}
	}
	lower := metricDecl{"latency_p50_us", "us", "lower", 0.10}
	higher := metricDecl{"throughput_ops_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d    metricDecl
		a, b e2eValue
		want string
	}{
		{lower, val(100, 0.02), val(101, 0.02), "same"},
		{lower, val(100, 0.02), val(95, 0.02), "better"},
		{lower, val(100, 0.02), val(112, 0.02), "worse"},
		{lower, val(100, 0.12), val(80, 0.02), "unresolved"},
		{higher, val(100, 0.02), val(112, 0.02), "better"},
		{higher, val(100, 0.02), val(88, 0.02), "worse"},
		{higher, val(100, 0.02), val(99, 0.15), "unresolved"},
	} {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: a=%v b=%v: verdict %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
