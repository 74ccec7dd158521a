// Command benchmark is the repository's one benchmark of the guarded call:
// five closed-loop workloads from in-process admission to a forwarded
// cluster call, each measured end to end (tracing off) and layer by layer
// (tracing on). See README.md in this directory.
//
//	go run ./benchmark -seed 7                 # every workload, each run in a fresh process
//	go run ./benchmark -workload rpc_sequential -seed 7 -seconds 10 -trace 0
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const schema = "benchmark/v1"

// numSegments is fixed: a shorter run shortens the segments, never drops one.
const numSegments = 10

// params is everything that shapes one run of one workload.
type params struct {
	seed    int64
	seconds float64 // length of the timed phase of the untraced run
	callers int
	traced  bool
	outDir  string
	// scale shrinks the set-up repetitions, warm-ups and probe iteration
	// counts; 1 everywhere but the smoke test.
	scale float64
}

// envStamp says where and how a number was produced; it heads every result
// and trace file.
type envStamp struct {
	Header         string  `json:"header"`
	Commit         string  `json:"commit"`
	GoVersion      string  `json:"go_version"`
	Kernel         string  `json:"kernel"`
	NumCPU         int     `json:"num_cpu"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	Callers        int     `json:"callers"`
	Seed           int64   `json:"seed"`
	SegmentSeconds float64 `json:"segment_seconds"`
	Segments       int     `json:"segments"`
	Traced         bool    `json:"traced"`
}

func kernelRelease() string {
	var u syscall.Utsname
	if err := syscall.Uname(&u); err != nil {
		return "unknown"
	}
	b := make([]byte, 0, len(u.Release))
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // an exported checkout has no .git
	}
	return strings.TrimSpace(string(out))
}

func stampEnv(p params, segLen time.Duration) envStamp {
	e := envStamp{
		Commit:         gitCommit(),
		GoVersion:      runtime.Version(),
		Kernel:         kernelRelease(),
		NumCPU:         runtime.NumCPU(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Callers:        p.callers,
		Seed:           p.seed,
		SegmentSeconds: segLen.Seconds(),
		Segments:       numSegments,
		Traced:         p.traced,
	}
	e.Header = fmt.Sprintf("%d-core result (GOMAXPROCS=%d, num_cpu=%d)", e.GOMAXPROCS, e.GOMAXPROCS, e.NumCPU)
	if e.GOMAXPROCS == 1 {
		e.Header = "ONE-CORE RESULT: nothing here ran in parallel (GOMAXPROCS=1)"
	}
	return e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// e2eValue is one end-to-end metric of one run: the median over the run's
// segments (or set-ups), with the quartile spread beside it.
type e2eValue struct {
	metricValue
	summary
	Over string `json:"over"` // what the samples are: segments or setups
}

// runRecord is the full result of one workload in one process.
type runRecord struct {
	Schema     string                 `json:"schema"`
	Env        envStamp               `json:"env"`
	Workload   string                 `json:"workload"`
	Op         string                 `json:"op"`
	Correct    bool                   `json:"correct"`
	Violations []string               `json:"violations,omitempty"`
	Attempted  uint64                 `json:"attempted"`
	Failed     uint64                 `json:"failed"`
	EndToEnd   map[string]e2eValue    `json:"end_to_end,omitempty"`
	PerLayer   map[string]metricValue `json:"per_layer,omitempty"`
}

func listenLoopback() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// measureUntraced is the end-to-end run: set the workload up (several
// times, for setup_s), drive the closed loop with tracing off, check the
// outputs.
func measureUntraced(w workload, p params) (*runRecord, error) {
	in := genInputs(p.seed)
	setups := int(float64(w.setups)*p.scale + 0.5)
	if setups < 1 {
		setups = 1
	}
	var inst instance
	took := make([]float64, 0, setups)
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		next, err := w.setup(in, p.callers, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
		inst = next
	}
	defer inst.close()

	ph := phase{segments: numSegments, segLen: seconds(p.seconds / numSegments), warmup: seconds(2 * p.scale)}
	res := inst.run(ph, nil)
	rec := &runRecord{
		Schema: schema, Env: stampEnv(p, ph.segLen), Workload: w.name, Op: w.op,
		Attempted: res.attempted, Failed: res.failed,
		Violations: inst.gate(),
		EndToEnd:   make(map[string]e2eValue, len(endToEnd)),
	}
	if res.failed > 0 {
		rec.Violations = append(rec.Violations, fmt.Sprintf("%d of %d ops failed or returned a wrong reply", res.failed, res.attempted))
	}
	if res.attempted == 0 {
		rec.Violations = append(rec.Violations, "no op completed inside the timed phase")
	}
	rec.Correct = len(rec.Violations) == 0
	for _, d := range endToEnd {
		v := e2eValue{Over: "segments"}
		switch d.name {
		case "setup_s":
			v.summary, v.Over = summarize(took), "setups"
		default:
			v.summary = summarize(res.perSegment[d.name])
		}
		v.metricValue = metricValue{Value: v.Median, Unit: d.unit}
		rec.EndToEnd[d.name] = v
	}
	return rec, nil
}

// traceFile is what a traced run writes beside its result.
type traceFile struct {
	Schema   string   `json:"schema"`
	Env      envStamp `json:"env"`
	Workload string   `json:"workload"`
	Spans    []span   `json:"spans"`
}

// measureTraced is the per-layer run: one deployment, a traced phase
// between two halves of an untraced reference phase (the throughput
// difference is the tracing overhead), the layers' counters at quiescence,
// then the isolated probes of the layers this workload loads.
func measureTraced(w workload, p params) (*runRecord, error) {
	in := genInputs(p.seed)
	tr := newTracer(w.sites(p.callers))
	inst, err := w.setup(in, p.callers, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer inst.close()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// Reference, traced, reference: a drift over the process's life (heap
	// growth, the cluster's replica) falls on both sides of the comparison.
	refPh := phase{segments: numSegments / 2, segLen: seconds(p.seconds / 4 / numSegments), warmup: seconds(p.scale / 2)}
	trPh := phase{segments: numSegments, segLen: seconds(p.seconds / 2 / numSegments), warmup: seconds(p.scale / 2)}
	ref := inst.run(refPh, nil)
	traced := inst.run(trPh, tr)
	ref.merge(inst.run(refPh, nil))
	runtime.ReadMemStats(&after)

	rec := &runRecord{
		Schema: schema, Env: stampEnv(p, trPh.segLen), Workload: w.name, Op: w.op,
		Attempted: ref.attempted + traced.attempted, Failed: ref.failed + traced.failed,
		Violations: inst.gate(),
		PerLayer:   make(map[string]metricValue, len(perLayer)),
	}
	m := make(map[string]float64, len(perLayer))
	if rec.Failed > 0 {
		rec.Violations = append(rec.Violations, fmt.Sprintf("%d of %d ops failed or returned a wrong reply", rec.Failed, rec.Attempted))
	}
	if rec.Attempted == 0 {
		rec.Violations = append(rec.Violations, "no op completed inside the timed phases")
	}
	// The tail latency comes from the untraced reference phase: median of
	// the per-segment p99s.
	m["client.latency_p99_us"] = median(ref.perSegment["latency_p99_us"])
	if ref.minSamples < 1000 && p.scale == 1 {
		fmt.Fprintf(os.Stderr, "benchmark: %s: a reference segment had only %d latency samples; client.latency_p99_us needs 1000\n", w.name, ref.minSamples)
	}
	if base := median(ref.perSegment["throughput_ops_s"]); base > 0 {
		m["trace.overhead_pct"] = (1 - median(traced.perSegment["throughput_ops_s"])/base) * 100
	}
	m["runtime.gc_cycles"] = float64(after.NumGC - before.NumGC)
	m["runtime.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	m["runtime.goroutines_peak"] = float64(max(ref.goroutinesPeak, traced.goroutinesPeak))
	m["runtime.rss_peak_mb"] = peakRSSMB()

	spans := tr.spans()
	if err := inst.layers(m, spans, p.scale); err != nil {
		return nil, fmt.Errorf("%s: layers: %w", w.name, err)
	}
	for _, probe := range w.probes {
		if err := probe(in, p.scale, m); err != nil {
			return nil, fmt.Errorf("%s: probes: %w", w.name, err)
		}
	}
	for _, name := range mustBeZero {
		if m[name] != 0 {
			rec.Violations = append(rec.Violations, fmt.Sprintf("%s is %g, must be 0", name, m[name]))
		}
	}
	rec.Correct = len(rec.Violations) == 0
	for _, d := range perLayer {
		rec.PerLayer[d.name] = metricValue{Value: m[d.name], Unit: d.unit}
	}
	for name := range m {
		if _, declared := rec.PerLayer[name]; !declared {
			return nil, fmt.Errorf("%s: undeclared layer metric %q", w.name, name)
		}
	}
	err = writeJSON(filepath.Join(p.outDir, "trace-"+w.name+".json"),
		traceFile{Schema: schema, Env: rec.Env, Workload: w.name, Spans: spans})
	return rec, err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func recordPath(outDir, workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	return filepath.Join(outDir, "run-"+workload+"-"+kind+".json")
}

// runOne measures one workload in this process, prints every metric by
// name with its unit, writes the full record, and ends standard output
// with the one-line JSON result.
func runOne(name string, p params) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	measure := measureUntraced
	if p.traced {
		measure = measureTraced
	}
	rec, err := measure(w, p)
	if err != nil {
		return err
	}
	if err := writeJSON(recordPath(p.outDir, name, p.traced), rec); err != nil {
		return err
	}
	fmt.Printf("# %s\n# workload %s (op: %s) seed %d commit %s %s kernel %s callers %d segments %dx%.2fs\n",
		rec.Env.Header, rec.Workload, rec.Op, rec.Env.Seed, rec.Env.Commit, rec.Env.GoVersion,
		rec.Env.Kernel, rec.Env.Callers, rec.Env.Segments, rec.Env.SegmentSeconds)
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted uint64                 `json:"attempted"`
		Failed    uint64                 `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, rec.PerLayer}
	if !p.traced {
		line.Metrics = make(map[string]metricValue, len(rec.EndToEnd))
		for _, d := range endToEnd {
			v := rec.EndToEnd[d.name]
			line.Metrics[d.name] = v.metricValue
			fmt.Printf("%-36s %14.4f %-6s q1 %.4f q3 %.4f spread %.1f%% over %d %s\n",
				d.name, v.Value, v.Unit, v.Q1, v.Q3, 100*v.Spread, len(v.Samples), v.Over)
		}
	} else {
		for _, d := range perLayer {
			fmt.Printf("%-36s %14.4f %s\n", d.name, rec.PerLayer[d.name].Value, d.unit)
		}
	}
	for _, v := range rec.Violations {
		fmt.Fprintln(os.Stderr, "benchmark: gate:", v)
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !rec.Correct {
		return fmt.Errorf("%s: correctness gate failed", name)
	}
	return nil
}

// resultFile is the report of a whole set: every workload, end to end and
// layer by layer.
type resultFile struct {
	Schema    string                    `json:"schema"`
	Env       envStamp                  `json:"env"`
	Workloads map[string]workloadResult `json:"workloads"`
}

type workloadResult struct {
	Op        string                 `json:"op"`
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	EndToEnd  map[string]e2eValue    `json:"end_to_end"`
	PerLayer  map[string]metricValue `json:"per_layer"`
}

// runAll measures every workload, each run in a child process of its own
// so that each starts from a fresh heap: the untraced end-to-end run, then
// the traced per-layer run.
func runAll(p params) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(name string, traced bool) (*runRecord, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(p.seed),
			"-seconds", fmt.Sprint(p.seconds), "-trace", trace, "-out", p.outDir)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("%s (trace %s): %w", name, trace, err)
		}
		data, err := os.ReadFile(recordPath(p.outDir, name, traced))
		if err != nil {
			return nil, err
		}
		rec := new(runRecord)
		return rec, json.Unmarshal(data, rec)
	}

	out := resultFile{Schema: schema, Workloads: make(map[string]workloadResult, len(workloads))}
	for _, w := range workloads {
		e2e, err := child(w.name, false)
		if err != nil {
			return err
		}
		layers, err := child(w.name, true)
		if err != nil {
			return err
		}
		out.Env = e2e.Env
		wr := workloadResult{Op: w.op, Correct: e2e.Correct && layers.Correct,
			Attempted: e2e.Attempted, Failed: e2e.Failed,
			EndToEnd: e2e.EndToEnd, PerLayer: layers.PerLayer}
		out.Workloads[w.name] = wr
		printWorkload(w.name, wr)
	}
	fmt.Printf("# %s; commit %s %s kernel %s callers %d seed %d segments %dx%.2fs\n",
		out.Env.Header, out.Env.Commit, out.Env.GoVersion, out.Env.Kernel, out.Env.Callers,
		out.Env.Seed, out.Env.Segments, out.Env.SegmentSeconds)
	return writeJSON(filepath.Join(p.outDir, "result.json"), out)
}

func printWorkload(name string, wr workloadResult) {
	fmt.Printf("== %s (op: %s) correct=%v attempted=%d failed=%d\n", name, wr.Op, wr.Correct, wr.Attempted, wr.Failed)
	for _, d := range endToEnd {
		v := wr.EndToEnd[d.name]
		fmt.Printf("%-36s %14.4f %-6s spread %.1f%% over %d %s\n", d.name, v.Value, v.Unit, 100*v.Spread, len(v.Samples), v.Over)
	}
	names := make([]string, 0, len(wr.PerLayer))
	for n := range wr.PerLayer {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-36s %14.4f %s\n", n, wr.PerLayer[n].Value, wr.PerLayer[n].Unit)
	}
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload in this process (default: all, each in a child process)")
		seed         = flag.Int64("seed", 1, "seed of the generated inputs")
		secs         = flag.Float64("seconds", 20, "length of the timed phase, split into 10 segments")
		trace        = flag.Int("trace", 0, "with -workload: 0 = end-to-end metrics, tracing off; 1 = per-layer metrics from the traced run")
		outDir       = flag.String("out", filepath.Join("benchmark", "out"), "directory for result and trace files")
		compare      = flag.Bool("compare", false, "compare two result files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if *secs <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: -seconds must be positive, -trace 0 or 1")
		os.Exit(2)
	}

	// Every caller in this system blocks on its reply, so the load is a
	// closed loop: one caller per processor, up to four.
	callers := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(callers)
	p := params{seed: *seed, seconds: *secs, callers: callers, traced: *trace == 1, outDir: *outDir, scale: 1}

	var err error
	if *workloadName != "" {
		// A hung op must not hang the run. A run of the contract's length
		// has 180 s; a longer -seconds buys a proportionally longer limit.
		limit := max(170*time.Second, seconds(3**secs)+time.Minute)
		time.AfterFunc(limit, func() {
			fmt.Fprintf(os.Stderr, "benchmark: watchdog: run exceeded %s\n", limit)
			os.Exit(3)
		})
		err = runOne(*workloadName, p)
	} else {
		err = runAll(p)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
