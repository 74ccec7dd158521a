package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// phase is one measured stretch of a run: a warm-up that is driven but not
// recorded, then a fixed number of equal segments. Every end-to-end number
// is computed per segment and reported as the median over segments.
type phase struct {
	segments int
	segLen   time.Duration
	warmup   time.Duration
}

// snapshot is the process's resource use at a segment boundary.
type snapshot struct {
	t          time.Time
	cpuUs      float64
	mallocs    uint64
	goroutines int
	rssMB      float64
}

// mallocCount is runtime.MemStats.Mallocs without stopping the world.
func mallocCount() uint64 {
	s := [2]metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64() + s[1].Value.Uint64()
}

func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec)*1e6 + float64(ru.Utime.Usec+ru.Stime.Usec)
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// residentMB is the process's resident set right now (the second field of
// /proc/self/statm, in pages).
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

func takeSnapshot(t time.Time) snapshot {
	return snapshot{t: t, cpuUs: cpuMicros(), mallocs: mallocCount(), goroutines: runtime.NumGoroutine(), rssMB: residentMB()}
}

// sampleBudget is the number of latency samples kept per segment, over all
// callers. The buffers are a fixed size, so the harness's own memory does
// not grow with the throughput it measures (rss_mb would otherwise
// rise with every speed-up); a caller faster than its share keeps every
// stride-th sample, the stride chosen from its warm-up rate.
const sampleBudget = 32768

// callerRec is one caller's private tallies. Callers never share a record,
// so the hot loops take no lock and no atomic.
type callerRec struct {
	ops    []uint64
	failed []uint64
	lat    [][]uint32
	stride uint64
	tick   uint64
	_      [64]byte
}

func (cr *callerRec) sample(seg int, ns int64) {
	cr.tick++
	if cr.tick%cr.stride != 0 {
		return
	}
	buf := cr.lat[seg]
	if len(buf) == cap(buf) {
		return
	}
	if ns > int64(^uint32(0)) {
		ns = int64(^uint32(0))
	}
	cr.lat[seg] = append(buf, uint32(ns))
}

type recorder struct {
	ph      phase
	batch   int // ops per clock read; a latency sample is a whole batch's time
	callers []callerRec
	bounds  []snapshot      // segment boundaries, taken by caller 0
	segDur  []time.Duration // wall length of each segment
	start   time.Time
}

func newRecorder(callers, batch int, ph phase) *recorder {
	r := &recorder{
		ph:      ph,
		batch:   batch,
		callers: make([]callerRec, callers),
		bounds:  make([]snapshot, ph.segments+1),
		segDur:  make([]time.Duration, ph.segments),
	}
	per := sampleBudget / callers
	for c := range r.callers {
		cr := &r.callers[c]
		cr.ops = make([]uint64, ph.segments)
		cr.failed = make([]uint64, ph.segments)
		cr.lat = make([][]uint32, ph.segments)
		for s := range cr.lat {
			cr.lat[s] = make([]uint32, 0, per)
		}
		cr.stride = 1
	}
	for s := range r.segDur {
		r.segDur[s] = ph.segLen
	}
	return r
}

// begin stamps the start of the warm-up; callers are started after it.
func (r *recorder) begin() { r.start = time.Now() }

// segOf maps a completion time to its segment: -1 in the warm-up, and
// ph.segments or more once the timed phase is over.
func (r *recorder) segOf(t time.Time) int {
	d := t.Sub(r.start) - r.ph.warmup
	if d < 0 {
		return -1
	}
	return int(d / r.ph.segLen)
}

// setStride fixes the caller's sampling stride from its warm-up rate.
func (cr *callerRec) setStride(batches uint64, ph phase) {
	if ph.warmup <= 0 {
		return
	}
	expect := float64(batches) * float64(ph.segLen) / float64(ph.warmup)
	if c := float64(cap(cr.lat[0])); expect > c {
		cr.stride = uint64(expect/c) + 1
	}
}

// drive runs one closed-loop caller on the clock: it issues op after op,
// attributing each batch to the segment in which it completes, until the
// timed phase ends. One clock read covers a batch, so a batch larger than
// one reports its mean latency per op. It returns the ops issued, warm-up
// and the final overrunning batch included. Safe only for workloads in
// which a caller that stops cannot strand another (each caller's ops are
// self-balancing).
func (r *recorder) drive(c int, op func(i uint64) bool) (issued uint64) {
	cr := &r.callers[c]
	batch := r.batch
	seg := -1
	var warmBatches uint64
	t0 := time.Now()
	for {
		var fails uint64
		for j := 0; j < batch; j++ {
			if !op(issued) {
				fails++
			}
			issued++
		}
		t1 := time.Now()
		if s := r.segOf(t1); s != seg {
			if seg == -1 {
				cr.setStride(warmBatches, r.ph)
			}
			if c == 0 {
				for k := seg + 1; k <= s && k <= r.ph.segments; k++ {
					r.bounds[k] = takeSnapshot(t1)
				}
			}
			seg = s
		}
		switch {
		case seg < 0:
			warmBatches++
		case seg >= r.ph.segments:
			return issued
		default:
			cr.ops[seg] += uint64(batch)
			cr.failed[seg] += fails
			cr.sample(seg, int64(t1.Sub(t0)))
		}
		t0 = t1
	}
}

// driveCounted is drive for workloads whose callers block on each other:
// every caller issues exactly warmOps and then segOps per segment, so all
// of them finish together and none is left parked. Segment boundaries are
// caller 0's counts; countOps says whether this caller's ops are the
// workload's ops (the consumer of a hand-off only contributes latency
// samples and failures).
func (r *recorder) driveCounted(c int, warmOps, segOps uint64, countOps bool, op func(i uint64) bool) {
	cr := &r.callers[c]
	batch := r.batch
	var issued uint64
	for ; issued < warmOps; issued++ {
		op(issued)
	}
	cr.setStride(warmOps/uint64(batch), r.ph)
	t0 := time.Now()
	for seg := 0; seg < r.ph.segments; seg++ {
		if c == 0 {
			r.bounds[seg] = takeSnapshot(t0)
		}
		for done := uint64(0); done < segOps; done += uint64(batch) {
			var fails uint64
			for j := 0; j < batch; j++ {
				if !op(issued) {
					fails++
				}
				issued++
			}
			t1 := time.Now()
			if countOps {
				cr.ops[seg] += uint64(batch)
			}
			cr.failed[seg] += fails
			cr.sample(seg, int64(t1.Sub(t0)))
			t0 = t1
		}
		if c == 0 {
			r.segDur[seg] = t0.Sub(r.bounds[seg].t)
		}
	}
	if c == 0 {
		r.bounds[r.ph.segments] = takeSnapshot(t0)
	}
}

// phaseResult is one phase reduced to per-segment values of every
// end-to-end metric that is computed per segment.
type phaseResult struct {
	perSegment     map[string][]float64
	attempted      uint64
	failed         uint64
	minSamples     int // fewest latency samples any segment had
	goroutinesPeak int
}

// merge appends another phase of the same shape: its segments follow this
// phase's.
func (res *phaseResult) merge(o phaseResult) {
	for name, v := range o.perSegment {
		res.perSegment[name] = append(res.perSegment[name], v...)
	}
	res.attempted += o.attempted
	res.failed += o.failed
	res.minSamples = min(res.minSamples, o.minSamples)
	res.goroutinesPeak = max(res.goroutinesPeak, o.goroutinesPeak)
}

func (r *recorder) finish() phaseResult {
	res := phaseResult{perSegment: make(map[string][]float64, 7), minSamples: -1}
	for s := 0; s < r.ph.segments; s++ {
		var ops, failed uint64
		var lat []uint32
		for c := range r.callers {
			cr := &r.callers[c]
			ops += cr.ops[s]
			failed += cr.failed[s]
			lat = append(lat, cr.lat[s]...)
		}
		res.attempted += ops
		res.failed += failed
		if res.minSamples < 0 || len(lat) < res.minSamples {
			res.minSamples = len(lat)
		}
		if ops == 0 {
			continue
		}
		slices.Sort(lat)
		add := func(name string, v float64) { res.perSegment[name] = append(res.perSegment[name], v) }
		add("throughput_ops_s", float64(ops)/r.segDur[s].Seconds())
		perOp := 1e3 * float64(r.batch) // batch nanoseconds -> microseconds per op
		add("latency_p50_us", percentileU32(lat, 0.50)/perOp)
		add("latency_p99_us", percentileU32(lat, 0.99)/perOp)
		add("cpu_us_per_op", (r.bounds[s+1].cpuUs-r.bounds[s].cpuUs)/float64(ops))
		add("allocs_per_op", float64(r.bounds[s+1].mallocs-r.bounds[s].mallocs)/float64(ops))
		add("success_share", 1-float64(failed)/float64(ops))
		add("rss_mb", r.bounds[s+1].rssMB)
	}
	for _, b := range r.bounds {
		if b.goroutines > res.goroutinesPeak {
			res.goroutinesPeak = b.goroutines
		}
	}
	return res
}
