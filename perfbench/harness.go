package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"tango/internal/netsim"
	"tango/internal/pan"
)

// hostClock is the benchmark's only source of wall time.
var hostClock netsim.RealClock

// opRec is an op in flight: the wrappers charge check failures and spans to
// it.
type opRec struct {
	id   int64
	mu   sync.Mutex
	errs []string
}

func (o *opRec) fail(msg string) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.errs = append(o.errs, msg)
}

func (o *opRec) failures() []string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.errs...)
}

// opResult is one checked op.
type opResult struct {
	kind  string
	virt  time.Duration // on the simulation clock
	bytes int64         // verified body bytes, both directions
	// outcome is "ok", "blocked" (an expected strict-mode block) or the
	// first failed check.
	outcome string
}

func (r opResult) failed() bool { return r.outcome != "ok" && r.outcome != "blocked" }

// signature is the op's deterministic fingerprint: two runs of one seed
// must produce the same sequence.
func (r opResult) signature() string {
	return fmt.Sprintf("%s|%d|%d|%s", r.kind, r.virt, r.bytes, r.outcome)
}

// workload is a built world ready to run closed-loop units of work.
type workload interface {
	// unit runs unit number u (a user, a session or a group of transfers)
	// to completion and returns its ops in a deterministic order.
	unit(u int) ([]opResult, error)
	// env is the world the workload runs in.
	env() *env
	// mark snapshots the ingest accounting of the workload's shared
	// monitor, if it has one. The harness calls it at the start and end of
	// the timed phase of every run, traced or not, because reading the
	// accounting drains the monitor's rings.
	mark() (pan.IngestStats, bool)
	// close tears the world down, reporting what it left behind.
	close() teardown
}

// spec is a workload's fixed parameters.
type spec struct {
	name string
	// build assembles the world and its op stream from the seed.
	build func(seed int64, tr *tracer) (workload, error)
	// warmupUnits are run, checked, and not timed.
	warmupUnits int
	// measuredOps is the size of the op set the virtual metrics cover: the
	// first measuredOps timed ops, so they are a function of the seed alone.
	measuredOps int
	// chunkOps groups timed ops into chunks; cpu_ms_per_op is the median
	// of the chunks' CPU per op, so a burst of contention from outside the
	// process moves only the chunks it hits.
	chunkOps int
	// limits are the per-kind virtual latency limits, each at least twice
	// the slowest op of that kind in clean runs; a slower op fails.
	limits map[string]time.Duration
}

// runConfig selects how long a run measures and whether it is traced.
type runConfig struct {
	seed    int64
	seconds float64
	// ops, when positive, stops the timed phase after exactly that many ops
	// (rounded up to a unit boundary) instead of after seconds.
	ops    int
	setups int
	traced bool
}

// teardown is what a world left behind when it was closed.
type teardown struct {
	pendingTimers   int
	goroutinesDelta int
	violations      []string
}

// runResult is one run's raw measurements.
type runResult struct {
	setup     []float64 // seconds per world build
	warm      []opResult
	ops       []opResult // timed ops
	cpu       time.Duration
	chunkCPU  []float64 // ms of CPU per op in each full chunk
	wall      time.Duration
	mallocs   uint64
	allocated uint64
	liveHeap  float64 // mean live heap over the GC cycles of the measured ops
	faults    []string
	teardown  teardown
	layers    map[string]float64      // traced runs only
	spans     func(path string) error // writes a traced run's span log
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF cannot fail on a supported platform
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setupWarmups is how many untimed world builds precede the timed ones: a
// process's first builds run slower while its heap and code pages warm up.
const setupWarmups = 3

// timeBuild builds and tears down one world, returning the build's wall
// time in seconds.
func timeBuild(s *spec, seed int64) (float64, error) {
	runtime.GC()
	base := runtime.NumGoroutine()
	start := hostClock.Now()
	wl, err := s.build(seed, nil)
	if err != nil {
		return 0, err
	}
	d := hostClock.Since(start).Seconds()
	wl.close()
	settleGoroutines(base)
	return d, nil
}

// run builds the world, runs the warm-up and the timed phase, and tears
// down. With cfg.setups > 1 it times that many world builds for setup_s:
// the run's own build and others before and after the run, so that the
// median spans the run's whole length.
func run(s *spec, cfg runConfig) (*runResult, error) {
	res := &runResult{}
	var tr *tracer
	if cfg.traced {
		tr = newTracer()
	}
	before := 0
	if cfg.setups > 1 {
		before = setupWarmups + cfg.setups/2
	}
	for i := 0; i < before; i++ {
		d, err := timeBuild(s, cfg.seed)
		if err != nil {
			return nil, err
		}
		if i >= setupWarmups {
			res.setup = append(res.setup, d)
		}
	}
	runtime.GC()
	goroutines := runtime.NumGoroutine()
	start := hostClock.Now()
	wl, err := s.build(cfg.seed, tr)
	if err != nil {
		return nil, err
	}
	res.setup = append(res.setup, hostClock.Since(start).Seconds())

	u := 0
	for ; u < s.warmupUnits; u++ {
		ops, err := wl.unit(u)
		if err != nil {
			wl.close()
			return nil, err
		}
		res.warm = append(res.warm, s.checkLimit(ops)...)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0, alloc0 := ms.Mallocs, ms.TotalAlloc
	var marks []pan.IngestStats
	if st, ok := wl.mark(); ok {
		marks = append(marks, st)
	}
	if tr != nil {
		if err := tr.start(); err != nil {
			wl.close()
			return nil, err
		}
	}
	watch := watchLiveHeap()
	cpu0, wall0 := cpuTime(), hostClock.Now()
	chunkCPU, chunkOps := cpu0, 0
	for {
		ops, err := wl.unit(u)
		u++
		if err != nil {
			if tr != nil {
				tr.stop()
			}
			wl.close()
			return nil, err
		}
		res.ops = append(res.ops, s.checkLimit(ops)...)
		if res.liveHeap == 0 && len(res.ops) >= s.measuredOps {
			res.liveHeap = watch.stop()
		}
		if chunkOps += len(ops); chunkOps >= s.chunkOps {
			now := cpuTime()
			res.chunkCPU = append(res.chunkCPU, float64(now-chunkCPU)/float64(time.Millisecond)/float64(chunkOps))
			chunkCPU, chunkOps = now, 0
		}
		if cfg.ops > 0 {
			if len(res.ops) >= cfg.ops {
				break
			}
		} else if len(res.ops) >= s.measuredOps && hostClock.Since(wall0).Seconds() >= cfg.seconds {
			break
		}
	}
	res.cpu, res.wall = cpuTime()-cpu0, hostClock.Since(wall0)
	runtime.ReadMemStats(&ms)
	res.mallocs, res.allocated = ms.Mallocs-mallocs0, ms.TotalAlloc-alloc0
	if res.liveHeap == 0 {
		res.liveHeap = watch.stop()
	}
	if tr != nil {
		tr.stop()
	}
	if st, ok := wl.mark(); ok {
		marks = append(marks, st)
	}
	res.faults = wl.env().faults.list()
	res.teardown = wl.close()
	res.teardown.goroutinesDelta = settleGoroutines(goroutines)
	for len(res.setup) < cfg.setups {
		d, err := timeBuild(s, cfg.seed)
		if err != nil {
			return nil, err
		}
		res.setup = append(res.setup, d)
	}
	if tr != nil {
		res.layers = tr.layers(res, marks)
		res.spans = tr.writeSpans
	}
	return res, nil
}

// checkLimit fails every op slower than the workload's virtual latency
// limit.
func (s *spec) checkLimit(ops []opResult) []opResult {
	for i := range ops {
		limit, ok := s.limits[ops[i].kind]
		switch {
		case ops[i].failed():
		case !ok:
			ops[i].outcome = "no latency limit for this kind of op"
		case ops[i].virt > limit:
			ops[i].outcome = fmt.Sprintf("virtual time %v over the %v limit", ops[i].virt, limit)
		}
	}
	return ops
}

// heapWatch averages the live heap over the GC cycles of a window.
type heapWatch struct {
	mu   sync.Mutex
	done bool
	sum  float64
	n    int
}

// watchLiveHeap starts sampling the live heap each GC cycle finds, from a
// finalizer that re-arms itself once per cycle.
func watchLiveHeap() *heapWatch {
	h := &heapWatch{}
	h.arm()
	return h
}

// gcSentinel is large enough and holds a pointer, so it is never batched
// by the tiny allocator and its finalizer runs once per GC cycle.
type gcSentinel struct {
	h   *heapWatch
	pad [64]byte
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcSentinel{h: h}, func(s *gcSentinel) { s.h.observe() })
}

func (h *heapWatch) observe() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.done {
		return
	}
	h.sum += float64(liveHeap())
	h.n++
	h.arm()
}

// stop ends the window and returns the mean live heap in bytes.
func (h *heapWatch) stop() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.done = true
	if h.n == 0 {
		return float64(liveHeap())
	}
	return h.sum / float64(h.n)
}

// liveHeap is the heap the last GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// settleGoroutines waits briefly for exiting goroutines and returns how many
// more are alive than before the world was built.
func settleGoroutines(base int) int {
	deadline := hostClock.Now().Add(500 * time.Millisecond)
	for runtime.NumGoroutine() > base && hostClock.Now().Before(deadline) {
		runtime.Gosched()
		hostClock.Sleep(time.Millisecond)
	}
	return runtime.NumGoroutine() - base
}

// measured returns the op set the virtual metrics cover.
func (r *runResult) measured(s *spec) []opResult {
	if len(r.ops) > s.measuredOps {
		return r.ops[:s.measuredOps]
	}
	return r.ops
}

// all returns the warm-up and timed ops in order.
func (r *runResult) all() []opResult {
	return append(append([]opResult(nil), r.warm...), r.ops...)
}

// failures counts failed ops over warm-up and timed ops.
func (r *runResult) failures() (attempted, failed int, first string) {
	for _, op := range r.all() {
		attempted++
		if op.failed() {
			if failed == 0 {
				first = op.kind + ": " + op.outcome
			}
			failed++
		}
	}
	return attempted, failed, first
}

// cpuPerOp is the median of the chunks' CPU per op, or the mean over the
// timed phase when it was shorter than one chunk.
func (r *runResult) cpuPerOp() float64 {
	if len(r.chunkCPU) == 0 {
		return float64(r.cpu) / float64(time.Millisecond) / float64(len(r.ops))
	}
	return median(r.chunkCPU)
}

// quantile is the linearly interpolated q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the untraced run's user-visible metrics.
func endToEnd(s *spec, r *runResult) map[string]metric {
	meas := r.measured(s)
	virt := make([]float64, len(meas))
	var virtSum time.Duration
	var bytes int64
	for i, op := range meas {
		virt[i] = float64(op.virt) / float64(time.Millisecond)
		virtSum += op.virt
		bytes += op.bytes
	}
	sort.Float64s(virt)
	n := float64(len(r.ops))
	return map[string]metric{
		"setup_s":           {median(r.setup), "s"},
		"virt_ms_p50":       {quantile(virt, 0.5), "ms"},
		"virt_ms_p90":       {quantile(virt, 0.9), "ms"},
		"goodput_virt_mbps": {float64(bytes) * 8 / virtSum.Seconds() / 1e6, "Mbit/s"},
		"cpu_ms_per_op":     {r.cpuPerOp(), "ms"},
		"allocs_per_op":     {float64(r.mallocs) / n, "count"},
		"alloc_kib_per_op":  {float64(r.allocated) / 1024 / n, "KiB"},
		"live_heap_mib":     {r.liveHeap / (1 << 20), "MiB"},
	}
}

// describe summarizes a run for standard error: counts, the first failure,
// setup times, CPU per chunk, and each kind of op's virtual times.
func describe(s *spec, r *runResult) string {
	attempted, failed, first := r.failures()
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d timed ops (+%d warm-up) in %.2fs wall, %.2fs CPU; %d/%d failed",
		s.name, len(r.ops), len(r.warm), r.wall.Seconds(), r.cpu.Seconds(), failed, attempted)
	if first != "" {
		fmt.Fprintf(&b, " (first: %s)", first)
	}
	fmt.Fprintf(&b, "\n  setups %.3f s\n  CPU ms per op by chunk of %d ops: %.2f", r.setup, s.chunkOps, r.chunkCPU)
	byKind := make(map[string][]float64)
	for _, op := range r.measured(s) {
		byKind[op.kind] = append(byKind[op.kind], float64(op.virt)/float64(time.Millisecond))
	}
	kinds := make([]string, 0, len(byKind))
	for k := range byKind {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		v := byKind[k]
		sort.Float64s(v)
		fmt.Fprintf(&b, "\n  %-14s n=%-4d virtual ms min %.1f p50 %.1f max %.1f", k, len(v), v[0], quantile(v, 0.5), v[len(v)-1])
	}
	return b.String()
}
