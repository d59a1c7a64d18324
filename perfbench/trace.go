package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/dataplane"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/proxy"
	"tango/internal/segment"
)

// Span names, one per layer boundary the benchmark wraps.
const (
	spanOp         = "op"
	spanIntercept  = "browser.intercept"
	spanProcessing = "proxy.processing"
	spanProxy      = "proxy.request"
	spanRank       = "pan.rank"
	spanOrigin     = "webserver.request"
)

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 20

// span is one timed interval at a layer boundary. Virtual times are
// nanoseconds on the simulation clock since the tracer started; host times
// are wall nanoseconds since then. Op is the page load or transfer the span
// belongs to (0 when no single op owns it, such as an origin request while
// two users' ops are in flight).
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	Parent int    `json:"parent"` // index of the op span, -1 for none
	VStart int64  `json:"vstart_ns"`
	VEnd   int64  `json:"vend_ns"`
	HStart int64  `json:"hstart_ns"`
	HEnd   int64  `json:"hend_ns"`
	Info   string `json:"info,omitempty"`
	// VSelf is the virtual time not covered by the span's children.
	VSelf int64 `json:"vself_ns"`
}

// tracer measures each layer from outside the program: it wraps the public
// hooks and interfaces, reads public counters, and profiles the process.
// Counters only move between start and stop, so warm-up is excluded.
type tracer struct {
	active atomic.Bool
	e      *env
	v0, h0 time.Time

	mu      sync.Mutex
	spans   []span
	dropped int
	opSpan  map[int64]int
	open    map[*opRec]bool // ops in flight, to attribute origin requests

	intercept, processing, proxyVirt []time.Duration
	subreq                           int64
	proxyVia                         map[string]int64
	ranks, rankCands                 int64
	rankHost                         time.Duration
	reports, reportFails             int64
	probes                           int64
	originReq, originBytes           int64

	striped  int64
	routers0 dataplane.RouterStats
	links0   netsim.LinkStats
	routers  dataplane.RouterStats
	links    netsim.LinkStats

	prof bytes.Buffer
}

func newTracer() *tracer {
	return &tracer{opSpan: make(map[int64]int), open: make(map[*opRec]bool), proxyVia: make(map[string]int64)}
}

// attach points the tracer at the world being built (the last one wins
// when a run builds several).
func (t *tracer) attach(e *env) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.e = e
}

func (t *tracer) start() error {
	t.mu.Lock()
	t.v0, t.h0 = t.e.w.Clock.Now(), hostClock.Now()
	t.routers0, t.links0 = t.packetCounters()
	t.mu.Unlock()
	t.active.Store(true)
	return pprof.StartCPUProfile(&t.prof)
}

func (t *tracer) stop() {
	pprof.StopCPUProfile()
	t.active.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.routers, t.links = t.packetCounters()
}

// packetCounters sums the routers' and links' public counters.
func (t *tracer) packetCounters() (dataplane.RouterStats, netsim.LinkStats) {
	var rs dataplane.RouterStats
	for _, as := range t.e.w.Topo.ASes() {
		s := t.e.w.DW.Router(as.IA).Stats()
		rs.Forwarded += s.Forwarded
		rs.Delivered += s.Delivered
		rs.BadMAC += s.BadMAC + s.Expired + s.WrongIA + s.NoInterface + s.ParseError +
			s.WrongIngress + s.Unauthorized + s.NoLocalHosts + s.SendRejected
	}
	var ls netsim.LinkStats
	for _, l := range t.e.w.DW.Links() {
		for end := 0; end < 2; end++ {
			s := l.Stats(end)
			ls.Delivered += s.Delivered
			ls.Lost += s.Lost + s.TooBig
			ls.Bytes += s.Bytes
		}
	}
	return rs, ls
}

// stripedCount reads how many of a client's proxied requests were striped.
func stripedCount(c *client) int {
	if c.cfg.stripe == nil {
		return 0
	}
	n := 0
	for _, r := range c.p.Stats().Records() {
		if r.Striped {
			n++
		}
	}
	return n
}

// clientClosed counts a departing client's striped requests. Every client
// lives within one unit, so its requests are all timed or all warm-up.
func (t *tracer) clientClosed(c *client) {
	if !t.active.Load() {
		return
	}
	n := stripedCount(c)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.striped += int64(n)
}

// appendLocked appends a span parented to its op's span.
func (t *tracer) appendLocked(name string, op *opRec, v0, v1, h0, h1 time.Time, info string) int {
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	s := span{Name: name, Parent: -1, Info: info,
		VStart: int64(v0.Sub(t.v0)), VEnd: int64(v1.Sub(t.v0)),
		HStart: int64(h0.Sub(t.h0)), HEnd: int64(h1.Sub(t.h0))}
	if op != nil {
		s.Op = op.id
		if i, ok := t.opSpan[op.id]; ok {
			s.Parent = i
		}
	}
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

func (t *tracer) beginOp(op *opRec, kind string) {
	if !t.active.Load() {
		return
	}
	v, h := t.e.w.Clock.Now(), hostClock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.open[op] = true
	if i := t.appendLocked(spanOp, nil, v, v, h, h, kind); i >= 0 {
		t.spans[i].Op = op.id
		t.opSpan[op.id] = i
	}
}

func (t *tracer) endOp(op *opRec, pl *browser.PageLoad) {
	if !t.active.Load() {
		return
	}
	v, h := t.e.w.Clock.Now(), hostClock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.open, op)
	if pl != nil {
		t.subreq += int64(len(pl.Resources))
	}
	if i, ok := t.opSpan[op.id]; ok {
		t.spans[i].VEnd = int64(v.Sub(t.v0))
		t.spans[i].HEnd = int64(h.Sub(t.h0))
	}
}

// hook wraps a browser.Config.Intercept or proxy.Config.Processing hook.
func (t *tracer) hook(c *client, name string, inner func()) func() {
	if inner == nil {
		return nil
	}
	clock := t.e.w.Clock
	return func() {
		if !t.active.Load() {
			inner()
			return
		}
		v0, h0 := clock.Now(), hostClock.Now()
		inner()
		v1, h1 := clock.Now(), hostClock.Now()
		t.mu.Lock()
		defer t.mu.Unlock()
		t.appendLocked(name, c.cur.Load(), v0, v1, h0, h1, "")
		if name == spanIntercept {
			t.intercept = append(t.intercept, v1.Sub(v0))
		} else {
			t.processing = append(t.processing, v1.Sub(v0))
		}
	}
}

// proxyHandler wraps the proxy's http.Handler.
func (t *tracer) proxyHandler(c *client, h http.Handler) http.Handler {
	clock := t.e.w.Clock
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.active.Load() {
			h.ServeHTTP(w, r)
			return
		}
		v0, h0 := clock.Now(), hostClock.Now()
		h.ServeHTTP(w, r)
		v1, h1 := clock.Now(), hostClock.Now()
		via := w.Header().Get(proxy.HeaderVia)
		t.mu.Lock()
		defer t.mu.Unlock()
		t.appendLocked(spanProxy, c.cur.Load(), v0, v1, h0, h1, via)
		t.proxyVirt = append(t.proxyVirt, v1.Sub(v0))
		t.proxyVia[via]++
	})
}

// serveOrigin runs an origin handler, counting requests and body bytes.
func (t *tracer) serveOrigin(h http.Handler, w http.ResponseWriter, r *http.Request) {
	if !t.active.Load() {
		h.ServeHTTP(w, r)
		return
	}
	clock := t.e.w.Clock
	cw := &countWriter{ResponseWriter: w}
	v0, h0 := clock.Now(), hostClock.Now()
	h.ServeHTTP(cw, r)
	v1, h1 := clock.Now(), hostClock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	var owner *opRec
	if len(t.open) == 1 {
		for op := range t.open {
			owner = op
		}
	}
	t.appendLocked(spanOrigin, owner, v0, v1, h0, h1, r.Host+r.URL.Path)
	t.originReq++
	t.originBytes += cw.n
}

type countWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// selector wraps a client's path selector. It forwards every interface the
// program looks for (BatchSink, HealthExporter) so that the traced program
// takes the same code paths as the untraced one.
func (t *tracer) selector(c *client, inner pan.Selector) pan.Selector {
	return &tracedSelector{t: t, c: c, inner: inner}
}

type tracedSelector struct {
	t     *tracer
	c     *client
	inner pan.Selector
}

func (s *tracedSelector) Rank(dst addr.IA, paths []*segment.Path) []pan.Candidate {
	t := s.t
	if !t.active.Load() {
		return s.inner.Rank(dst, paths)
	}
	v, h0 := t.e.w.Clock.Now(), hostClock.Now()
	out := s.inner.Rank(dst, paths)
	h1 := hostClock.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.appendLocked(spanRank, s.c.cur.Load(), v, v, h0, h1, dst.String())
	t.ranks++
	t.rankCands += int64(len(paths))
	t.rankHost += h1.Sub(h0)
	return out
}

func (s *tracedSelector) Report(path *segment.Path, o pan.Outcome) {
	s.count(1, o.Failed)
	s.inner.Report(path, o)
}

func (s *tracedSelector) ReportBatch(reports []pan.SampleReport) {
	fails := 0
	for _, r := range reports {
		if r.Outcome.Failed {
			fails++
		}
	}
	if s.t.active.Load() {
		s.t.mu.Lock()
		s.t.reports += int64(len(reports))
		s.t.reportFails += int64(fails)
		s.t.mu.Unlock()
	}
	if bs, ok := s.inner.(pan.BatchSink); ok {
		bs.ReportBatch(reports)
		return
	}
	for _, r := range reports {
		s.inner.Report(r.Path, r.Outcome)
	}
}

func (s *tracedSelector) count(n int, failed bool) {
	if !s.t.active.Load() {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	s.t.reports += int64(n)
	if failed {
		s.t.reportFails++
	}
}

func (s *tracedSelector) PathHealth() []pan.PathHealth {
	if he, ok := s.inner.(pan.HealthExporter); ok {
		return he.PathHealth()
	}
	return nil
}

// probe wraps the monitor's active probe to count probes.
func (t *tracer) probe(inner pan.ProbeFunc) pan.ProbeFunc {
	return func(remote addr.UDPAddr, name string, path *segment.Path, timeout time.Duration) (time.Duration, error) {
		if t.active.Load() {
			t.mu.Lock()
			t.probes++
			t.mu.Unlock()
		}
		return inner(remote, name, path, timeout)
	}
}

// layers computes the per-layer metrics of a traced run.
func (t *tracer) layers(r *runResult, ingest []pan.IngestStats) map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := float64(len(r.ops))
	var body int64
	for _, op := range r.ops {
		body += op.bytes
	}
	ms := func(ds []time.Duration) float64 {
		var sum time.Duration
		for _, d := range ds {
			sum += d
		}
		return float64(sum) / float64(time.Millisecond)
	}
	proxyReq := float64(len(t.proxyVirt))
	frac := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	pv := make([]float64, len(t.proxyVirt))
	for i, d := range t.proxyVirt {
		pv[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(pv)
	m := map[string]float64{
		"browser.intercept_wait_ms":   ms(t.intercept) / ops,
		"browser.subreq_per_op":       float64(t.subreq) / ops,
		"proxy.req_per_op":            proxyReq / ops,
		"proxy.req_virt_ms_p50":       quantileOr0(pv, 0.5),
		"proxy.processing_wait_ms":    ms(t.processing) / ops,
		"proxy.via_scion_frac":        frac(float64(t.proxyVia[string(proxy.ViaSCION)]), proxyReq),
		"proxy.via_fallback_frac":     frac(float64(t.proxyVia[string(proxy.ViaFallback)]), proxyReq),
		"proxy.striped_frac":          frac(float64(t.striped), proxyReq),
		"pan.rank_per_op":             float64(t.ranks) / ops,
		"pan.candidates_per_rank":     frac(float64(t.rankCands), float64(t.ranks)),
		"pan.rank_host_us":            frac(float64(t.rankHost)/float64(time.Microsecond), float64(t.ranks)),
		"pan.report_fail_frac":        frac(float64(t.reportFails), float64(t.reports)),
		"pan.probes_per_op":           float64(t.probes) / ops,
		"webserver.req_per_op":        float64(t.originReq) / ops,
		"webserver.body_kib_per_op":   float64(t.originBytes) / 1024 / ops,
		"dataplane.forwarded_per_op":  float64(t.routers.Forwarded-t.routers0.Forwarded) / ops,
		"dataplane.delivered_per_op":  float64(t.routers.Delivered-t.routers0.Delivered) / ops,
		"dataplane.drops_per_op":      float64(t.routers.BadMAC-t.routers0.BadMAC) / ops,
		"netsim.pkts_per_op":          float64(t.links.Delivered-t.links0.Delivered) / ops,
		"netsim.wire_kib_per_op":      float64(t.links.Bytes-t.links0.Bytes) / 1024 / ops,
		"netsim.lost_per_op":          float64(t.links.Lost-t.links0.Lost) / ops,
		"netsim.wire_overhead":        frac(float64(t.links.Bytes-t.links0.Bytes), float64(body)),
		"netsim.pending_timers_end":   float64(r.teardown.pendingTimers),
		"goroutines_end_delta":        float64(r.teardown.goroutinesDelta),
		"teardown.violations":         float64(len(r.teardown.violations)),
		"trace.spans_dropped":         float64(t.dropped),
		"pan.ingest_applied_per_op":   0,
		"pan.ingest_batch_mean":       0,
		"pan.ingest_lost_frac":        0,
		"pan.passive_frac":            0,
		"pan.ingest_identity_gap_end": 0,
	}
	if len(ingest) == 2 {
		a, b := ingest[0], ingest[1]
		applied := float64(b.Applied - a.Applied)
		m["pan.ingest_applied_per_op"] = applied / ops
		m["pan.ingest_batch_mean"] = frac(applied, float64(b.Batches-a.Batches))
		m["pan.ingest_lost_frac"] = frac(float64(b.Coalesced-a.Coalesced+b.Dropped-a.Dropped), float64(b.Enqueued-a.Enqueued))
		m["pan.passive_frac"] = frac(applied, applied+float64(t.probes))
		m["pan.ingest_identity_gap_end"] = float64(int64(b.Enqueued) - int64(b.Applied+b.Coalesced+b.Dropped+b.Untracked))
	}
	shares, samples := cpuShares(t.prof.Bytes())
	for k, v := range shares {
		m["cpu_share."+k] = v
	}
	m["trace.profile_samples"] = float64(samples)
	return m
}

func quantileOr0(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return quantile(sorted, q)
}

// writeSpans computes each op span's virtual self time and writes the span
// log as JSON lines.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][][2]int64)
	for i := range t.spans {
		s := &t.spans[i]
		s.VSelf = s.VEnd - s.VStart
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.VStart, s.VEnd})
		}
	}
	for i, iv := range children {
		s := &t.spans[i]
		s.VSelf = s.VEnd - s.VStart - covered(iv, s.VStart, s.VEnd)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64 = 0, lo
	for _, x := range iv {
		a, b := max(x[0], end), min(x[1], hi)
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// spansFile names a traced run's span log.
func spansFile(dir, workload string, seed int64) string {
	return filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", workload, seed))
}
