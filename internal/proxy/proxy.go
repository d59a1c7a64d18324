// Package proxy implements the paper's local HTTP proxy ("SKIP", Figure 1):
// the component that "intercepts requests initiated by the browser...
// selects path(s) and adds a SCION packet header if needed", switching each
// request between SCION and legacy IP (the "IP/SCION Switch"), applying the
// user's path policies, and collecting per-path statistics.
//
// Path choice is delegated to a pan.Selector via a pan.Dialer: installing a
// new selector (SetSelector) bumps the dialer's epoch, so pooled SCION
// connections re-dial — and re-select — under the new policy. SCION
// round-trip failures are fed back into the selector (marking the path
// down) and recorded as ViaFallback, making the paper's fallback rate
// measurable.
package proxy

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/dnssim"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/sciondetect"
	"tango/internal/segment"
	"tango/internal/shttp"
	"tango/internal/squic"
)

// Annotation headers the proxy adds to responses so the extension (and
// tests) can render the UI indicator.
const (
	HeaderVia       = "X-Skip-Via"       // "scion", "ip", or "fallback"
	HeaderPath      = "X-Skip-Path"      // path fingerprint
	HeaderCompliant = "X-Skip-Compliant" // "true"/"false"
)

// The annotation values, prebuilt: a response header takes these slices as
// they are. Each is full to capacity, so appending to one copies it.
var (
	viaValues = map[Via][]string{
		ViaSCION: {string(ViaSCION)}, ViaIP: {string(ViaIP)}, ViaFallback: {string(ViaFallback)},
	}
	compliantValues = map[bool][]string{false: {"false"}, true: {"true"}}
)

// Config assembles a proxy. Every option is fixed once New returns; the
// user's runtime input is the path selector, installed with SetSelector.
type Config struct {
	// Host is the SCION side (the proxy runs on the browser's machine).
	Host *pan.Host
	// Selector is the initial path selector (nil = accept-everything
	// PolicySelector); swap it later with SetSelector.
	Selector pan.Selector
	// Legacy is the IP side; LegacyHost is this machine's legacy identity.
	Legacy     *netsim.StreamNetwork
	LegacyHost string
	// Resolver resolves legacy A records.
	Resolver *dnssim.Resolver
	// Detector decides SCION availability per domain.
	Detector *sciondetect.Detector
	// Processing, when set, is invoked per proxied request to model the
	// proxy's per-request processing cost (the prototype overhead measured
	// in the paper's Figure 3). Implementations typically sleep on the
	// simulation clock.
	Processing func()
	// RaceWidth, when > 1, dials that many top-ranked SCION paths
	// concurrently per connection and keeps the first completed handshake;
	// the racers' starts are offset by pan.DefaultRaceStagger.
	RaceWidth int
	// ProbeInterval, when positive, runs a proxy-owned background telemetry
	// monitor probing each known path to every SCION origin the proxy
	// currently pools a connection to, feeding live RTT/liveness into the
	// active selector so rankings react to network conditions between
	// requests (and the stats API's Health reflects reality, paper §4.2).
	// Ignored when Monitor is set.
	ProbeInterval time.Duration
	// ProbeBudget caps the owned monitor's global probe rate in probes/sec
	// (0 = pan's default).
	ProbeBudget float64
	// Monitor, when set, attaches the proxy to an externally owned shared
	// telemetry plane instead of running its own — the deployment shape of
	// a skip proxy host serving many clients: one monitor, many dialers.
	// The proxy never stops a shared monitor.
	Monitor *pan.Monitor
	// AdaptiveRace auto-tunes the race width per dial from telemetry
	// freshness and RTT spread (RaceWidth then caps the width); requires
	// probing (ProbeInterval or Monitor).
	AdaptiveRace bool
	// Stripe, when non-nil, enables striped downloads: a large GET response
	// (at least Stripe.MinStripeBytes, learned from a Range probe's
	// Content-Range) is fetched as concurrent byte-range segments over
	// Stripe.Width link-disjoint paths, each with its own congestion window
	// and retransmit timer, and reassembled for the client as one 200.
	// Origins without Range support are relayed un-striped. Per-path byte
	// splits surface in Stats.
	Stripe *pan.StripeOptions
	// Passive streams zero-cost telemetry from live traffic into the
	// attached monitor: every pooled squic connection's ack RTTs (via the
	// dialer) plus each proxied request's time-to-first-byte. First-byte
	// time — not the full-body RequestRecord.Duration, which conflates
	// transfer size with path RTT — approximates one request/response round
	// trip. Busy origins then keep fresh telemetry with their scheduled
	// active probes suppressed, and the probe budget concentrates on idle
	// ones. Requires probing (ProbeInterval or Monitor).
	Passive bool
}

// Proxy is the SKIP HTTP proxy.
type Proxy struct {
	cfg    Config
	stats  *Stats
	dialer *pan.Dialer

	scion  *shttp.Transport
	legacy *http.Transport

	// monitor is the attached telemetry plane (nil without probing);
	// ownMonitor says New built it, so Close stops it. stripe holds the
	// resolved stripe options (nil = striping off).
	monitor    *pan.Monitor
	ownMonitor bool
	stripe     *pan.StripeOptions

	mu sync.Mutex
	// origins remembers each SCION-served host's endpoint so the stats
	// snapshot can ask the monitor for that destination's passive/probe
	// sample split. Entries carry a last-touched sequence (originSeq) so
	// the over-cap sweep evicts oldest-first instead of in map iteration
	// order — a hot origin must never lose its slot to an idle pooled one.
	origins   map[string]originRec
	originSeq uint64
	// sweeping marks an origin sweep in flight; at most one runs at a time,
	// off the request path (see sweepOrigins).
	sweeping bool
	// originTracked answers "does the monitor still track this origin" for
	// the sweep. Defaults to a TargetSamples probe of the monitor; a test
	// hook so sweep/request interleaving is controllable.
	originTracked func(remote addr.UDPAddr, host string) bool
}

// originRec is one remembered origin: its endpoint plus the monotone
// sequence stamp of its most recent request.
type originRec struct {
	remote addr.UDPAddr
	touch  uint64
}

// New builds the proxy.
func New(cfg Config) *Proxy {
	p := &Proxy{cfg: cfg, stats: NewStats(), monitor: cfg.Monitor, origins: make(map[string]originRec)}
	if p.monitor == nil && cfg.ProbeInterval > 0 {
		p.monitor = cfg.Host.NewMonitor(pan.MonitorOptions{BaseInterval: cfg.ProbeInterval, ProbeBudget: cfg.ProbeBudget})
		p.ownMonitor = true
	}
	p.dialer = cfg.Host.NewDialer(pan.DialOptions{
		Selector:     cfg.Selector,
		Mode:         pan.Opportunistic,
		RaceWidth:    cfg.RaceWidth,
		Monitor:      p.monitor,
		AdaptiveRace: cfg.AdaptiveRace,
		Passive:      cfg.Passive,
	})
	if p.ownMonitor {
		p.monitor.Start()
	}
	if cfg.Stripe != nil {
		o := cfg.Stripe.WithDefaults()
		p.stripe = &o
	}
	p.scion = shttp.NewTransport(p.dialSCION)
	p.legacy = &http.Transport{
		DialContext:        p.dialLegacy,
		DisableCompression: true,
	}
	p.stats.SetHealthSource(p.PathHealth)
	p.stats.SetLinkSource(p.LinkStats)
	p.stats.SetSampleSource(p.SampleSplits)
	p.stats.SetIngestSource(p.IngestStats)
	return p
}

// Stats returns the proxy's statistics aggregator.
func (p *Proxy) Stats() *Stats { return p.stats }

// Dialer exposes the proxy's PAN dialer (epoch, cached selections).
func (p *Proxy) Dialer() *pan.Dialer { return p.dialer }

// SetSelector installs the user's path selector — the single entry point
// behind "the browser extension uses specific API calls to the HTTP proxy to
// apply path policies chosen by users". The dialer's epoch bump drops pooled
// SCION connections, so new requests re-select under the new policy.
func (p *Proxy) SetSelector(s pan.Selector) {
	p.dialer.SetSelector(s)
	p.scion.CloseIdleConnections()
}

// Monitor returns the attached telemetry plane, owned or shared, if any.
func (p *Proxy) Monitor() *pan.Monitor { return p.monitor }

// passiveSampleCount reads the destination's current passive sample count
// from the monitor (0 when untracked or no monitor) — the before/after
// bracket that tells whether the ack stream delivered during a request.
func (p *Proxy) passiveSampleCount(remote addr.UDPAddr, host string) int {
	if p.monitor == nil {
		return 0
	}
	split, _ := p.monitor.TargetSamples(remote, host)
	return split.Passive
}

// observeFirstByte feeds one SCION request's time-to-first-byte into the
// monitor as a passive sample for the path that served it, and remembers
// the origin for the stats sample split. Cold requests (no pooled
// connection when the round trip started, warm == false) are recorded for
// the split but not fed: their TTFB includes dial and failover time, not
// path latency. The TTFB is also a COARSER measurand than the pooled
// connection's own ack RTTs — it adds server think-time — so when the ack
// stream already delivered during this request (the passive count moved
// past passiveBefore), the TTFB is dropped rather than letting the spread
// between the two measurands inflate the path's deviation estimate; it
// feeds only where the finer stream is absent (e.g. a connection whose
// ack stream has not delivered yet).
func (p *Proxy) observeFirstByte(host string, remote addr.UDPAddr, path *segment.Path, ttfb time.Duration, warm bool, passiveBefore int) {
	p.mu.Lock()
	p.originSeq++
	p.origins[host] = originRec{remote: remote, touch: p.originSeq}
	// Amortized bound: sweep only once the map has outgrown the cap by a
	// slack margin (so the O(n) sweep runs at most once per cap/4 inserts,
	// not per request) — and in a goroutine of its own. The request path
	// pays exactly one map insert: the old inline sweep held p.mu through
	// up to ~1280 monitor queries, stalling every concurrent request (and
	// every connection whose ack sample needed the proxy's locks).
	if len(p.origins) > maxTrackedOrigins+maxTrackedOrigins/4 && !p.sweeping {
		p.sweeping = true
		go p.sweepOrigins()
	}
	p.mu.Unlock()
	m := p.monitor
	if m == nil || !p.cfg.Passive || !warm || path == nil || ttfb <= 0 {
		return
	}
	if split, ok := m.TargetSamples(remote, host); ok && split.Passive > passiveBefore {
		return // the ack stream covered this request with purer samples
	}
	m.Observe(path, ttfb)
}

// maxTrackedOrigins caps the host→endpoint memory behind SampleSplits: a
// long-lived proxy serving an unbounded stream of distinct origins sweeps
// out the ones the monitor has stopped tracking once the map outgrows this.
const maxTrackedOrigins = 1024

// sweepOrigins bounds the origin map, OFF the request path, in three
// phases: snapshot the entries under p.mu, query the monitor with no proxy
// lock held (the expensive part — one TargetSamples per origin), then
// delete in a second short critical section. Untracked origins (pooled
// connections evicted, so their sample split is gone anyway) go first;
// if the map is still over cap — every origin tracked — the OLDEST-touched
// entries are evicted until it fits, so the busiest origins always keep
// their slots. An entry touched by a request after the snapshot is left
// alone either way: its staleness verdict and its position in the age
// order both describe a state that no longer holds.
func (p *Proxy) sweepOrigins() {
	defer func() {
		p.mu.Lock()
		p.sweeping = false
		p.mu.Unlock()
	}()
	type snap struct {
		host string
		rec  originRec
	}
	p.mu.Lock()
	entries := make([]snap, 0, len(p.origins))
	for h, rec := range p.origins {
		entries = append(entries, snap{h, rec})
	}
	tracked := p.originTracked
	p.mu.Unlock()
	if tracked == nil {
		tracked = func(remote addr.UDPAddr, host string) bool {
			if p.monitor == nil {
				// No telemetry plane to consult: treat every origin as live
				// and let recency alone pick the evictions.
				return true
			}
			_, ok := p.monitor.TargetSamples(remote, host)
			return ok
		}
	}
	stale := make([]snap, 0)
	for _, s := range entries {
		if !tracked(s.rec.remote, s.host) {
			stale = append(stale, s)
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].rec.touch < entries[j].rec.touch })
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, s := range stale {
		if cur, ok := p.origins[s.host]; ok && cur.touch == s.rec.touch {
			delete(p.origins, s.host)
		}
	}
	for _, s := range entries {
		if len(p.origins) <= maxTrackedOrigins {
			break
		}
		if cur, ok := p.origins[s.host]; ok && cur.touch == s.rec.touch {
			delete(p.origins, s.host)
		}
	}
}

// SampleSplits reports, per SCION-served host, how many passive samples
// versus active probes have fed that destination's telemetry — the
// observability surface behind the "N passive / M probe samples" liveness
// printouts. Hosts the monitor no longer tracks are omitted (and pruned).
func (p *Proxy) SampleSplits() map[string]pan.SampleSplit {
	m := p.monitor
	p.mu.Lock()
	origins := make(map[string]addr.UDPAddr, len(p.origins))
	for h, r := range p.origins {
		origins[h] = r.remote
	}
	p.mu.Unlock()
	if m == nil || len(origins) == 0 {
		return nil
	}
	out := make(map[string]pan.SampleSplit)
	stale := make([]string, 0)
	for host, remote := range origins {
		if split, ok := m.TargetSamples(remote, host); ok {
			out[host] = split
		} else {
			stale = append(stale, host)
		}
	}
	if len(stale) > 0 {
		p.mu.Lock()
		for _, host := range stale {
			delete(p.origins, host)
		}
		p.mu.Unlock()
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// PathHealth exports the active selector's per-path telemetry (down-state
// and live RTT estimates) — the path-liveness feed behind the stats API and
// the extension UI. Selectors that track no telemetry yield nil.
func (p *Proxy) PathHealth() []PathHealth {
	he, ok := p.dialer.Selector().(pan.HealthExporter)
	if !ok {
		return nil
	}
	return he.PathHealth()
}

// LinkStats exports the monitor's per-link congestion estimates (nil
// without probing) — the hotspot feed behind the stats API and the CLI
// liveness printouts.
func (p *Proxy) LinkStats() []LinkStat {
	if p.monitor == nil {
		return nil
	}
	return p.monitor.LinkStats()
}

// IngestStats exports the monitor's passive-sample ingest accounting
// (ok=false without an attached monitor) — how the monitor is absorbing
// the proxy's sample load.
func (p *Proxy) IngestStats() (IngestStats, bool) {
	if p.monitor == nil {
		return IngestStats{}, false
	}
	return p.monitor.IngestStats(), true
}

// Close releases pooled connections and the dialer, which untracks its
// destinations and unsubscribes from the monitor, and then stops the
// monitor when proxy-owned. A shared monitor keeps running.
func (p *Proxy) Close() {
	p.scion.CloseIdleConnections()
	p.legacy.CloseIdleConnections()
	p.dialer.Close()
	if p.ownMonitor {
		p.monitor.Stop()
	}
}

// CheckSCION reports whether host is reachable over SCION right now and
// whether a policy-compliant path exists — the API the extension's strict
// mode consults before forwarding a request (paper §5.1).
func (p *Proxy) CheckSCION(ctx context.Context, host string) (available, compliant bool) {
	scionAddr, ok := p.cfg.Detector.Detect(ctx, hostOnly(host))
	if !ok {
		return false, false
	}
	sel, err := p.cfg.Host.Select(scionAddr.IA, p.dialer.Selector(), pan.Opportunistic)
	if err != nil {
		return false, false
	}
	return true, sel.Compliant
}

// remoteFor maps an authority to its SCION endpoint, when detected. SCION
// services listen on the same port as their legacy URL (80 for plain http in
// the experiments).
func (p *Proxy) remoteFor(ctx context.Context, authority string) (addr.UDPAddr, bool) {
	scionAddr, ok := p.cfg.Detector.Detect(ctx, hostOnly(authority))
	if !ok {
		return addr.UDPAddr{}, false
	}
	return addr.UDPAddr{Addr: scionAddr, Port: portOf(authority, 80)}, true
}

// dialSCION is the shttp dial hook: detect, then let the dialer select a
// path under the current selector (opportunistic: non-compliant paths are
// used but flagged) and open — or reuse — a squic connection. The server's
// identity name is the bare hostname.
func (p *Proxy) dialSCION(ctx context.Context, authority string) (*squic.Conn, error) {
	remote, ok := p.remoteFor(ctx, authority)
	if !ok {
		return nil, fmt.Errorf("proxy: %s not SCION-reachable", hostOnly(authority))
	}
	// The dialer tracks every origin it pools a connection to on the
	// monitor (and untracks it when the pooled connection is evicted), so
	// the probe set covers exactly the destinations that matter right now.
	conn, _, err := p.dialer.Dial(ctx, remote, hostOnly(authority))
	return conn, err
}

// ServeHTTP implements the proxy protocol: absolute-form requests from the
// browser are forwarded over SCION when the destination is SCION-reachable,
// over legacy IP otherwise, with annotation headers either way.
func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	host := r.Host
	if host == "" {
		http.Error(w, "proxy: missing host", http.StatusBadRequest)
		return
	}
	clock := p.cfg.Host.Clock()
	start := clock.Now()
	if f := p.cfg.Processing; f != nil {
		f()
	}

	outReq := r.Clone(r.Context())
	outReq.RequestURI = ""
	if outReq.URL.Scheme == "" {
		outReq.URL.Scheme = "http"
	}
	outReq.URL.Host = host

	if remote, ok := p.remoteFor(r.Context(), authorityOf(outReq)); ok {
		// Buffer small request bodies so the SCION→legacy fallback can
		// re-send them; oversized/chunked bodies stream directly and
		// forfeit the fallback instead of risking a truncated replay.
		replayBody, canReplay, err := bufferReplayBody(outReq)
		if err != nil {
			http.Error(w, fmt.Sprintf("proxy: reading request body: %v", err), http.StatusBadRequest)
			p.stats.Record(RequestRecord{Host: host, Via: ViaError, Status: http.StatusBadRequest})
			return
		}
		// Striped downloads: a Range probe sizes the response; large bodies
		// are pulled as concurrent segments over link-disjoint paths. An
		// unhandled attempt (probe failure, unusable 206) falls through to
		// the normal round trip below, which owns retry and fallback.
		if p.stripe != nil && stripeEligible(outReq) {
			if p.serveStriped(w, outReq, remote, host, start, *p.stripe) {
				return
			}
		}
		// The first-byte time is a path-latency signal only when (a) the
		// round trip was served entirely from the pooled connection — a
		// dialing round trip folds dial time, including multi-candidate
		// failover burning whole handshake timeouts, into TTFB — and (b)
		// the request carries no body: net/http writes the full request
		// before headers return, so an upload's TTFB measures transfer
		// size, the very conflation this feed exists to avoid. A live pool
		// entry before plus the SAME entry generation after closes the
		// window in which a dying pooled connection gets silently
		// re-dialed mid round trip, without a concurrent dial to some
		// OTHER origin invalidating this one's sample.
		genBefore, liveBefore := p.dialer.PoolState(remote, hostOnly(host))
		warmBefore := liveBefore &&
			outReq.ContentLength == 0 && len(outReq.TransferEncoding) == 0
		passiveBefore := p.passiveSampleCount(remote, hostOnly(host))
		rtStart := clock.Now()
		resp, err := p.scion.RoundTrip(outReq)
		if err == nil {
			// Headers are in but the body is still unread: this is the
			// request's time-to-first-byte, the per-request passive RTT
			// sample (full-body Duration would conflate transfer size with
			// path latency).
			ttfb := clock.Since(rtStart)
			genAfter, liveAfter := p.dialer.PoolState(remote, hostOnly(host))
			warm := warmBefore && liveAfter && genAfter == genBefore
			sel, _ := p.dialer.Cached(remote, hostOnly(host))
			p.observeFirstByte(hostOnly(host), remote, sel.Path, ttfb, warm, passiveBefore)
			p.annotate(w, sel)
			n := copyResponse(w, resp)
			p.stats.Record(RequestRecord{
				Host: host, Via: ViaSCION, Compliant: sel.Compliant,
				Path:     fingerprintOf(sel),
				Duration: clock.Since(start), TTFB: ttfb, Bytes: n, Status: resp.StatusCode,
			})
			return
		}
		// Decide whether the failed SCION attempt can fall back to legacy
		// IP ("the browser falls back to loading the resources over
		// IPv4/6", paper §4) without duplicating a side effect:
		//
		//   - a canceled client never falls back;
		//   - the body must be replayable (bodyless or buffered) — the
		//     transport closes the body even on a dial error, so an
		//     unbuffered upload cannot be re-sent at all;
		//   - a dial-stage failure (shttp.DialError) wrote nothing to the
		//     origin, so any replayable request re-sends safely; otherwise
		//     the origin may already have processed the request (only the
		//     response was lost), and only idempotent methods re-send
		//     (RFC 9110 §9.2.2).
		var dialErr *shttp.DialError
		dialFailed := errors.As(err, &dialErr)
		if r.Context().Err() != nil {
			http.Error(w, fmt.Sprintf("proxy: %v", err), http.StatusBadGateway)
			p.stats.Record(RequestRecord{Host: host, Via: ViaError, Status: http.StatusBadGateway})
			return
		}
		// Feed the failure back into selection whether or not we can fall
		// back: the pooled connection's path is marked down, so the next
		// dial re-ranks (ReportFailure itself only acts on a dead pooled
		// connection).
		p.dialer.ReportFailure(remote, hostOnly(host))
		if !canReplay || !(dialFailed || idempotent(outReq.Method)) {
			http.Error(w, fmt.Sprintf("proxy: %v", err), http.StatusBadGateway)
			p.stats.Record(RequestRecord{Host: host, Via: ViaError, Status: http.StatusBadGateway})
			return
		}
		// The fallback is recorded as its own Via so the fallback rate is
		// measurable.
		if replayBody != nil {
			outReq.Body = io.NopCloser(bytes.NewReader(replayBody))
		}
		p.forwardLegacy(w, outReq, start, ViaFallback)
		return
	}
	p.forwardLegacy(w, outReq, start, ViaIP)
}

func (p *Proxy) forwardLegacy(w http.ResponseWriter, r *http.Request, start time.Time, via Via) {
	clock := p.cfg.Host.Clock()
	resp, err := p.legacy.RoundTrip(r)
	if err != nil {
		http.Error(w, fmt.Sprintf("proxy: upstream error: %v", err), http.StatusBadGateway)
		p.stats.Record(RequestRecord{Host: r.Host, Via: ViaError, Status: http.StatusBadGateway})
		return
	}
	w.Header()[HeaderVia] = viaValues[via]
	n := copyResponse(w, resp)
	p.stats.Record(RequestRecord{
		Host: r.Host, Via: via, Duration: clock.Since(start), Bytes: n, Status: resp.StatusCode,
	})
}

// maxReplayBody caps how much request body the proxy buffers to keep the
// SCION→legacy fallback possible for non-bodyless requests.
const maxReplayBody = 1 << 20

// maxStripedBody caps the response size a striping probe may claim: the
// proxy buffers a striped body whole, so a larger one is relayed un-striped.
const maxStripedBody = 64 << 20

// idempotent reports whether a method permits automatic retry (RFC 9110
// §9.2.2).
func idempotent(method string) bool {
	switch method {
	case http.MethodGet, http.MethodHead, http.MethodOptions, http.MethodTrace,
		http.MethodPut, http.MethodDelete:
		return true
	}
	return false
}

// bufferReplayBody prepares a request for a potential re-send: bodyless
// requests are replayable as-is; small declared bodies are read into memory
// (the returned buffer) and the request rewound onto it; chunked or
// oversized bodies stream unbuffered and are not replayable.
func bufferReplayBody(r *http.Request) (body []byte, canReplay bool, err error) {
	if r.ContentLength == 0 && len(r.TransferEncoding) == 0 {
		return nil, true, nil
	}
	if r.ContentLength <= 0 || r.ContentLength > maxReplayBody || len(r.TransferEncoding) > 0 {
		return nil, false, nil
	}
	buf := make([]byte, r.ContentLength+1) // an overlong body fills the spare byte
	n, err := readInto(r.Body, buf)
	r.Body.Close()
	if err != nil {
		return nil, false, err
	}
	if int64(n) != r.ContentLength {
		return nil, false, fmt.Errorf("proxy: request body is not the declared %d bytes", r.ContentLength)
	}
	buf = buf[:n]
	r.Body = io.NopCloser(bytes.NewReader(buf))
	return buf, true, nil
}

func fingerprintOf(sel pan.Selection) string {
	if sel.Path == nil {
		return ""
	}
	return sel.Path.Fingerprint()
}

// authorityOf is the request's host:port: port 80 unless the URL names a
// valid port, and an IPv6 host in brackets.
func authorityOf(r *http.Request) string {
	return net.JoinHostPort(hostOnly(r.URL.Host), strconv.Itoa(int(portOf(r.URL.Host, 80))))
}

// splitAuthority splits "host", "host:port", "[v6]" or "[v6]:port" into
// its host, without brackets, and its port, "" when there is none. An
// unbracketed IPv6 address, or a bracket with junk after it, is all host.
// Unlike net.SplitHostPort it accepts a missing port, so the port-less
// hosts most requests carry cost no error value.
func splitAuthority(hostport string) (host, port string) {
	if hostport != "" && hostport[0] == '[' {
		end := strings.IndexByte(hostport, ']')
		if end < 0 {
			return hostport, ""
		}
		switch rest := hostport[end+1:]; {
		case rest == "":
			return hostport[1:end], ""
		case rest[0] == ':':
			return hostport[1:end], rest[1:]
		}
		return hostport, ""
	}
	i := strings.IndexByte(hostport, ':')
	if i < 0 || strings.IndexByte(hostport[i+1:], ':') >= 0 {
		return hostport, ""
	}
	return hostport[:i], hostport[i+1:]
}

func hostOnly(hostport string) string {
	host, _ := splitAuthority(hostport)
	return host
}

func portOf(hostport string, def uint16) uint16 {
	_, ps := splitAuthority(hostport)
	if ps == "" {
		return def // before ParseUint, whose error would allocate
	}
	if v, err := strconv.ParseUint(ps, 10, 16); err == nil {
		return uint16(v)
	}
	return def
}

// dialLegacy resolves the authority's A record and dials the legacy network.
func (p *Proxy) dialLegacy(ctx context.Context, network, authority string) (net.Conn, error) {
	host := hostOnly(authority)
	port := portOf(authority, 80)
	var target netip.Addr
	if ip, err := netip.ParseAddr(host); err == nil {
		target = ip
	} else {
		addrs, err := p.cfg.Resolver.LookupA(ctx, host)
		if err != nil {
			return nil, fmt.Errorf("proxy: resolving %s: %w", host, err)
		}
		if len(addrs) == 0 {
			return nil, fmt.Errorf("proxy: no A records for %s", host)
		}
		target = addrs[0]
	}
	return p.cfg.Legacy.Dial(ctx, p.cfg.LegacyHost, netip.AddrPortFrom(target, port).String())
}

// copyResponse relays a backend response to the client. A header the
// response writer does not have yet takes the backend's value slice whole.
func copyResponse(w http.ResponseWriter, resp *http.Response) int64 {
	h := w.Header()
	for k, vv := range resp.Header {
		if old, ok := h[k]; ok {
			h[k] = append(old, vv...)
		} else {
			h[k] = vv
		}
	}
	w.WriteHeader(resp.StatusCode)
	n, _ := shttp.Relay(w, resp.Body)
	resp.Body.Close()
	return n
}

// readInto fills dst from r and returns how many bytes r held, counting at
// most one past dst: once dst is full it reads one more byte, so an overlong
// body shows as len(dst)+1. An EOF before that is a short body, not an
// error; callers compare n with len(dst). The extra byte is read into dst's
// last byte, which is put back afterwards: a probe of its own would escape
// to the heap through the io.Reader, once per read.
func readInto(r io.Reader, dst []byte) (int, error) {
	n, err := io.ReadFull(r, dst)
	if err == nil {
		var k int
		if last := len(dst) - 1; last >= 0 {
			kept := dst[last]
			k, err = io.ReadFull(r, dst[last:])
			dst[last] = kept
		} else {
			var k64 int64
			k64, err = io.CopyN(io.Discard, r, 1)
			k = int(k64)
		}
		n += k
	}
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		err = nil
	}
	return n, err
}
