package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strconv"
	"strings"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/browser"
	"tango/internal/netsim"
	"tango/internal/pan"
	"tango/internal/policy"
	"tango/internal/proxy"
	"tango/internal/topology"
	"tango/internal/webserver"
)

var specs = map[string]*spec{
	"browse": {name: "browse", build: buildBrowse, warmupUnits: 8, measuredOps: 640, chunkOps: 64,
		limits: map[string]time.Duration{
			"single": 1800 * time.Millisecond, "multi": 2 * time.Second,
			"single-ip": 2500 * time.Millisecond, "multi-ip": 2000 * time.Millisecond,
		}},
	"geofence": {name: "geofence", build: buildGeofence, warmupUnits: 2, measuredOps: 640, chunkOps: 64,
		limits: map[string]time.Duration{
			"domestic": 400 * time.Millisecond, "domestic-strict": 400 * time.Millisecond,
			"abroad": 1800 * time.Millisecond, "abroad-strict": 100 * time.Millisecond,
		}},
	"bulk": {name: "bulk", build: buildBulk, warmupUnits: 1, measuredOps: 48, chunkOps: 6,
		limits: map[string]time.Duration{
			"get-256k": 1600 * time.Millisecond, "post-256k": 1 * time.Second,
			"get-1024k": 2 * time.Second, "post-1024k": 2 * time.Second,
			"get-4096k": 4 * time.Second, "post-4096k": 6 * time.Second,
		}},
}

// unitRNG is the seeded generator of one cycle of units.
func unitRNG(seed int64, cycle int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(cycle)))
}

// pageCheck is what a page load must return.
type pageCheck struct {
	url       string
	kind      string
	htmlLen   int
	via       map[string]proxy.Via // per resource host
	indicator browser.Indicator
	compliant bool
	blocked   bool // an expected strict-mode block
}

// load runs one checked page load for a client.
func load(e *env, c *client, id int64, pc pageCheck) opResult {
	op := &opRec{id: id}
	c.cur.Store(op)
	if e.tr != nil {
		e.tr.beginOp(op, pc.kind)
	}
	pl, err := c.br.LoadPage(context.Background(), pc.url)
	c.cur.Store(nil)
	if e.tr != nil {
		e.tr.endOp(op, pl)
	}
	res := opResult{kind: pc.kind, virt: pl.PLT, outcome: "ok"}
	bytes, msg := checkPage(pc, pl, err)
	res.bytes = bytes
	if msg == "" {
		if f := op.failures(); len(f) > 0 {
			msg = f[0]
		}
	}
	switch {
	case msg != "":
		res.outcome = msg
	case pc.blocked:
		res.outcome = "blocked"
	}
	return res
}

// checkPage verifies a page load against its expectation and returns the
// verified body bytes, or the first failed check.
func checkPage(pc pageCheck, pl *browser.PageLoad, err error) (int64, string) {
	if pc.blocked {
		if err == nil || !pl.Main.Blocked {
			return 0, fmt.Sprintf("want a strict-mode block, got err=%v", err)
		}
		return 0, ""
	}
	if err != nil {
		return 0, "load error: " + err.Error()
	}
	if pl.Main.Status != http.StatusOK || pl.Main.Bytes != int64(pc.htmlLen) {
		return 0, fmt.Sprintf("main document: status %d, %d bytes, want 200 and %d", pl.Main.Status, pl.Main.Bytes, pc.htmlLen)
	}
	if len(pl.Resources) != pageResources {
		return 0, fmt.Sprintf("%d subresources, want %d", len(pl.Resources), pageResources)
	}
	total := pl.Main.Bytes
	for _, r := range append([]browser.ResourceResult{pl.Main}, pl.Resources...) {
		if r.Err != "" || r.Blocked {
			return 0, fmt.Sprintf("%s: err %q blocked %v", r.URL, r.Err, r.Blocked)
		}
		if r != pl.Main && (r.Status != http.StatusOK || r.Bytes != resourceSize) {
			return 0, fmt.Sprintf("%s: status %d, %d bytes, want 200 and %d", r.URL, r.Status, r.Bytes, resourceSize)
		}
		host := r.URL[len("http://"):]
		host = host[:strings.IndexByte(host, '/')]
		if want := pc.via[host]; r.Via != want {
			return 0, fmt.Sprintf("%s: X-Skip-Via %q, want %q", r.URL, r.Via, want)
		}
		if r != pl.Main {
			total += r.Bytes
		}
	}
	if pl.Indicator != pc.indicator {
		return 0, fmt.Sprintf("indicator %v, want %v", pl.Indicator, pc.indicator)
	}
	if pl.Compliant != pc.compliant {
		return 0, fmt.Sprintf("compliant %v, want %v", pl.Compliant, pc.compliant)
	}
	return total, ""
}

// closeWorld tears a world down and reports its leftovers: timers still
// pending once the advancer has drained what it can, and every reachable
// monitor's ingest accounting identity.
func closeWorld(e *env, extra ...*pan.Monitor) teardown {
	e.close()
	var td teardown
	// Let the advancer fire what the closed servers left scheduled.
	for i, last := 0, -1; i < 50; i++ {
		n := e.w.Clock.PendingTimers()
		if n == last {
			break
		}
		last = n
		hostClock.Sleep(2 * time.Millisecond)
	}
	td.pendingTimers = e.w.Clock.PendingTimers()
	for _, m := range append(extra, e.monitors...) {
		st := m.IngestStats()
		if st.Enqueued != st.Applied+st.Coalesced+st.Dropped+st.Untracked {
			td.violations = append(td.violations, fmt.Sprintf(
				"monitor ingest identity: enqueued %d != applied %d + coalesced %d + dropped %d + untracked %d",
				st.Enqueued, st.Applied, st.Coalesced, st.Dropped, st.Untracked))
		}
	}
	e.w.Close()
	return td
}

// ---------------------------------------------------------------- browse

// browseWorld is the Figure 5 remote world: remote.example behind a SCION
// reverse proxy in AS211, an IP-only eu.example, and asia.example whose
// SCION reverse proxy in AS221 loses to its BGP route.
type browseWorld struct {
	e    *env
	seed int64
	ops  int64

	cycleN int
	cycle  browseCycle
}

// browseCycle is eight users' seeded inputs: which user browses without the
// extension, and the 32 page loads (16 single-origin, 16 multi-origin).
type browseCycle struct {
	extOff int
	multi  [32]bool
}

func buildBrowse(seed int64, tr *tracer) (workload, error) {
	e, err := newEnv(seed, tr)
	if err != nil {
		return nil, err
	}
	b := &browseWorld{e: e, seed: seed, cycleN: -1}
	if err := b.setup(); err != nil {
		closeWorld(e)
		return nil, err
	}
	return b, nil
}

func (b *browseWorld) setup() error {
	e, w := b.e, b.e.w
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})
	w.Legacy.SetRoute("client", "dns", netsim.RouteProps{Latency: 2 * time.Millisecond})

	w.Legacy.SetRoute("client", "198.51.100.10", netsim.RouteProps{Latency: 120 * time.Millisecond})
	remote := e.newSite("remote.example")
	e.addPage(remote, "remote.example", "/single.html", "remote single origin",
		resourceURLs(pageResources, "remote.example"))
	e.addPage(remote, "remote.example", "/multi.html", "remote multi origin",
		resourceURLs(pageResources, "remote.example", "eu.example", "asia.example"))
	if err := e.serveIP("198.51.100.10:80", e.origin(remote)); err != nil {
		return err
	}
	w.Zone.AddA("remote.example", netip.MustParseAddr("198.51.100.10"), time.Hour)
	w.Legacy.SetRoute("rp-remote", "198.51.100.10", netsim.RouteProps{Latency: 2 * time.Millisecond})
	if err := e.serveSCION(topology.AS211, "10.0.0.50",
		webserver.NewReverseProxy(w.Legacy, "rp-remote", "198.51.100.10:80"), 0, "remote.example"); err != nil {
		return err
	}

	w.Legacy.SetRoute("client", "203.0.113.20", netsim.RouteProps{Latency: 5 * time.Millisecond})
	if err := e.serveIP("203.0.113.20:80", e.origin(e.newSite("eu.example"))); err != nil {
		return err
	}
	w.Zone.AddA("eu.example", netip.MustParseAddr("203.0.113.20"), time.Hour)

	w.Legacy.SetRoute("client", "203.0.113.30", netsim.RouteProps{Latency: 60 * time.Millisecond})
	if err := e.serveIP("203.0.113.30:80", e.origin(e.newSite("asia.example"))); err != nil {
		return err
	}
	w.Zone.AddA("asia.example", netip.MustParseAddr("203.0.113.30"), time.Hour)
	w.Legacy.SetRoute("rp-asia", "203.0.113.30", netsim.RouteProps{Latency: 2 * time.Millisecond})
	return e.serveSCION(topology.AS221, "10.0.0.60",
		webserver.NewReverseProxy(w.Legacy, "rp-asia", "203.0.113.30:80"), 0, "asia.example")
}

func (b *browseWorld) cycleFor(n int) browseCycle {
	if n != b.cycleN {
		rng := unitRNG(b.seed, n)
		b.cycle = browseCycle{extOff: rng.Intn(8)}
		for i, j := range rng.Perm(32) {
			b.cycle.multi[i] = j < 16
		}
		b.cycleN = n
	}
	return b.cycle
}

// unit is one user: a fresh client loading four seeded pages.
func (b *browseWorld) unit(u int) ([]opResult, error) {
	cyc := b.cycleFor(u / 8)
	user := u % 8
	ext := user != cyc.extOff
	c, err := b.e.newClient(clientConfig{
		ia: topology.AS111, ip: "10.0.0.1", name: "client", costs: true, seed: b.seed*7_919 + int64(u),
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.br.SetExtensionEnabled(ext)
	out := make([]opResult, 0, 4)
	for k := 0; k < 4; k++ {
		b.ops++
		out = append(out, load(b.e, c, b.ops, b.page(cyc.multi[user*4+k], ext)))
	}
	return out, nil
}

func (b *browseWorld) page(multi, ext bool) pageCheck {
	pc := pageCheck{
		url:       "http://remote.example/single.html",
		kind:      "single",
		via:       map[string]proxy.Via{"remote.example": proxy.ViaSCION},
		indicator: browser.AllSCION,
		compliant: true,
	}
	if multi {
		pc.url, pc.kind = "http://remote.example/multi.html", "multi"
		pc.via["eu.example"] = proxy.ViaIP
		pc.via["asia.example"] = proxy.ViaSCION
		pc.indicator = browser.SomeSCION
	}
	if !ext {
		pc.kind += "-ip"
		for h := range pc.via {
			pc.via[h] = proxy.ViaIP
		}
		pc.indicator = browser.NoSCION
	}
	html, _ := b.e.lookup("remote.example", pc.url[len("http://remote.example"):])
	pc.htmlLen = len(html)
	return pc
}

func (b *browseWorld) env() *env                     { return b.e }
func (b *browseWorld) mark() (pan.IngestStats, bool) { return pan.IngestStats{}, false }
func (b *browseWorld) close() teardown               { return closeWorld(b.e) }

// -------------------------------------------------------------- geofence

// geofenceWorld is the paper's demo: a domestic origin in AS122 (ISD 1) and
// an abroad origin in AS211 (ISD 2, with an IP fallback), visited by pairs of
// concurrent users who block ISD 2 and whose proxies share one monitor.
type geofenceWorld struct {
	e       *env
	seed    int64
	monitor *pan.Monitor
	ops     int64
}

// probeInterval is the shared monitor's base probe interval.
const probeInterval = time.Second

func buildGeofence(seed int64, tr *tracer) (workload, error) {
	e, err := newEnv(seed, tr)
	if err != nil {
		return nil, err
	}
	g := &geofenceWorld{e: e, seed: seed}
	if err := g.setup(); err != nil {
		closeWorld(e)
		return nil, err
	}
	return g, nil
}

func (g *geofenceWorld) setup() error {
	e, w := g.e, g.e.w
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})

	domestic := e.newSite("domestic.example")
	e.addPage(domestic, "domestic.example", "/index.html", "domestic",
		resourceURLs(pageResources, "domestic.example"))
	if err := e.serveSCION(topology.AS122, "10.0.0.2", e.origin(domestic), 0, "domestic.example"); err != nil {
		return err
	}

	abroad := e.newSite("abroad.example")
	e.addPage(abroad, "abroad.example", "/index.html", "abroad",
		resourceURLs(pageResources, "abroad.example"))
	if err := e.serveSCION(topology.AS211, "10.0.0.3", e.origin(abroad), 0, "abroad.example"); err != nil {
		return err
	}
	for _, user := range []string{"user-a", "user-b"} {
		w.Legacy.SetRoute(user, "198.51.100.99", netsim.RouteProps{Latency: 120 * time.Millisecond})
	}
	if err := e.serveIP("198.51.100.99:80", e.origin(abroad)); err != nil {
		return err
	}
	w.Zone.AddA("abroad.example", netip.MustParseAddr("198.51.100.99"), time.Hour)

	// The skip-proxy host's telemetry plane, shared by every user's proxy.
	host := w.PANHost(topology.AS111, "10.0.0.100")
	opts := pan.MonitorOptions{BaseInterval: probeInterval}
	if e.tr != nil {
		opts.Probe = e.tr.probe(host.HandshakeProbe())
	}
	g.monitor = host.NewMonitor(opts)
	g.monitor.Start()
	return nil
}

// unit is one session: two concurrent users, each loading two domestic and
// two abroad pages in seeded order. One session of every two, in seeded
// order, runs in strict mode.
func (g *geofenceWorld) unit(u int) ([]opResult, error) {
	rng := unitRNG(g.seed, u)
	strict := (u%2 == 0) == (unitRNG(^g.seed, u/2).Intn(2) == 0)
	users := []struct {
		name string
		ip   string
	}{{"user-a", "10.0.0.1"}, {"user-b", "10.0.0.4"}}
	clients := make([]*client, len(users))
	for i, usr := range users {
		c, err := g.e.newClient(clientConfig{
			ia: topology.AS111, ip: usr.ip, name: usr.name, costs: true,
			selector:  pan.NewPolicySelector(nil, policy.NewBlockGeofence(2)),
			raceWidth: 2, monitor: g.monitor, adaptiveRace: true, passive: true,
			seed: g.seed*7_919 + int64(2*u+i),
		})
		if err != nil {
			for _, c := range clients[:i] {
				c.close()
			}
			return nil, err
		}
		c.ext.SetStrictAll(strict)
		clients[i] = c
	}
	results := make([][]opResult, len(users))
	var wg sync.WaitGroup
	for i, c := range clients {
		order := rng.Perm(4) // 0 and 1 are abroad
		ids := make([]int64, len(order))
		for k := range ids {
			g.ops++
			ids[k] = g.ops
		}
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			for k, j := range order {
				results[i] = append(results[i], load(g.e, c, ids[k], g.page(j < 2, strict)))
			}
		}(i, c)
	}
	wg.Wait()
	for _, c := range clients {
		c.close()
	}
	return append(results[0], results[1]...), nil
}

func (g *geofenceWorld) page(abroad, strict bool) pageCheck {
	host, kind := "domestic.example", "domestic"
	if abroad {
		host, kind = "abroad.example", "abroad"
	}
	if strict {
		kind += "-strict"
	}
	html, _ := g.e.lookup(host, "/index.html")
	return pageCheck{
		url:       "http://" + host + "/index.html",
		kind:      kind,
		htmlLen:   len(html),
		via:       map[string]proxy.Via{host: proxy.ViaSCION},
		indicator: browser.AllSCION,
		// Opportunistic mode loads abroad over a path that leaves the
		// fence and flags it; strict mode refuses it.
		compliant: !abroad,
		blocked:   abroad && strict,
	}
}

func (g *geofenceWorld) env() *env                     { return g.e }
func (g *geofenceWorld) mark() (pan.IngestStats, bool) { return g.monitor.IngestStats(), true }

func (g *geofenceWorld) close() teardown {
	g.monitor.Stop()
	return closeWorld(g.e, g.monitor)
}

// ------------------------------------------------------------------ bulk

// bulkWorld is the striping world: every inter-ISD core link capped at
// 20 Mbit/s and a SCION origin in AS211, visited by one user session at a
// time whose proxy stripes large downloads over two link-disjoint paths.
type bulkWorld struct {
	e    *env
	seed int64
	ops  int64
	// blob backs every download: each is a prefix of it.
	blob []byte
}

const bulkHost = "bulk.example"

// bulkSizes are the nominal transfer sizes; a unit downloads and uploads
// each once.
var bulkSizes = []int{256 << 10, 1 << 20, 4 << 20}

// bulkBody is the deterministic body of a transfer of n bytes.
func bulkBody(n int, upload bool) []byte {
	body := make([]byte, n)
	k := 0
	if upload {
		k = 7
	}
	for i := range body {
		body[i] = byte((i + k) % 251)
	}
	return body
}

func buildBulk(seed int64, tr *tracer) (workload, error) {
	e, err := newEnv(seed, tr)
	if err != nil {
		return nil, err
	}
	b := &bulkWorld{e: e, seed: seed}
	if err := b.setup(); err != nil {
		closeWorld(e)
		return nil, err
	}
	return b, nil
}

func (b *bulkWorld) setup() error {
	e, w := b.e, b.e.w
	for _, pair := range [][2]addr.IA{
		{topology.Core110, topology.Core210},
		{topology.Core120, topology.Core210},
		{topology.Core120, topology.Core220},
	} {
		l := w.DW.Link(pair[0], pair[1])
		p := l.Props()
		p.Bandwidth = 20_000_000
		l.SetProps(p)
	}
	w.Legacy.SetDefaultRoute(netsim.RouteProps{Latency: 2 * time.Millisecond})

	// The origin serves /blob/<n>, the first n bytes of the largest blob
	// (with byte ranges, as webserver.Site does), and /upload, which
	// answers with the sha256 of the body it received.
	largest := bulkSizes[len(bulkSizes)-1]
	b.blob = bulkBody(largest+largest/64, false)
	mux := http.NewServeMux()
	mux.HandleFunc("/blob/{n}", func(w http.ResponseWriter, r *http.Request) {
		n, err := strconv.Atoi(r.PathValue("n"))
		if err != nil || n < 0 || n > len(b.blob) {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(b.blob[:n]))
	})
	mux.HandleFunc("/upload", func(w http.ResponseWriter, r *http.Request) {
		h := sha256.New()
		if _, err := io.Copy(h, r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		io.WriteString(w, hex.EncodeToString(h.Sum(nil)))
	})
	return e.serveSCION(topology.AS211, "10.0.0.2", e.origin(mux), time.Hour, bulkHost)
}

// unit is one user session: a fresh client downloads (striped) and uploads
// each nominal size once, alternating direction as the sizes cycle. The
// seed stretches every transfer by up to 1/64 of its nominal size.
func (b *bulkWorld) unit(u int) ([]opResult, error) {
	c, err := b.e.newClient(clientConfig{
		ia: topology.AS111, ip: "10.0.0.1", name: "client", seed: b.seed*7_919 + int64(u),
		stripe: &pan.StripeOptions{Width: 2, SegmentSize: 128 << 10, MinStripeBytes: 128 << 10},
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	var h http.Handler = c.p
	if b.e.tr != nil {
		h = b.e.tr.proxyHandler(c, h)
	}
	rng := unitRNG(b.seed, u)
	out := make([]opResult, 0, 2*len(bulkSizes))
	for _, n := range bulkSizes {
		for _, upload := range []bool{false, true} {
			b.ops++
			out = append(out, b.transfer(c, h, b.ops, n, n+rng.Intn(n/64), upload))
		}
	}
	return out, nil
}

// transfer moves n bytes; nominal names the op's kind.
func (b *bulkWorld) transfer(c *client, h http.Handler, id int64, nominal, n int, upload bool) opResult {
	kind := fmt.Sprintf("get-%dk", nominal>>10)
	method, url := http.MethodGet, fmt.Sprintf("http://%s/blob/%d", bulkHost, n)
	var body io.Reader
	var sent []byte
	if upload {
		kind = fmt.Sprintf("post-%dk", nominal>>10)
		method, url = http.MethodPost, "http://"+bulkHost+"/upload"
		sent = bulkBody(n, true)
		body = bytes.NewReader(sent)
	}
	op := &opRec{id: id}
	c.cur.Store(op)
	if b.e.tr != nil {
		b.e.tr.beginOp(op, kind)
	}
	clock := b.e.w.Clock
	start := clock.Now()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, url, body))
	res := opResult{kind: kind, virt: clock.Since(start), outcome: "ok", bytes: int64(n)}
	c.cur.Store(nil)
	if b.e.tr != nil {
		b.e.tr.endOp(op, nil)
	}
	got := rec.Body.Bytes()
	switch {
	case rec.Code != http.StatusOK:
		res.outcome = fmt.Sprintf("status %d: %.200s", rec.Code, got)
	case rec.Header().Get(proxy.HeaderVia) != string(proxy.ViaSCION):
		res.outcome = fmt.Sprintf("X-Skip-Via %q, want scion", rec.Header().Get(proxy.HeaderVia))
	case upload:
		sum := sha256.Sum256(sent)
		if string(got) != hex.EncodeToString(sum[:]) {
			res.outcome = "upload digest mismatch"
		}
	case !bytes.Equal(got, b.blob[:n]):
		res.outcome = "download body mismatch"
	}
	if res.outcome != "ok" {
		res.bytes = 0
	} else if f := op.failures(); len(f) > 0 {
		res.outcome, res.bytes = f[0], 0
	}
	return res
}

func (b *bulkWorld) env() *env                     { return b.e }
func (b *bulkWorld) mark() (pan.IngestStats, bool) { return pan.IngestStats{}, false }
func (b *bulkWorld) close() teardown               { return closeWorld(b.e) }
