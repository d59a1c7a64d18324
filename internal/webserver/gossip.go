// LinkStats snapshot gossip: skip proxies (and any PAN host with a Monitor)
// exchange their locally measured link/path telemetry over plain HTTP, so a
// cold host boots with a warm peer's hotspot estimates instead of probing
// the world from scratch. The paper's proxy deployment has many vantage
// points observing the same core links — sharing the estimates is how that
// redundancy pays.
package webserver

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"tango/internal/netsim"
	"tango/internal/pan"
)

// LinkSnapshotPath is the well-known HTTP path a host's telemetry snapshot
// is served on.
const LinkSnapshotPath = "/telemetry/links"

// DefaultGossipInterval spaces a Gossiper's exchange rounds.
const DefaultGossipInterval = 10 * time.Second

// maxSnapshotBytes bounds how much of a peer's response a fetch will read —
// a misbehaving peer must not balloon the importer.
const maxSnapshotBytes = 4 << 20

// SnapshotHandler serves the monitor's current LinkSnapshot as JSON — mount
// it (on the legacy network or any HTTP surface) to make this host a gossip
// peer.
func SnapshotHandler(m *pan.Monitor) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			http.Error(w, "snapshot is read-only", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if r.Method == http.MethodHead {
			return
		}
		json.NewEncoder(w).Encode(m.ExportLinks())
	})
}

// FetchSnapshot GETs a peer's telemetry snapshot. peer is a base URL or bare
// host:port; the well-known snapshot path is appended when absent.
func FetchSnapshot(ctx context.Context, client *http.Client, peer string) (pan.LinkSnapshot, error) {
	url := peer
	if !strings.Contains(url, "://") {
		url = "http://" + url
	}
	if !strings.HasSuffix(url, LinkSnapshotPath) {
		url = strings.TrimSuffix(url, "/") + LinkSnapshotPath
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return pan.LinkSnapshot{}, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return pan.LinkSnapshot{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return pan.LinkSnapshot{}, fmt.Errorf("webserver: snapshot fetch from %s: %s", peer, resp.Status)
	}
	var snap pan.LinkSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, maxSnapshotBytes)).Decode(&snap); err != nil {
		return pan.LinkSnapshot{}, fmt.Errorf("webserver: decoding snapshot from %s: %w", peer, err)
	}
	return snap, nil
}

// Gossiper periodically pulls each peer's LinkSnapshot into a monitor. One
// bad peer never poisons the round: each peer is fetched and imported
// independently, and malformed snapshots are rejected by the monitor without
// mutating state.
type Gossiper struct {
	clock    netsim.Clock
	m        *pan.Monitor
	client   *http.Client
	peers    []string
	interval time.Duration
	weight   float64

	mu      sync.Mutex
	timer   netsim.Timer
	gen     int // bumped on Stop/Start; stale rounds must not re-arm
	rounds  int
	applied int
	lastErr error
}

// NewGossiper builds a gossiper over the given peers (base URLs or
// host:port). interval <= 0 picks DefaultGossipInterval; weight is the
// import trust passed to Monitor.ImportLinks (use 1 for same-deployment
// peers). Start arms the periodic loop; RunOnce drives a round by hand.
func NewGossiper(clock netsim.Clock, m *pan.Monitor, client *http.Client, peers []string, interval time.Duration, weight float64) *Gossiper {
	if interval <= 0 {
		interval = DefaultGossipInterval
	}
	if client == nil {
		client = http.DefaultClient
	}
	return &Gossiper{
		clock:    clock,
		m:        m,
		client:   client,
		peers:    append([]string(nil), peers...),
		interval: interval,
		weight:   weight,
	}
}

// RunOnce exchanges with every peer once, returning how many estimates were
// applied and the last per-peer error (the round continues past failures).
func (g *Gossiper) RunOnce(ctx context.Context) (applied int, err error) {
	for _, peer := range g.peers {
		snap, ferr := FetchSnapshot(ctx, g.client, peer)
		if ferr != nil {
			err = ferr
			continue
		}
		n, ierr := g.m.ImportLinks(snap, g.weight)
		if ierr != nil {
			err = fmt.Errorf("importing from %s: %w", peer, ierr)
			continue
		}
		applied += n
	}
	g.mu.Lock()
	g.rounds++
	g.applied += applied
	g.lastErr = err
	g.mu.Unlock()
	return applied, err
}

// Start arms the periodic exchange on the clock (virtual in simulation).
// Idempotent while running.
func (g *Gossiper) Start() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.timer != nil {
		return
	}
	g.gen++
	g.armLocked(g.gen)
}

// armLocked schedules the next round of generation gen. Rounds run in their
// own goroutine — never inside the timer callback, which would stall a
// virtual clock — and a round surviving across a Stop (or Stop→Start) sees
// a bumped generation and does not re-arm, so two loops can never run at
// once.
func (g *Gossiper) armLocked(gen int) {
	g.timer = g.clock.AfterFunc(g.interval, func() {
		go func() {
			g.RunOnce(context.Background())
			g.mu.Lock()
			defer g.mu.Unlock()
			if g.gen != gen || g.timer == nil {
				return // stopped (or restarted) while the round ran
			}
			g.armLocked(gen)
		}()
	})
}

// Stop cancels the periodic exchange. A round in flight drains without
// re-arming.
func (g *Gossiper) Stop() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.gen++
	if g.timer != nil {
		g.timer.Stop()
		g.timer = nil
	}
}

// Stats reports rounds run, total estimates applied, and the most recent
// round's error (nil when it fully succeeded).
func (g *Gossiper) Stats() (rounds, applied int, lastErr error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.rounds, g.applied, g.lastErr
}
