package proxy

import (
	"sort"
	"sync"
	"time"

	"tango/internal/pan"
)

// Via classifies how a request was served.
type Via string

// Via values.
const (
	ViaSCION Via = "scion"
	ViaIP    Via = "ip"
	// ViaFallback marks a request that was attempted over SCION and fell
	// back to legacy IP after a round-trip error — the measurable form of
	// the paper's silent SCION→IP fallback.
	ViaFallback Via = "fallback"
	ViaError    Via = "error"
)

// RequestRecord is one proxied request's outcome, the raw material for the
// "statistics on path usage and performance of particular paths [that] are
// provided as feedback to users" (paper §4).
type RequestRecord struct {
	Host      string
	Via       Via
	Path      string // path fingerprint for SCION requests
	Compliant bool
	Duration  time.Duration
	// TTFB is the time to first response byte for SCION requests (0
	// otherwise): the transfer-size-independent latency signal the proxy
	// also feeds into the telemetry plane as a passive sample.
	TTFB   time.Duration
	Bytes  int64
	Status int
	// Striped marks a response body fetched as concurrent byte ranges over
	// link-disjoint paths.
	Striped bool
	// PathBytes, for striped requests, splits Bytes across the path
	// fingerprints that carried them (the probe's path included). When set,
	// per-path byte accounting uses this split instead of crediting Bytes to
	// Path alone.
	PathBytes map[string]int64
	// Reassigned counts stripe segments moved off a collapsed or dead
	// pipeline mid-transfer (0 for clean transfers).
	Reassigned int
}

// PathHealth is one path's live telemetry as exported through the stats
// API: down-state from failure reports (dial errors, transport teardowns,
// failed probes) and the current RTT estimate where the active selector
// tracks one. It is the per-path liveness feed the paper's §4.2 UI renders
// next to the usage statistics, and is exactly the selector's own export.
type PathHealth = pan.PathHealth

// LinkStat is one inter-AS link's congestion estimate as exported through
// the stats API: the monitor's decomposition of end-to-end probes into the
// shared-link hotspots HotspotSelector routes around.
type LinkStat = pan.LinkStat

// SampleSplit is one destination's telemetry sample count split into
// zero-cost passive observations versus active probes, as exported through
// the stats API.
type SampleSplit = pan.SampleSplit

// IngestStats is the monitor's passive-sample ingest accounting
// (enqueue/apply/untracked/batch counters), as exported through the stats
// API.
type IngestStats = pan.IngestStats

// Stats aggregates proxied-request outcomes. It is safe for concurrent use.
type Stats struct {
	mu      sync.Mutex
	byVia   map[Via]int
	byHost  map[string]map[Via]int
	byPath  map[string]*PathUsage
	striped int
	records []RequestRecord
	health  func() []PathHealth
	links   func() []LinkStat
	samples func() map[string]SampleSplit
	ingest  func() (IngestStats, bool)
}

// PathUsage aggregates per-path feedback.
type PathUsage struct {
	Fingerprint string
	Requests    int
	Bytes       int64
	TotalTime   time.Duration
	Compliant   bool
}

// NewStats creates an empty aggregator.
func NewStats() *Stats {
	return &Stats{
		byVia:  make(map[Via]int),
		byHost: make(map[string]map[Via]int),
		byPath: make(map[string]*PathUsage),
	}
}

// Record ingests one request outcome.
func (s *Stats) Record(r RequestRecord) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byVia[r.Via]++
	if r.Striped {
		s.striped++
	}
	if s.byHost[r.Host] == nil {
		s.byHost[r.Host] = make(map[Via]int)
	}
	s.byHost[r.Host][r.Via]++
	if r.Via == ViaSCION && r.Path != "" {
		u := s.byPath[r.Path]
		if u == nil {
			u = &PathUsage{Fingerprint: r.Path, Compliant: r.Compliant}
			s.byPath[r.Path] = u
		}
		u.Requests++
		if r.PathBytes == nil {
			u.Bytes += r.Bytes
		}
		u.TotalTime += r.Duration
		u.Compliant = u.Compliant && r.Compliant
	}
	// A striped request's bytes are credited per carrying path, so the
	// per-path usage feedback reflects where the data actually travelled.
	for fp, b := range r.PathBytes {
		u := s.byPath[fp]
		if u == nil {
			u = &PathUsage{Fingerprint: fp, Compliant: r.Compliant}
			s.byPath[fp] = u
		}
		u.Bytes += b
	}
	s.records = append(s.records, r)
}

// SetHealthSource installs the live path-telemetry provider consulted by
// Snapshot — the proxy wires it to the active selector's HealthExporter
// view. The source is called outside the stats lock (it takes the
// selector's own locks).
func (s *Stats) SetHealthSource(f func() []PathHealth) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.health = f
}

// SetLinkSource installs the per-link congestion provider consulted by
// Snapshot — the proxy wires it to the attached monitor's LinkStats. Called
// outside the stats lock.
func (s *Stats) SetLinkSource(f func() []LinkStat) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.links = f
}

// SetSampleSource installs the per-destination passive/probe sample-split
// provider consulted by Snapshot — the proxy wires it to the monitor's
// per-target counters. Called outside the stats lock.
func (s *Stats) SetSampleSource(f func() map[string]SampleSplit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.samples = f
}

// SetIngestSource installs the ingest-ring accounting provider consulted
// by Snapshot — the proxy wires it to the monitor's IngestStats (ok=false
// without a monitor). Called outside the stats lock.
func (s *Stats) SetIngestSource(f func() (IngestStats, bool)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingest = f
}

// Snapshot is an immutable copy of the aggregates.
type Snapshot struct {
	ByVia  map[Via]int            `json:"by_via"`
	ByHost map[string]map[Via]int `json:"by_host"`
	Paths  []PathUsage            `json:"paths"`
	// Health is per-path liveness from the active selector: down-state and
	// live RTT estimates, refreshed by dial outcomes and background probes.
	Health []PathHealth `json:"health,omitempty"`
	// Links is the monitor's per-link congestion view (empty without
	// probing): where in the network the variance lives.
	Links []LinkStat `json:"links,omitempty"`
	// Samples is the per-destination passive-vs-probe sample split (empty
	// without probing): how much of each origin's telemetry came for free
	// from its own traffic versus from the active probe budget.
	Samples map[string]SampleSplit `json:"samples,omitempty"`
	// Ingest is the monitor's passive-sample accounting (nil without a
	// monitor): applied vs untracked samples, and the batch amortization
	// factor.
	Ingest *IngestStats `json:"ingest,omitempty"`
	// Striped counts requests whose bodies were fetched as concurrent byte
	// ranges over link-disjoint paths.
	Striped int `json:"striped,omitempty"`
	Total   int `json:"total"`
}

// Snapshot copies the current aggregates.
func (s *Stats) Snapshot() Snapshot {
	s.mu.Lock()
	health, links, samples, ingest := s.health, s.links, s.samples, s.ingest
	s.mu.Unlock()
	var liveness []PathHealth
	if health != nil {
		liveness = health()
	}
	var linkStats []LinkStat
	if links != nil {
		linkStats = links()
	}
	var sampleSplit map[string]SampleSplit
	if samples != nil {
		sampleSplit = samples()
	}
	var ingestStats *IngestStats
	if ingest != nil {
		if st, ok := ingest(); ok {
			ingestStats = &st
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := Snapshot{
		ByVia:   make(map[Via]int, len(s.byVia)),
		ByHost:  make(map[string]map[Via]int, len(s.byHost)),
		Health:  liveness,
		Links:   linkStats,
		Samples: sampleSplit,
		Ingest:  ingestStats,
		Striped: s.striped,
		Total:   len(s.records),
	}
	for v, n := range s.byVia {
		out.ByVia[v] = n
	}
	for h, m := range s.byHost {
		hm := make(map[Via]int, len(m))
		for v, n := range m {
			hm[v] = n
		}
		out.ByHost[h] = hm
	}
	for _, u := range s.byPath {
		out.Paths = append(out.Paths, *u)
	}
	sort.Slice(out.Paths, func(i, j int) bool {
		a, b := &out.Paths[i], &out.Paths[j]
		if a.Requests != b.Requests {
			return a.Requests > b.Requests
		}
		return a.Fingerprint < b.Fingerprint
	})
	return out
}

// Records returns a copy of all raw records.
func (s *Stats) Records() []RequestRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RequestRecord(nil), s.records...)
}
