package pan

import (
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/squic"
)

// ProbeFunc measures one round trip to remote over path, bounded by
// timeout. It returns the observed RTT, or an error when the path did not
// answer in time.
type ProbeFunc func(remote addr.UDPAddr, serverName string, path *segment.Path, timeout time.Duration) (time.Duration, error)

// Scheduling defaults of the telemetry plane.
const (
	// DefaultProbeInterval is the base per-path probe interval.
	DefaultProbeInterval = 3 * time.Second
	// DefaultProbeBudget is the global probes-per-second cap shared by all
	// paths a Monitor tracks: a proxy serving thousands of origins
	// stretches per-path intervals instead of flooding the network.
	DefaultProbeBudget = 32.0
)

// MonitorOptions parameterizes a Monitor. The zero value gets sensible
// defaults from NewMonitor.
type MonitorOptions struct {
	// BaseInterval is the per-path probe interval for a path of ordinary
	// stability (default DefaultProbeInterval). Churn adaptation moves each
	// path's actual interval between MinInterval and MaxInterval around
	// this base.
	BaseInterval time.Duration
	// MinInterval bounds how fast an unstable path is probed (default
	// BaseInterval/4).
	MinInterval time.Duration
	// MaxInterval bounds how lazily a rock-stable (or repeatedly failing)
	// path is probed (default 4*BaseInterval).
	MaxInterval time.Duration
	// Timeout caps one probe (default: BaseInterval, at most squic's
	// default handshake timeout) so a dead path can never stall its own
	// schedule indefinitely.
	Timeout time.Duration
	// ProbeBudget is the global probes/sec cap across every tracked path
	// (default DefaultProbeBudget; negative = uncapped). When the per-path
	// intervals would exceed the budget, every interval is floored at
	// tracked-paths/budget seconds.
	ProbeBudget float64
	// Probe overrides the measurement. Host.NewMonitor defaults it to a
	// minimal squic handshake against the tracked server (one round trip
	// on the wire); tests inject deterministic fakes.
	Probe ProbeFunc
}

// PathTelemetry is one tracked path's live probe-derived state, the raw
// material for adaptive racing and churn-aware scheduling.
type PathTelemetry struct {
	Fingerprint string
	// RTT and Dev are the EWMA round-trip estimate and its EWMA absolute
	// deviation (Jacobson-style, gains 1/4).
	RTT time.Duration
	Dev time.Duration
	// Samples counts successful measurements ingested so far — active
	// probes plus passive samples.
	Samples int
	// PassiveSamples is how many of Samples were zero-cost passive
	// observations from live traffic (Monitor.Observe) rather than active
	// probes.
	PassiveSamples int
	// Down marks an unresolved probe failure.
	Down bool
	// Age is the time since the path was last probed (success or failure).
	Age time.Duration
	// Interval is the path's current churn-adapted probe interval.
	Interval time.Duration
	// Fresh reports whether the telemetry is recent relative to the path's
	// own schedule (Age within two intervals): stale estimates must not
	// justify narrow racing.
	Fresh bool
	// Imported marks telemetry that came from a peer's snapshot
	// (ImportLinks) and has not yet been confirmed by a local sample: a
	// prior, which the first live measurement replaces outright.
	Imported bool
}

// LinkStat is the congestion estimate of one inter-AS link, derived by
// decomposing end-to-end path probes. Congestion is the minimum observed
// excess RTT (over the paths' metadata baseline) among all tracked paths
// crossing the link — boolean-tomography style, so a link is only blamed
// when EVERY path crossing it runs hot — and Dev is the deviation of that
// minimal series, the instability signal HotspotSelector penalizes.
type LinkStat struct {
	A, B       addr.IA       // link endpoints, canonical order
	Congestion time.Duration // min EWMA excess RTT across crossing paths
	Dev        time.Duration // EWMA absolute deviation of the minimal series
	Sharers    int           // tracked paths currently crossing the link
	Age        time.Duration // time since the freshest underlying sample
}

// linkKey identifies an inter-AS link independent of direction.
type linkKey struct{ a, b addr.IA }

func canonicalLink(x, y addr.IA) linkKey {
	if y.ISD < x.ISD || (y.ISD == x.ISD && y.AS < x.AS) {
		x, y = y, x
	}
	return linkKey{a: x, b: y}
}

// pathLinks enumerates the inter-AS links of a path in travel order.
func pathLinks(p *segment.Path) []linkKey {
	out := make([]linkKey, 0, len(p.Hops))
	for i := 1; i < len(p.Hops); i++ {
		if p.Hops[i-1].IA != p.Hops[i].IA {
			out = append(out, canonicalLink(p.Hops[i-1].IA, p.Hops[i].IA))
		}
	}
	return out
}

// excessSeries is the EWMA of one path's excess RTT as seen across one link.
type excessSeries struct {
	mean    time.Duration
	dev     time.Duration
	samples int
	last    time.Time
}

func (s *excessSeries) ingest(x time.Duration, now time.Time) {
	if s.samples == 0 {
		s.mean = x
	} else {
		diff := x - s.mean
		if diff < 0 {
			diff = -diff
		}
		s.dev = s.dev - s.dev/4 + diff/4
		s.mean = s.mean - s.mean/4 + x/4
	}
	s.samples++
	s.last = now
}

// target is one destination: a remote address and the server name its
// certificate must prove. It keys the monitor's target tables and the
// dialer's pools.
type target struct {
	remote     addr.UDPAddr
	serverName string
}

// String is the "remote|serverName" form printouts show.
func (t target) String() string { return t.remote.String() + "|" + t.serverName }

// monTarget is one refcounted destination whose paths are probed.
type monTarget struct {
	target
	refs int
	// activeRefs counts the trackers that want ACTIVE probing. A target
	// whose refs are all passive (TrackPassive — e.g. a server tracking the
	// clients it serves) accepts passive samples and retains telemetry but
	// never puts its paths on the probe schedule: clients are not servers,
	// and a handshake probe at one could only burn budget on timeouts.
	activeRefs int
}

// SampleSplit is a destination's telemetry sample count split by origin:
// zero-cost passive observations from live traffic versus active probes
// spent from the budget.
type SampleSplit struct {
	Passive int `json:"passive"`
	Probes  int `json:"probes"`
}

// monEntry is the per-path telemetry and schedule state. In-flight probe
// tracking lives in Monitor.inflight, NOT here: entries can be pruned and
// re-created (by fingerprint) while a probe is still in flight, and a flag
// on the entry object would then latch or clear the wrong incarnation.
type monEntry struct {
	path    *segment.Path
	targets map[target]*monTarget // targets this path serves
	// links memoizes pathLinks(path) — the hop sequence is fixed for a
	// fingerprint, and rebuilding the slice was the one allocation left on
	// the per-sample ingest path.
	links []linkKey
	// seriesRefs memoizes the entry's per-link excess series pointers
	// (m.links[lk][fp] for each lk in links), valid while seriesGen
	// matches the monitor's generation counter — the double map lookup per
	// link per sample was the next cost on the ingest path once batching
	// amortized the lock.
	seriesRefs []*excessSeries
	seriesGen  uint64

	rtt, dev   time.Duration
	samples    int
	passive    int // how many of samples came from Observe
	lastSample time.Time
	// lastPassive is when Observe last fed this path; fire skips the
	// active probe while it is younger than the effective interval.
	lastPassive time.Time
	down        bool
	failures    int
	// prior marks telemetry imported from a peer's snapshot with no local
	// confirmation yet: the first live sample REPLACES it (reset to a first
	// sample) instead of blending — live samples override imports.
	prior bool
	// passiveTotal/probeTotal are CUMULATIVE sample counts (passive
	// observations vs probe attempts, failures included) that survive the
	// prior-replacement reset above. TargetSamples sums them over a
	// destination's entries — per-entry accounting keeps passive ingest
	// O(links), not O(destinations sharing the path), which is the
	// difference at a million origins behind a handful of ASes.
	passiveTotal int
	probeTotal   int

	interval time.Duration
	// seq counts reschedules: it varies the jitter, and each armed timer
	// carries the value it was armed at, so a timer left over from a
	// pruned entry, a cancelled reschedule or a Stop→Start cycle fails
	// fire's (entry, seq) check and only ever no-ops.
	seq uint64
	// sched is the entry's pending probe timer (nil = none armed).
	sched netsim.Timer
}

// Monitor is the shared telemetry plane below the selectors: ONE monitor per
// host schedules probes for every destination any of its dialers tracks,
// measures per-path RTT, and decomposes the measurements into link-level
// congestion estimates.
//
// Scheduling, per the paper's proxy deployment concern, is per PATH rather
// than per round: every tracked path carries its own next-probe deadline
// with a deterministic phase jitter (so a proxy serving thousands of origins
// never emits synchronized probe bursts) and a churn-adaptive interval —
// high EWMA RTT deviation shortens the interval toward MinInterval, a flat
// series stretches it toward MaxInterval — under a global probes/sec budget.
// Each path's deadline is its own clock timer, armed and cancelled under
// the monitor's lock.
//
// All state — tracking, telemetry, the schedule, in-flight marks, the link
// series and their cached aggregate, imported priors, and the ingest
// counters — lives under ONE mutex. Passive samples take it once per
// batch, and every sink fan-out runs after it is released.
//
// Destinations are tracked with reference counts: several Dialers share one
// Monitor, and a destination stops being probed only when the LAST tracker
// untracks it. Probe outcomes fan out to every subscribed sink (typically
// each dialer's active selector), and the link-level series feed
// HotspotSelector and the adaptive race-width adviser.
//
// Active probes are only half the input: Observe ingests zero-cost passive
// RTT samples skimmed off live traffic (pooled squic connections' ack RTTs,
// proxied requests' first-byte times) through the same pipeline, and a
// scheduled probe is skipped whenever a passive sample landed within the
// path's current interval — destinations with traffic keep themselves
// fresh for free, and the probe budget concentrates on the idle ones.
//
// All scheduling runs on the injected Clock, so experiments drive the
// monitor deterministically on virtual time. Probes run in their own
// goroutines (never inside a timer callback, which would stall a virtual
// clock advance).
type Monitor struct {
	clock netsim.Clock
	paths func(addr.IA) []*segment.Path
	opts  MonitorOptions

	mu      sync.Mutex //lint:lockorder panmon before simclock
	targets map[target]*monTarget
	entries map[string]*monEntry // path fingerprint → state
	// byTarget indexes each target's entries so Track/Untrack and path-set
	// reconciliation cost O(paths of that target), not O(all entries).
	byTarget map[target]map[string]*monEntry
	// inflight marks fingerprints with a probe currently on the wire, at
	// most one per path. Monitor-level (not per-entry) so a probe draining
	// across entry pruning/re-creation — or across a Stop→Start cycle —
	// always clears exactly its own mark and can never leave a re-created
	// entry latched out of the schedule.
	inflight map[string]bool
	// links holds the link excess series: per inter-AS link, one series
	// per tracked path crossing it.
	links map[linkKey]map[string]*excessSeries
	// gen invalidates the entries' memoized seriesRefs. Bumped by
	// everything that deletes an excessSeries — pruning and the link-cache
	// rebuild's stale-series sweep.
	gen uint64
	// active counts entries on the probe schedule: the budget floor's
	// numerator.
	active int
	// started gates the schedule.
	started bool
	// priors are link congestion estimates imported from peers' snapshots
	// (ImportLinks). They decay with age and only ever fill gaps: a link
	// with live local series ignores its prior entirely.
	priors map[linkKey]*linkPrior
	// linkCache memoizes the sorted LinkStats snapshot and its by-key view
	// (PathPenalty's lookup table). Invalidated by linkDirty (set on sample
	// ingest and pruning) and expired after MaxInterval so age-based series
	// expiry still lands without an ingest. LinkStats is called per gossip
	// round and per stats scrape — re-aggregating and re-sorting the full
	// link set on each call was measurable waste.
	linkCache    []LinkStat
	linkCacheMap map[linkKey]LinkStat
	linkCacheAt  time.Time
	linkDirty    bool
	// ingest is the passive-sample accounting IngestStats reports.
	ingest IngestStats

	// reportBufs holds spare report slices for ObserveBatch's fan-out. A
	// batch reaches the sinks after mu is released, so concurrent
	// producers — and a sink that re-enters ObserveBatch — each take a
	// buffer of their own; a miss allocates, a full list drops the buffer.
	reportBufs chan *[]SampleReport

	// sinkMu guards sink registration; the fan-out list itself is published
	// as an atomic snapshot so per-batch fan-out is a single load.
	// Rebuilds always allocate a FRESH slice, so callers may iterate a
	// loaded snapshot outside every lock.
	sinkMu   sync.Mutex //lint:lockorder pansink
	sinks    map[int]BatchSink
	nextSink int
	sinkList atomic.Pointer[[]BatchSink]
}

// SampleReport is one applied sample in a batched sink fan-out.
type SampleReport struct {
	Path    *segment.Path
	Outcome Outcome
}

// BatchSink receives one call per ingested batch instead of one per
// sample. Selectors implement it to amortize their own locks across the
// batch. The reports slice is reused between batches — a sink must not
// retain it past the call.
type BatchSink interface {
	ReportBatch(reports []SampleReport)
}

// BatchSinkFunc adapts a function to BatchSink.
type BatchSinkFunc func(reports []SampleReport)

// ReportBatch implements BatchSink.
func (f BatchSinkFunc) ReportBatch(reports []SampleReport) { f(reports) }

// NewMonitor builds a monitor from its parts: a clock, a path source (what
// Host.Paths provides), and options. Most callers want Host.NewMonitor,
// which wires the default squic-handshake probe.
func NewMonitor(clock netsim.Clock, paths func(addr.IA) []*segment.Path, opts MonitorOptions) *Monitor {
	if opts.BaseInterval <= 0 {
		opts.BaseInterval = DefaultProbeInterval
	}
	if opts.MinInterval <= 0 {
		opts.MinInterval = opts.BaseInterval / 4
	}
	if opts.MaxInterval <= 0 {
		opts.MaxInterval = 4 * opts.BaseInterval
	}
	if opts.MaxInterval < opts.BaseInterval {
		opts.MaxInterval = opts.BaseInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = opts.BaseInterval
		if opts.Timeout > squic.DefaultHandshakeTimeout {
			opts.Timeout = squic.DefaultHandshakeTimeout
		}
	}
	if opts.ProbeBudget == 0 {
		opts.ProbeBudget = DefaultProbeBudget
	}
	return &Monitor{
		clock:    clock,
		paths:    paths,
		opts:     opts,
		targets:  make(map[target]*monTarget),
		entries:  make(map[string]*monEntry),
		byTarget: make(map[target]map[string]*monEntry),
		inflight: make(map[string]bool),
		links:    make(map[linkKey]map[string]*excessSeries),
		priors:   make(map[linkKey]*linkPrior),
		sinks:    make(map[int]BatchSink),
		// Spares for 16 concurrent fan-outs; a batch beyond that allocates
		// its own buffer.
		reportBufs: make(chan *[]SampleReport, 16),
	}
}

// NewMonitor builds the host's telemetry plane whose default probe is a
// minimal squic handshake against the tracked server — one round trip on
// the wire, closed immediately after.
func (h *Host) NewMonitor(opts MonitorOptions) *Monitor {
	if opts.Probe == nil {
		opts.Probe = h.handshakeProbe
	}
	return NewMonitor(h.clock, h.Paths, opts)
}

// HandshakeProbe returns the host's default active probe — the measurement
// Host.NewMonitor installs when MonitorOptions.Probe is unset. Exported so
// scenario harnesses can wrap it (e.g. to count probes per destination)
// while keeping the real on-the-wire handshake cost.
func (h *Host) HandshakeProbe() ProbeFunc { return h.handshakeProbe }

// handshakeProbe measures a path by completing (and immediately closing) a
// squic handshake: exactly one round trip on the wire, with the server
// proving its identity, so a probe "success" means the path really carries
// application traffic end to end.
func (h *Host) handshakeProbe(remote addr.UDPAddr, serverName string, path *segment.Path, timeout time.Duration) (time.Duration, error) {
	sock, err := h.stack.Listen(0)
	if err != nil {
		return 0, err
	}
	start := h.clock.Now()
	conn, err := squic.Dial(sock, remote, path, serverName, &squic.Config{
		Clock:            h.clock,
		Pool:             h.pool,
		HandshakeTimeout: timeout,
	})
	if err != nil {
		return 0, err
	}
	rtt := h.clock.Since(start)
	conn.Close()
	return rtt, nil
}

// Track adds a destination to the probe set, reference-counted: a
// destination tracked by several dialers is probed once, and keeps being
// probed until every tracker has untracked it.
func (m *Monitor) Track(remote addr.UDPAddr, serverName string) {
	m.track(remote, serverName, true)
}

// TrackPassive adds a destination for PASSIVE telemetry only: its paths get
// entries (so Observe accepts samples for them) but never join the probe
// schedule, no matter whether the monitor is started. This is how a
// server-side plane tracks the clients it serves — safe to share a started
// dialer-side monitor with. A destination tracked both ways is probed as
// long as at least one active tracker remains.
func (m *Monitor) TrackPassive(remote addr.UDPAddr, serverName string) {
	m.track(remote, serverName, false)
}

func (m *Monitor) track(remote addr.UDPAddr, serverName string, active bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := target{remote, serverName}
	tgt := m.targets[key]
	if tgt == nil {
		tgt = &monTarget{target: key}
		m.targets[key] = tgt
	}
	// Per-entry schedulability BEFORE the ref change, so a passive→active
	// upgrade can see which entries just became schedulable.
	wasSched := make(map[string]bool, len(m.byTarget[key]))
	for fp, e := range m.byTarget[key] {
		wasSched[fp] = entrySchedulable(e)
	}
	tgt.refs++
	if active {
		tgt.activeRefs++
	}
	if tgt.refs == 1 {
		m.pruneLocked()
		m.syncTargetLocked(tgt)
		return
	}
	if active && tgt.activeRefs == 1 {
		// Upgraded from passive-only: existing entries join the schedule.
		for fp, e := range m.byTarget[key] {
			if !wasSched[fp] && entrySchedulable(e) {
				m.active++
				m.scheduleLocked(fp, e, true)
			}
		}
	}
}

// Untrack drops one active-tracking reference to a destination; at zero
// references its paths leave the probe schedule (paths still serving
// another tracked destination stay).
func (m *Monitor) Untrack(remote addr.UDPAddr, serverName string) {
	m.untrack(remote, serverName, true)
}

// UntrackPassive drops one TrackPassive reference.
func (m *Monitor) UntrackPassive(remote addr.UDPAddr, serverName string) {
	m.untrack(remote, serverName, false)
}

func (m *Monitor) untrack(remote addr.UDPAddr, serverName string, active bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := target{remote, serverName}
	tgt := m.targets[key]
	if tgt == nil {
		return
	}
	// Per-entry schedulability BEFORE the ref change: the active count was
	// tallied under the old refs, so transitions must be judged against
	// them.
	wasSched := make(map[string]bool, len(m.byTarget[key]))
	for fp, e := range m.byTarget[key] {
		wasSched[fp] = entrySchedulable(e)
	}
	tgt.refs--
	if active && tgt.activeRefs > 0 {
		tgt.activeRefs--
	}
	if tgt.refs <= 0 {
		delete(m.targets, key)
		for fp, e := range m.byTarget[key] {
			delete(e.targets, key)
			if wasSched[fp] && !entrySchedulable(e) {
				m.active--
				m.retireEntryLocked(e)
			}
		}
		delete(m.byTarget, key)
		return
	}
	// Refs remain; an active→passive-only downgrade still takes entries
	// with no other active target off the schedule (telemetry kept).
	for fp, e := range m.byTarget[key] {
		if wasSched[fp] && !entrySchedulable(e) {
			m.active--
			m.retireEntryLocked(e)
		}
	}
}

// entrySchedulable reports whether any of the entry's targets wants active
// probing — the condition for carrying a probe deadline.
func entrySchedulable(e *monEntry) bool {
	for _, t := range e.targets {
		if t.activeRefs > 0 {
			return true
		}
	}
	return false
}

// retireEntryLocked takes a path off the probe schedule while KEEPING its
// telemetry: tracking is scheduling, telemetry is knowledge — a destination
// evicted from a pool and re-dialed moments later must not restart from
// zero. Long-stale retired entries are pruned by pruneLocked.
func (m *Monitor) retireEntryLocked(e *monEntry) {
	if e.sched != nil {
		e.sched.Stop()
		e.sched = nil
	}
}

// pruneLocked drops retired entries — and link excess series — whose
// telemetry has gone stale beyond recall, bounding memory on long-lived
// monitors even when nothing ever queries LinkStats. Runs on each new
// destination Track, so churn itself drives the cleanup. (Imported priors
// are pruned by the link-cache rebuild.)
func (m *Monitor) pruneLocked() {
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	now := m.clock.Now()
	for fp, e := range m.entries {
		if len(e.targets) == 0 && (e.lastSample.IsZero() || now.Sub(e.lastSample) > horizon) {
			delete(m.entries, fp)
		}
	}
	for lk, series := range m.links {
		for fp, s := range series {
			if now.Sub(s.last) > horizon {
				delete(series, fp)
			}
		}
		if len(series) == 0 {
			delete(m.links, lk)
		}
	}
	m.gen++ // series may have been deleted; memoized seriesRefs are stale
	m.linkDirty = true
}

// syncTargetLocked reconciles the entry set with the target's
// current paths: unseen paths get entries (and, when started, a
// phase-jittered first deadline), and entries this target referenced whose
// path the control plane no longer offers drop the reference — so path
// expiry and turnover retire defunct schedules instead of probing ghosts
// forever.
func (m *Monitor) syncTargetLocked(tgt *monTarget) {
	key := tgt.target
	idx := m.byTarget[key]
	if idx == nil {
		idx = make(map[string]*monEntry)
		m.byTarget[key] = idx
	}
	current := make(map[string]bool)
	for _, p := range m.paths(tgt.remote.IA) {
		fp := p.Fingerprint()
		current[fp] = true
		e := m.entries[fp]
		if e == nil {
			e = &monEntry{
				path:     p,
				targets:  make(map[target]*monTarget),
				interval: m.opts.BaseInterval,
			}
			m.entries[fp] = e
		}
		wasSched := entrySchedulable(e)
		e.path = p
		e.targets[key] = tgt
		idx[fp] = e
		if !wasSched && entrySchedulable(e) {
			m.active++
			m.scheduleLocked(fp, e, true)
		}
	}
	for fp, e := range idx {
		if !current[fp] {
			delete(idx, fp)
			wasSched := entrySchedulable(e)
			delete(e.targets, key)
			if wasSched && !entrySchedulable(e) {
				m.active--
				m.retireEntryLocked(e)
			}
		}
	}
}

// TargetCount returns the number of distinct tracked destinations.
func (m *Monitor) TargetCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.targets)
}

// TrackedPaths returns the number of paths currently on the probe schedule
// (retired entries kept only for their telemetry don't count).
func (m *Monitor) TrackedPaths() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.active
}

// SubscribeBatch registers an outcome sink and returns its unsubscribe
// function. The sink gets ONE ReportBatch call per ingested passive batch
// and per probe outcome (a one-element batch: Outcome{Latency, Probe:
// true} on success, Failure with Probe set on timeout). A Dialer
// subscribes its active selector, so one monitor feeds every dialer
// sharing it, and each selector takes its own lock once per batch.
func (m *Monitor) SubscribeBatch(sink BatchSink) (unsubscribe func()) {
	m.sinkMu.Lock()
	defer m.sinkMu.Unlock()
	id := m.nextSink
	m.nextSink++
	m.sinks[id] = sink
	m.rebuildSinksLocked()
	return func() {
		m.sinkMu.Lock()
		defer m.sinkMu.Unlock()
		delete(m.sinks, id)
		m.rebuildSinksLocked()
	}
}

// rebuildSinksLocked publishes a fresh id-ordered fan-out snapshot.
// Subscribe/unsubscribe are rare; per-batch fan-out just loads the
// pointer.
func (m *Monitor) rebuildSinksLocked() {
	ids := make([]int, 0, len(m.sinks))
	for id := range m.sinks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	sinks := make([]BatchSink, 0, len(ids))
	for _, id := range ids {
		sinks = append(sinks, m.sinks[id])
	}
	m.sinkList.Store(&sinks)
}

// sinksSnapshot returns the current fan-out list; safe to iterate outside
// any lock (snapshots are immutable once published).
func (m *Monitor) sinksSnapshot() []BatchSink {
	if p := m.sinkList.Load(); p != nil {
		return *p
	}
	return nil
}

// fanOut hands one batch to every sink. Callers hold no monitor lock, so
// a sink may call back into the monitor.
func fanOut(sinks []BatchSink, reports []SampleReport) {
	for _, s := range sinks {
		s.ReportBatch(reports)
	}
}

// Start arms the probe schedule: every tracked path gets a phase-jittered
// first deadline within one interval. Idempotent while running; callable
// again after Stop.
func (m *Monitor) Start() {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.started {
		return
	}
	m.started = true
	for fp, e := range m.entries {
		m.scheduleLocked(fp, e, true)
	}
}

// Stop cancels the probe schedule. Probes already in flight drain without
// reporting or rescheduling. A timer already firing when Stop runs is
// fenced by fire's (entry, seq) check, so a deadline can neither fire
// after Stop nor strand its entry out of a later Start's schedule.
func (m *Monitor) Stop() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.started = false
	for _, e := range m.entries {
		m.retireEntryLocked(e)
	}
}

// jitterHash folds a fingerprint and a sequence number into a uniform
// 0..999 bucket, the deterministic substitute for random phase jitter.
func jitterHash(fp string, seq uint64) uint64 {
	h := fnv.New64a()
	h.Write([]byte(fp))
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seq >> (8 * i))
	}
	h.Write(buf[:])
	return h.Sum64() % 1000
}

// budgetFloor is the minimum per-path interval that keeps the global probe
// rate within ProbeBudget given the current tracked-path count. Caller
// holds mu.
func (m *Monitor) budgetFloor() time.Duration {
	n := m.active
	if m.opts.ProbeBudget <= 0 || n == 0 {
		return 0
	}
	return time.Duration(float64(n) / m.opts.ProbeBudget * float64(time.Second))
}

// effectiveInterval is the interval the schedule actually honors: the
// churn-adapted interval, floored by the global probe budget.
func (m *Monitor) effectiveInterval(e *monEntry) time.Duration {
	iv := e.interval
	if floor := m.budgetFloor(); iv < floor {
		iv = floor
	}
	return iv
}

// scheduleLocked arms the entry's next probe timer on the clock. The first
// deadline spreads paths uniformly across one interval (phase =
// hash(fingerprint)); later deadlines are the churn-adapted interval ±15%
// deterministic jitter, so phases never re-synchronize into bursts. Caller
// holds mu.
func (m *Monitor) scheduleLocked(fp string, e *monEntry, first bool) {
	if !m.started || e.sched != nil || !entrySchedulable(e) {
		return
	}
	iv := m.effectiveInterval(e)
	var d time.Duration
	if first {
		// Phase offset in [iv/8, iv]: never immediate, never bursty.
		d = iv/8 + time.Duration(jitterHash(fp, 0))*(iv-iv/8)/1000
	} else {
		// iv scaled by a deterministic factor in [0.85, 1.15].
		d = iv*85/100 + time.Duration(jitterHash(fp, e.seq))*(iv*30/100)/1000
	}
	e.seq++
	seq := e.seq
	e.sched = m.clock.AfterFunc(d, func() { m.fire(fp, e, seq) })
}

// fire runs inside a clock timer callback once the entry's deadline is due
// and must not block: it hands the probe to a goroutine. The (entry, seq)
// check drops stale timers — an entry rescheduled, retired, pruned, or
// cycled through Stop→Start since this timer was armed.
func (m *Monitor) fire(fp string, e *monEntry, seq uint64) {
	m.mu.Lock()
	if m.entries[fp] != e || e.sched == nil || e.seq != seq {
		m.mu.Unlock()
		return
	}
	e.sched = nil
	if m.inflight[fp] {
		// A manual round still has this path in flight; retry next interval.
		m.scheduleLocked(fp, e, false)
		m.mu.Unlock()
		return
	}
	if !e.lastPassive.IsZero() && m.clock.Since(e.lastPassive) < m.effectiveInterval(e) {
		// Probe suppression: live traffic measured this path within the
		// current interval, so the active probe would spend budget on
		// nothing — skip it and push the schedule. Deciding here (rather
		// than re-arming the deadline from Observe on every ack sample)
		// keeps the passive hot path free of scheduler churn; once traffic
		// stops, the very next deadline probes again.
		m.scheduleLocked(fp, e, false)
		m.mu.Unlock()
		return
	}
	m.inflight[fp] = true
	m.mu.Unlock()
	go m.probeEntry(fp, true)
}

// probeEntry measures one path, ingests the outcome, reschedules, and fans
// the outcome out to the sinks. scheduled distinguishes background probes
// (which respect Stop and re-arm) from manual RunRound probes.
func (m *Monitor) probeEntry(fp string, scheduled bool) {
	m.mu.Lock()
	e := m.entries[fp]
	if e == nil {
		// Pruned between fire and here; the mark MUST clear anyway — an
		// fp can be re-created by a later Track, and a leaked mark would
		// silence its schedule forever.
		delete(m.inflight, fp)
		m.mu.Unlock()
		return
	}
	var tgt *monTarget
	for _, t := range e.targets {
		// Only actively-tracked targets can answer a probe: passive-only
		// targets (a server's clients) have no server to handshake with.
		if t.activeRefs == 0 {
			continue
		}
		// The lowest formatted target wins: a deterministic pick, and the
		// only place targets are formatted, on the probe path.
		if tgt == nil || t.String() < tgt.String() {
			tgt = t
		}
	}
	path := e.path
	timeout := m.opts.Timeout
	if tgt == nil {
		delete(m.inflight, fp)
		m.mu.Unlock()
		return
	}
	m.mu.Unlock()

	rtt, err := m.opts.Probe(tgt.remote, tgt.serverName, path, timeout)

	m.mu.Lock()
	delete(m.inflight, fp)
	e = m.entries[fp]
	if e == nil {
		m.mu.Unlock()
		return
	}
	outcome := m.ingestLocked(e, rtt, err, false, m.clock.Now())
	if !outcome.Failed {
		m.linkDirty = true
	}
	alive := !scheduled || m.started
	// Re-arm whenever the monitor is running and the entry has no pending
	// deadline — regardless of who launched this probe. A probe that was in
	// flight across a Stop→Start cycle (Start already armed a fresh
	// deadline) no-ops here; one that drained after the restart consumed
	// its deadline re-arms itself, so the path can never fall silently out
	// of the schedule.
	if m.started && entrySchedulable(e) {
		m.scheduleLocked(fp, e, false)
	}
	m.mu.Unlock()

	if !alive {
		return
	}
	if sinks := m.sinksSnapshot(); len(sinks) > 0 {
		fanOut(sinks, []SampleReport{{Path: path, Outcome: outcome}})
	}
	if scheduled {
		m.resyncEntryTargets(fp)
	}
}

// resyncEntryTargets reconciles the path sets of the targets the probed
// entry serves, picking up paths that appeared (discovery, expiry
// turnover) and dropping ones the control plane withdrew — so long-running
// monitors follow the control plane without an explicit refresh call.
// Scoping the resync to the probed entry's own targets keeps the per-probe
// cost proportional to that destination, not to every origin the host
// serves.
func (m *Monitor) resyncEntryTargets(fp string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.entries[fp]
	if e == nil {
		return
	}
	keys := make([]target, 0, len(e.targets))
	for key := range e.targets {
		keys = append(keys, key)
	}
	for _, key := range keys {
		if tgt := m.targets[key]; tgt != nil {
			m.syncTargetLocked(tgt)
		}
	}
}

// ingestLocked folds one measurement — an active probe result or a passive
// traffic sample — into the entry's telemetry, adapts its interval to the
// observed churn, and attributes success excess to the traversed links.
// Probes and passive samples share this pipeline end to end; only the
// outcome marking (and the cumulative sample-origin counters) records the
// origin. Caller holds mu, supplies now (so a batch reads the clock once),
// and sets linkDirty after its batch. Returns the outcome to fan out.
func (m *Monitor) ingestLocked(e *monEntry, rtt time.Duration, err error, passive bool, now time.Time) Outcome {
	e.lastSample = now
	if passive {
		e.passiveTotal++
	} else {
		e.probeTotal++
	}
	if err != nil {
		e.failures++
		e.down = true
		// Failure backoff: double toward MaxInterval so a mostly-dead path
		// set cannot consume the probe budget in timeouts.
		e.interval *= 2
		if e.interval > m.opts.MaxInterval {
			e.interval = m.opts.MaxInterval
		}
		return Outcome{Failed: true, Probe: true}
	}
	e.failures = 0
	e.down = false
	if e.prior {
		// The entry held only an imported prior; the first live measurement
		// replaces it outright rather than blending into a peer's estimate.
		e.prior = false
		e.samples, e.passive = 0, 0
		e.rtt, e.dev = 0, 0
	}
	if passive {
		e.passive++
		e.lastPassive = now
	}
	if e.samples == 0 {
		// Optimistic deviation start: a first sample carries no churn
		// evidence, and adaptive racing should not stay wide on a path
		// whose only observation is clean.
		e.rtt, e.dev = rtt, 0
	} else {
		diff := rtt - e.rtt
		if diff < 0 {
			diff = -diff
		}
		e.dev = e.dev - e.dev/4 + diff/4
		e.rtt = e.rtt - e.rtt/4 + rtt/4
	}
	e.samples++

	// Churn adaptation (cf. entropy-aware probing, PAPERS.md): deviation
	// large relative to the RTT → probe faster; a flat series → stretch the
	// interval and spend the budget elsewhere.
	switch {
	case e.dev*4 >= e.rtt && e.rtt > 0:
		e.interval = m.opts.MinInterval
	case e.dev*8 >= e.rtt && e.rtt > 0:
		e.interval = m.opts.BaseInterval / 2
		if e.interval < m.opts.MinInterval {
			e.interval = m.opts.MinInterval
		}
	case e.dev*32 <= e.rtt && e.samples >= 3:
		e.interval *= 2
		if e.interval > m.opts.MaxInterval {
			e.interval = m.opts.MaxInterval
		}
	default:
		e.interval = m.opts.BaseInterval
	}

	// Link attribution: the path's excess RTT over its metadata baseline is
	// recorded against every link it crosses; LinkStats' min-across-paths
	// later exonerates links that any clean path also crosses.
	excess := rtt - 2*e.path.Meta.Latency
	if excess < 0 {
		excess = 0
	}
	for _, s := range m.linkSeriesLocked(e) {
		s.ingest(excess, now)
	}
	if passive {
		return Outcome{Latency: rtt, Passive: true}
	}
	return Outcome{Latency: rtt, Probe: true}
}

// linkSeriesLocked returns the entry's per-link excess series, memoized on
// the entry and revalidated against the deletion generation — the
// per-sample double map lookup (m.links[lk][fp] per link) reduced to a
// slice walk. Caller holds mu.
func (m *Monitor) linkSeriesLocked(e *monEntry) []*excessSeries {
	if e.seriesRefs != nil && e.seriesGen == m.gen {
		return e.seriesRefs
	}
	if e.links == nil {
		e.links = pathLinks(e.path)
	}
	fp := e.path.Fingerprint()
	refs := e.seriesRefs[:0]
	for _, lk := range e.links {
		series := m.links[lk]
		if series == nil {
			series = make(map[string]*excessSeries)
			m.links[lk] = series
		}
		s := series[fp]
		if s == nil {
			s = &excessSeries{}
			series[fp] = s
		}
		refs = append(refs, s)
	}
	if refs == nil {
		refs = []*excessSeries{} // 0-link path: keep the memo marker non-nil
	}
	e.seriesRefs, e.seriesGen = refs, m.gen
	return refs
}

// Observe ingests one zero-cost RTT sample observed on live traffic over
// path — a pooled squic connection's ack RTT, a proxied request's
// time-to-first-byte. The sample flows through exactly the probe ingest
// pipeline (EWMA and deviation, churn-adaptive interval, link attribution,
// sink fan-out) but is marked Outcome{Probe: false, Passive: true} so
// use-driven selectors don't mistake ack cadence for request cadence.
// Observe is ObserveBatch with one sample: this is the squic ack hot path,
// and it takes the monitor lock once and allocates nothing.
//
// The budget saver: the sample stamps the path's lastPassive time, and the
// scheduled fire SKIPS the active probe (rescheduling only) while that
// stamp is younger than the path's effective interval. A destination with
// continuous traffic therefore keeps fresh telemetry while consuming
// (near-)zero probe budget, a tight ProbeBudget concentrates structurally
// on the destinations with no traffic to learn from, and — because the
// suppression decision lives at the (rare) fire, not here — the per-ack
// hot path never touches the scheduler. Samples for untracked paths are
// dropped: tracking is the scheduling contract, and passive data must not
// keep telemetry alive for paths nothing dials anymore.
func (m *Monitor) Observe(path *segment.Path, rtt time.Duration) {
	m.ObserveBatch(path, []time.Duration{rtt})
}

// ObserveBatch ingests several passive samples observed on the same path —
// a squic connection's coalesced ack RTTs between flushes. The batch takes
// mu once: one clock read, one entry lookup, one link-cache invalidation.
// After unlocking, every sink gets one ReportBatch call for the whole
// batch. Non-positive samples are ignored.
func (m *Monitor) ObserveBatch(path *segment.Path, rtts []time.Duration) {
	if path == nil {
		return
	}
	n := uint64(0)
	for _, rtt := range rtts {
		if rtt > 0 {
			n++
		}
	}
	if n == 0 {
		return
	}
	sinks := m.sinksSnapshot()
	now := m.clock.Now()
	m.mu.Lock()
	m.ingest.Enqueued += n
	m.ingest.Batches++
	e := m.entries[path.Fingerprint()]
	if e == nil || len(e.targets) == 0 {
		m.ingest.Untracked += n
		m.mu.Unlock()
		return
	}
	var buf *[]SampleReport
	var reports []SampleReport
	if len(sinks) > 0 {
		select {
		case buf = <-m.reportBufs:
		default:
			buf = new([]SampleReport)
		}
		reports = (*buf)[:0]
	}
	for _, rtt := range rtts {
		if rtt <= 0 {
			continue
		}
		outcome := m.ingestLocked(e, rtt, nil, true, now)
		if buf != nil {
			reports = append(reports, SampleReport{Path: path, Outcome: outcome})
		}
	}
	m.ingest.Applied += n
	m.linkDirty = true
	m.mu.Unlock()
	if buf == nil {
		return
	}
	fanOut(sinks, reports)
	clear(reports) // a spare buffer must not keep retired paths reachable
	*buf = reports[:0]
	select {
	case m.reportBufs <- buf:
	default:
	}
}

// IngestStats is the monitor-wide accounting of passive-sample ingest
// (all-time counts). Every sample is applied or discarded synchronously by
// the call that delivers it, so Enqueued == Applied + Untracked always
// holds and Coalesced and Dropped are always 0; the two fields stay so
// that consumers of the accounting keep their shape.
type IngestStats struct {
	// Enqueued counts samples handed to Observe/ObserveBatch (positive
	// RTTs only).
	Enqueued uint64 `json:"enqueued"`
	// Applied counts samples folded into telemetry.
	Applied uint64 `json:"applied"`
	// Coalesced and Dropped count samples superseded or lost before they
	// were applied; synchronous ingest loses none.
	Coalesced uint64 `json:"coalesced"`
	Dropped   uint64 `json:"dropped"`
	// Untracked counts samples discarded because their path had no
	// tracked target (anymore).
	Untracked uint64 `json:"untracked"`
	// Batches counts locked ingest batches — Applied/Batches is the
	// amortization factor.
	Batches uint64 `json:"batches"`
}

// IngestStats reports the passive-sample ingest accounting.
func (m *Monitor) IngestStats() IngestStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ingest
}

// TargetSamples reports a tracked destination's telemetry sample split —
// how many zero-cost passive samples versus active probes have fed its
// paths. ok is false for destinations the monitor does not track. A sample
// on a path serving several destinations credits each of them (they all
// consume its freshness): the split sums the cumulative per-entry counters
// over the destination's current paths.
func (m *Monitor) TargetSamples(remote addr.UDPAddr, serverName string) (SampleSplit, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	key := target{remote, serverName}
	if m.targets[key] == nil {
		return SampleSplit{}, false
	}
	var split SampleSplit
	for _, e := range m.byTarget[key] {
		split.Passive += e.passiveTotal
		split.Probes += e.probeTotal
	}
	return split, true
}

// RunRound synchronously probes every tracked path once, in fingerprint
// order, ignoring the background schedule — the deterministic round tests,
// tools, and benchmarks drive directly. Outcomes are ingested and fanned
// out exactly as scheduled probes are.
func (m *Monitor) RunRound() {
	var fps []string
	m.mu.Lock()
	for _, tgt := range m.targets {
		m.syncTargetLocked(tgt)
	}
	for fp, e := range m.entries {
		if m.inflight[fp] || !entrySchedulable(e) {
			continue // mid-flight, retired, or passive-only; don't probe
		}
		m.inflight[fp] = true
		fps = append(fps, fp)
	}
	m.mu.Unlock()
	sort.Strings(fps)
	for _, fp := range fps {
		m.probeEntry(fp, false)
	}
}

// Telemetry returns the live telemetry of one tracked path.
func (m *Monitor) Telemetry(fp string) (PathTelemetry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if e := m.entries[fp]; e != nil {
		return m.telemetryLocked(fp, e), true
	}
	return PathTelemetry{}, false
}

func (m *Monitor) telemetryLocked(fp string, e *monEntry) PathTelemetry {
	// Freshness (and the exported interval) judge against the schedule the
	// monitor actually runs — the budget-floored interval — so a tightly
	// budgeted proxy doesn't misread its own slower cadence as staleness
	// and race wide on every dial.
	iv := m.effectiveInterval(e)
	t := PathTelemetry{
		Fingerprint:    fp,
		RTT:            e.rtt,
		Dev:            e.dev,
		Samples:        e.samples,
		PassiveSamples: e.passive,
		Down:           e.down,
		Interval:       iv,
		Imported:       e.prior,
	}
	if !e.lastSample.IsZero() {
		t.Age = m.clock.Since(e.lastSample)
		t.Fresh = t.Age <= 2*iv+m.opts.Timeout
	}
	return t
}

// staleSeriesAfter is how long a link's per-path excess series survives
// without a new sample before LinkStats ignores it.
const staleSeriesAfter = 10

// linkStat computes one link's congestion estimate: the minimum EWMA
// excess among the live series of paths crossing it (with that series'
// deviation). Boolean-tomography logic: if ANY path crossing the link is
// clean, the link is exonerated and the congestion lives elsewhere. Stale
// series are pruned in place (caller holds mu).
func linkStat(lk linkKey, series map[string]*excessSeries, now time.Time, horizon time.Duration) (LinkStat, bool) {
	st := LinkStat{A: lk.a, B: lk.b}
	found := false
	var newest time.Time
	for fp, s := range series {
		if s.samples == 0 || now.Sub(s.last) > horizon {
			delete(series, fp)
			continue
		}
		st.Sharers++
		if s.last.After(newest) {
			newest = s.last
		}
		if !found || s.mean < st.Congestion || (s.mean == st.Congestion && s.dev < st.Dev) {
			st.Congestion, st.Dev = s.mean, s.dev
			found = true
		}
	}
	if found {
		st.Age = now.Sub(newest)
	}
	return st, found
}

// linkCacheLocked returns the memoized link snapshot (sorted slice + by-key
// map), rebuilding it only when dirty (a sample was ingested or pruning ran
// since) or older than MaxInterval (so series expiring purely by age still
// drop out). The returned slice is the cache itself: callers must copy
// before handing it out. Caller holds mu.
func (m *Monitor) linkCacheLocked() ([]LinkStat, map[linkKey]LinkStat) {
	now := m.clock.Now()
	if !m.linkDirty && m.linkCache != nil && now.Sub(m.linkCacheAt) <= m.opts.MaxInterval {
		return m.linkCache, m.linkCacheMap
	}
	m.linkDirty = false
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	// linkStat prunes stale series in place; invalidate the entries'
	// memoized series pointers wholesale (queries are rare, rebuilding a
	// memo is one map walk per entry).
	m.gen++
	byKey := make(map[linkKey]LinkStat)
	for lk, series := range m.links {
		st, ok := linkStat(lk, series, now, horizon)
		if len(series) == 0 {
			delete(m.links, lk)
		}
		if ok {
			byKey[lk] = st
		}
	}
	// Aged-out priors ride along with the rebuild.
	for lk, pr := range m.priors {
		if pr.age(now) > horizon {
			delete(m.priors, lk)
		}
	}
	out := make([]LinkStat, 0, len(byKey))
	for _, st := range byKey {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A.ISD < out[j].A.ISD || (out[i].A.ISD == out[j].A.ISD && out[i].A.AS < out[j].A.AS)
		}
		return out[i].B.ISD < out[j].B.ISD || (out[i].B.ISD == out[j].B.ISD && out[i].B.AS < out[j].B.AS)
	})
	m.linkCache, m.linkCacheMap, m.linkCacheAt = out, byKey, now
	return out, byKey
}

// LinkStats exports the per-link congestion estimates measured LOCALLY,
// sorted by endpoints for deterministic output. Imported priors are not
// included: they feed PathPenalty (and hence ranking) but never re-export,
// so gossip cannot echo a stale estimate between hosts forever. The snapshot
// is cached between sample ingests — this is called per gossip round and per
// stats scrape.
func (m *Monitor) LinkStats() []LinkStat {
	m.mu.Lock()
	defer m.mu.Unlock()
	stats, _ := m.linkCacheLocked()
	return append([]LinkStat(nil), stats...)
}

// PathPenalty is the hotspot cost of routing over p: the sum over its links
// of congestion + 2·deviation. A path avoiding every hot shared link pays
// ~zero; a path crossing a high-variance shared link pays the instability
// that end-to-end EWMA averaging hides. This is what HotspotSelector adds
// to its latency ranking key.
//
// Links with no live local series fall back to an imported prior when one is
// present (age-decayed, so a peer's warm estimate fades as it goes stale):
// the warm-start half of link-state sharing. A link with ANY live series
// ignores its prior — local measurement always overrides imports.
func (m *Monitor) PathPenalty(p *segment.Path) time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, byKey := m.linkCacheLocked()
	return m.penaltyLocked(p, byKey, m.clock.Now())
}

// penaltyLocked is PathPenalty against an already fetched link snapshot.
// Caller holds mu.
func (m *Monitor) penaltyLocked(p *segment.Path, byKey map[linkKey]LinkStat, now time.Time) time.Duration {
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	var sum time.Duration
	for _, lk := range pathLinks(p) {
		if st, ok := byKey[lk]; ok {
			sum += st.Congestion + 2*st.Dev
			continue
		}
		if pr := m.priors[lk]; pr != nil {
			sum += pr.penalty(now, horizon)
		}
	}
	return sum
}

// PathStat bundles one path's telemetry with its hotspot penalty — what a
// ranking pass needs per candidate.
type PathStat struct {
	Telemetry PathTelemetry
	// Known reports whether the monitor holds an entry for the path at all
	// (Telemetry is zero-valued otherwise, except for the fingerprint).
	Known bool
	// Penalty is PathPenalty for the path: live link stats, or age-decayed
	// imported priors on links never measured locally.
	Penalty time.Duration
}

// PathStats evaluates every path's telemetry and hotspot penalty in a
// batch under one lock acquisition — the batched form of
// Telemetry+PathPenalty for ranking passes that run on hot paths
// (reverse-path steering evaluates per sample batch on the packet delivery
// path; 2·N lock round-trips per evaluation would contend with probe
// ingest across every served connection).
func (m *Monitor) PathStats(paths []*segment.Path) []PathStat {
	return m.PathStatsAppend(nil, paths)
}

// PathStatsAppend is PathStats appending into dst (often a scratch slice a
// steering pass reuses across evaluations, keeping the per-sample ranking
// path allocation-free).
func (m *Monitor) PathStatsAppend(dst []PathStat, paths []*segment.Path) []PathStat {
	start := len(dst)
	if need := start + len(paths); cap(dst) >= need {
		dst = dst[:need]
	} else {
		grown := make([]PathStat, need)
		copy(grown, dst)
		dst = grown
	}
	out := dst[start:]
	m.mu.Lock()
	defer m.mu.Unlock()
	for i, p := range paths {
		fp := p.Fingerprint()
		st := PathStat{Telemetry: PathTelemetry{Fingerprint: fp}}
		if e := m.entries[fp]; e != nil {
			st.Telemetry = m.telemetryLocked(fp, e)
			st.Known = true
		}
		out[i] = st
	}
	_, byKey := m.linkCacheLocked()
	now := m.clock.Now()
	for i, p := range paths {
		out[i].Penalty = m.penaltyLocked(p, byKey, now)
	}
	return dst
}

// DefaultAdaptiveRaceWidth caps adaptive racing when the Dialer's RaceWidth
// leaves the cap unset.
const DefaultAdaptiveRaceWidth = 3

// RaceSpreadMargin is the minimum RTT band within which a follower counts
// as a close contender worth racing, regardless of how tight the leader's
// deviation estimate is.
const RaceSpreadMargin = 15 * time.Millisecond

// AdviseRaceWidth picks a race width from the telemetry of the top-ranked
// candidates (rank order, tels[0] = leader), capped at max:
//
//   - unknown, stale, or down leader telemetry → race the full width (the
//     ranking cannot be trusted narrow);
//   - a fresh, healthy leader races only the followers that are plausibly
//     the real leader: unknown/stale followers, and fresh ones whose
//     PESSIMISTIC estimate (RTT + 2·deviation — an unstable path must not
//     look attractive on its mean) lands within max(2·leader deviation,
//     RaceSpreadMargin) of the leader's RTT;
//   - a fresh follower that is clearly slower or unstable — or fresh and
//     down — is not raced.
//
// With a clearly healthy leader the advice collapses to width 1: no extra
// handshakes on the wire, exactly the paper's "race wide only when it could
// pay" behavior.
func AdviseRaceWidth(tels []PathTelemetry, max int) (width int, reason string) {
	if max < 1 {
		max = DefaultAdaptiveRaceWidth
	}
	if len(tels) < max {
		max = len(tels)
	}
	if max <= 1 {
		return 1, "single-candidate"
	}
	leader := tels[0]
	switch {
	case leader.Samples == 0 && !leader.Down:
		return max, "no-leader-telemetry"
	case !leader.Fresh:
		return max, "stale-leader"
	case leader.Down:
		return max, "leader-down"
	}
	band := 2 * leader.Dev
	if band < RaceSpreadMargin {
		band = RaceSpreadMargin
	}
	width = 1
	contested := false
	for _, f := range tels[1:] {
		if width >= max {
			break
		}
		switch {
		case f.Samples == 0 && !f.Down, !f.Fresh:
			width++ // can't rule the follower out
		case f.Down:
			// Fresh and down: never worth a racer.
		case f.RTT+2*f.Dev < leader.RTT+band:
			width++
			contested = true
		}
	}
	if width == 1 {
		return 1, "clear-leader"
	}
	if contested {
		return width, "close-contenders"
	}
	return width, "unknown-contenders"
}

// RaceWidth maps a ranked candidate list through AdviseRaceWidth using this
// monitor's telemetry.
func (m *Monitor) RaceWidth(cands []Candidate, max int) (int, string) {
	if max < 1 {
		max = DefaultAdaptiveRaceWidth
	}
	n := max
	if len(cands) < n {
		n = len(cands)
	}
	tels := make([]PathTelemetry, 0, n)
	m.mu.Lock()
	for _, c := range cands[:n] {
		fp := c.Path.Fingerprint()
		if e := m.entries[fp]; e != nil {
			tels = append(tels, m.telemetryLocked(fp, e))
		} else {
			tels = append(tels, PathTelemetry{Fingerprint: fp})
		}
	}
	m.mu.Unlock()
	return AdviseRaceWidth(tels, max)
}
