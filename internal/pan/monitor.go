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

// monEntry is the per-path telemetry and schedule state. In-flight probe
// tracking lives in Monitor.inflight, NOT here: entries can be pruned and
// re-created (by fingerprint) while a probe is still in flight, and a flag
// on the entry object would then latch or clear the wrong incarnation.
type monEntry struct {
	path    *segment.Path
	targets map[target]*monTarget // targets this path serves
	// activeTargets counts the targets with activeRefs > 0: the entry is
	// schedulable exactly while it is positive.
	activeTargets int
	// links memoizes pathLinks(path), set by linkKeys on first use — the
	// hop sequence is fixed for a fingerprint.
	links []linkKey
	// excess is the path's excess-RTT series. Every link in links takes the
	// same sample, so one series stands for the path on each of them.
	excess excessSeries

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
// All state — tracking, telemetry and excess series, the schedule,
// in-flight marks, the cached link view, imported priors, and the ingest
// counters — lives under ONE mutex. Passive samples take it once per
// batch, and every sink fan-out runs after it is released.
//
// Destinations are tracked with reference counts: several Dialers share one
// Monitor, and a destination stops being probed only when the LAST tracker
// untracks it. Probe outcomes fan out to every subscribed sink (typically
// each dialer's active selector), and the link view built from the paths'
// excess series feeds HotspotSelector and the adaptive race-width adviser.
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

	// sinkMu guards sink registration; the fan-out list, in subscription
	// order, is published as an atomic snapshot so per-batch fan-out is a
	// single load. Every change publishes a FRESH slice, so callers may
	// iterate a loaded snapshot outside every lock.
	sinkMu sync.Mutex //lint:lockorder pansink
	sinks  atomic.Pointer[[]*sinkReg]
}

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
		priors:   make(map[linkKey]*linkPrior),
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
			m.activateLocked(fp, e)
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
	wasActive := tgt.activeRefs > 0
	tgt.refs--
	if tgt.refs <= 0 {
		tgt.activeRefs = 0 // the last reference takes every active one along
	} else if active && tgt.activeRefs > 0 {
		tgt.activeRefs--
	}
	if wasActive && tgt.activeRefs == 0 {
		// Entries with no other active target leave the schedule; an
		// active→passive-only downgrade keeps their telemetry flowing.
		for _, e := range m.byTarget[key] {
			m.deactivateLocked(e)
		}
	}
	if tgt.refs <= 0 {
		delete(m.targets, key)
		for _, e := range m.byTarget[key] {
			delete(e.targets, key)
		}
		delete(m.byTarget, key)
	}
}

// activateLocked counts one more active target on the entry; the first puts
// it on the probe schedule.
func (m *Monitor) activateLocked(fp string, e *monEntry) {
	e.activeTargets++
	if e.activeTargets == 1 {
		m.active++
		m.scheduleLocked(fp, e, true)
	}
}

// deactivateLocked counts one active target fewer on the entry; the last
// takes it off the probe schedule.
func (m *Monitor) deactivateLocked(e *monEntry) {
	e.activeTargets--
	if e.activeTargets == 0 {
		m.active--
		m.retireEntryLocked(e)
	}
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

// pruneLocked drops retired entries whose telemetry has gone stale beyond
// recall, and restarts the stale excess series of the entries it keeps,
// bounding memory on long-lived monitors even when nothing ever queries
// LinkStats. Runs on each new destination Track, so churn itself drives the
// cleanup. (Imported priors are pruned by the link-cache rebuild.)
func (m *Monitor) pruneLocked() {
	horizon := time.Duration(staleSeriesAfter) * m.opts.MaxInterval
	now := m.clock.Now()
	for fp, e := range m.entries {
		if len(e.targets) == 0 && (e.lastSample.IsZero() || now.Sub(e.lastSample) > horizon) {
			delete(m.entries, fp)
			continue
		}
		e.excess.expire(now, horizon)
	}
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
		e.path = p
		if e.targets[key] == nil {
			e.targets[key] = tgt
			idx[fp] = e
			if tgt.activeRefs > 0 {
				m.activateLocked(fp, e)
			}
		}
	}
	for fp, e := range idx {
		if !current[fp] {
			delete(idx, fp)
			delete(e.targets, key)
			if tgt.activeRefs > 0 {
				m.deactivateLocked(e)
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
	if !m.started || e.sched != nil || e.activeTargets == 0 {
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
	if m.started && e.activeTargets > 0 {
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
	// syncTargetLocked(tgt) writes no key of e.targets but tgt's own, and
	// that one it can only delete, which a range tolerates.
	for _, tgt := range e.targets {
		m.syncTargetLocked(tgt)
	}
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
		if m.inflight[fp] || e.activeTargets == 0 {
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
