package pan

import (
	"slices"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
)

// SampleSplit is a destination's telemetry sample count split by origin:
// zero-cost passive observations from live traffic versus active probes
// spent from the budget.
type SampleSplit struct {
	Passive int `json:"passive"`
	Probes  int `json:"probes"`
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

// sinkReg is one subscription. Unsubscribe finds it by pointer, since the
// sink itself may be an incomparable value such as a BatchSinkFunc.
type sinkReg struct{ sink BatchSink }

// SubscribeBatch registers an outcome sink and returns its unsubscribe
// function. The sink gets ONE ReportBatch call per ingested passive batch
// and per probe outcome (a one-element batch: Outcome{Latency, Probe:
// true} on success, Failure with Probe set on timeout), after the sinks
// subscribed before it. A Dialer subscribes its active selector, so one
// monitor feeds every dialer sharing it, and each selector takes its own
// lock once per batch. Unsubscribing twice is harmless.
func (m *Monitor) SubscribeBatch(sink BatchSink) (unsubscribe func()) {
	reg := &sinkReg{sink}
	m.sinkMu.Lock()
	defer m.sinkMu.Unlock()
	sinks := append(slices.Clip(m.sinksSnapshot()), reg)
	m.sinks.Store(&sinks)
	return func() {
		m.sinkMu.Lock()
		defer m.sinkMu.Unlock()
		old := m.sinksSnapshot()
		if i := slices.Index(old, reg); i >= 0 {
			sinks := append(old[:i:i], old[i+1:]...)
			m.sinks.Store(&sinks)
		}
	}
}

// sinksSnapshot returns the current fan-out list; safe to iterate outside
// any lock (snapshots are immutable once published).
func (m *Monitor) sinksSnapshot() []*sinkReg {
	if p := m.sinks.Load(); p != nil {
		return *p
	}
	return nil
}

// fanOut hands one batch to every sink. Callers hold no monitor lock, so
// a sink may call back into the monitor.
func fanOut(sinks []*sinkReg, reports []SampleReport) {
	for _, r := range sinks {
		r.sink.ReportBatch(reports)
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

	// Link attribution: the path's excess RTT over its metadata baseline
	// feeds its series, which the link view charges to every link it
	// crosses; LinkStats' min-across-paths later exonerates links that any
	// clean path also crosses.
	excess := rtt - 2*e.path.Meta.Latency
	if excess < 0 {
		excess = 0
	}
	e.excess.ingest(excess, now)
	if passive {
		return Outcome{Latency: rtt, Passive: true}
	}
	return Outcome{Latency: rtt, Probe: true}
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
