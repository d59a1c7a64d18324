package pan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/segment"
	"tango/internal/squic"
)

// DialOptions parameterizes a Dialer. They are fixed once NewDialer
// returns; only the selector changes later, through SetSelector.
type DialOptions struct {
	// Selector is the initial path ranker (nil = accept-everything
	// PolicySelector).
	Selector Selector
	// Mode is the operational mode applied at selection time.
	Mode Mode
	// ServerName is the default server identity dialed connections must
	// prove; Dial's serverName argument overrides it per call.
	ServerName string
	// Timeout caps each dial attempt's handshake (0 = squic's default). A
	// context deadline tightens it further.
	Timeout time.Duration
	// RaceWidth, when > 1, dials that many top-ranked candidates
	// concurrently per Dial call and keeps the first completed handshake;
	// the losers are canceled and closed. A canceled loser is NOT reported
	// as a failure — cancellation says nothing about the path — while a
	// loser that failed on its own merit before the race was decided still
	// reports Failure. 0 or 1 keeps sequential failover over maxAttempts
	// candidates.
	RaceWidth int
	// RaceStagger delays racer i's start by i*RaceStagger, so the
	// top-ranked candidate gets a head start and a healthy first choice
	// wins without the network ever seeing the extra handshakes. 0 picks
	// DefaultRaceStagger when racing; negative disables staggering.
	RaceStagger time.Duration
	// Monitor, when set, attaches the dialer to a shared telemetry plane:
	// probe outcomes feed the active selector, every destination with a
	// pooled connection is tracked (and untracked when its pooled
	// connection is evicted), and AdaptiveRace can draw on the telemetry.
	// Several dialers may share one Monitor.
	Monitor *Monitor
	// AdaptiveRace, with a Monitor attached, auto-tunes the per-dial race
	// width from telemetry freshness and RTT spread: stale or contested
	// leaders race up to RaceWidth (or DefaultAdaptiveRaceWidth when
	// RaceWidth ≤ 1), a clearly healthy leader dials alone.
	AdaptiveRace bool
	// Passive, with a Monitor attached, streams every pooled connection's
	// ack RTT samples into Monitor.Observe for the connection's lifetime:
	// zero-cost telemetry from traffic the dialer already carries, which
	// keeps busy destinations fresh and suppresses their scheduled active
	// probes.
	Passive bool
}

// RaceDecision records how the most recent Dial chose its race width — the
// observability hook for adaptive racing.
type RaceDecision struct {
	// Width is the number of candidates dialed concurrently (1 =
	// sequential failover).
	Width int
	// Adaptive reports whether telemetry picked the width.
	Adaptive bool
	// Reason is the adviser's one-word rationale ("clear-leader",
	// "stale-leader", "close-contenders", ...); "configured" when static.
	Reason string
	// Racers lists the raced candidates' fingerprints in start order when
	// Width > 1 — after the hotspot-aware disjoint pick, so tests and
	// operators can see that one congested shared link cannot sink every
	// racer. Empty for sequential dials.
	Racers []string
}

// DefaultRaceStagger is the inter-racer start offset applied when racing
// with an unset RaceStagger.
const DefaultRaceStagger = 10 * time.Millisecond

// maxAttempts bounds sequential candidate failover per Dial call.
const maxAttempts = 3

// ErrDialerClosed is returned by Dial after Close.
var ErrDialerClosed = errors.New("pan: dialer closed")

// Dialer dials squic connections with selector-driven path choice,
// per-destination connection reuse, and failure feedback.
//
// Reuse is keyed by a selector epoch: SetSelector bumps the epoch and drops
// every pooled connection, so the next request to each destination
// re-dials under the new policy — callers no longer hand-clear
// per-authority maps. Dial failures and reported transport errors mark the
// path down in the selector; the next dial re-ranks and fails over.
type Dialer struct {
	host *Host
	// opts is read-only after NewDialer; the live selector is sel.
	opts  DialOptions
	unsub func() // drops the monitor subscription

	mu     sync.Mutex //lint:lockorder pandialer
	sel    Selector
	epoch  uint64
	closed bool
	conns  map[target]*pooledConn
	// stripes pools striped connection sets per destination (DialStriped),
	// epoch-keyed and invalidated exactly like conns.
	stripes map[target]*Striped
	// last remembers the most recent successful selection per destination
	// at the current epoch, surviving the pooled connection's death so a
	// response served just before a failure still annotates correctly.
	last map[target]Selection
	// tracked mirrors the pool into the monitor's probe set: a destination
	// is tracked while (and only while) it has a pooled connection, so a
	// long-lived proxy stops probing origins it no longer talks to.
	tracked  map[trackKey]bool
	lastRace RaceDecision
	// dials counts fresh connections pooled, ever; each pooledConn is
	// stamped with the value at its pooling (see pooledConn.gen), giving
	// every pool entry a unique, monotonic generation.
	dials uint64
}

// trackKey is one entry of the tracking mirror. A destination pooled both
// as a single connection and as a stripe set holds one refcounted Track
// for each.
type trackKey struct {
	target
	stripe bool
}

// pooledConn is one reusable connection plus the selection that produced it.
type pooledConn struct {
	conn  *squic.Conn
	sel   Selection
	epoch uint64
	gen   uint64 // unique per pooling; PoolState's re-dial detector
}

// NewDialer builds a Dialer on the host.
func (h *Host) NewDialer(opts DialOptions) *Dialer {
	if opts.Selector == nil {
		opts.Selector = NewPolicySelector(nil, nil)
	}
	// Zero means the default; a negative stagger disables staggering. It
	// applies only when a dial races, statically or by adaptive widening.
	if opts.RaceStagger == 0 {
		opts.RaceStagger = DefaultRaceStagger
	}
	d := &Dialer{host: h, opts: opts, sel: opts.Selector, conns: make(map[target]*pooledConn), stripes: make(map[target]*Striped), last: make(map[target]Selection), tracked: make(map[trackKey]bool)}
	if m := opts.Monitor; m != nil {
		// Probe outcomes reach whatever selector is active at delivery
		// time, so SetSelector redirects probe feedback automatically.
		d.unsub = m.SubscribeBatch(BatchSinkFunc(func(reports []SampleReport) {
			sel := d.Selector()
			if bs, ok := sel.(BatchSink); ok {
				bs.ReportBatch(reports)
				return
			}
			for _, r := range reports {
				sel.Report(r.Path, r.Outcome)
			}
		}))
	}
	return d
}

// LastRace reports how the most recent Dial chose its race width.
func (d *Dialer) LastRace() RaceDecision {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastRace
}

// Selector returns the active selector.
func (d *Dialer) Selector() Selector {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.sel
}

// Epoch returns the current selector epoch.
func (d *Dialer) Epoch() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.epoch
}

// SetSelector installs a new selector and bumps the epoch: every pooled
// connection is closed and the next dial per destination re-selects.
func (d *Dialer) SetSelector(s Selector) {
	if s == nil {
		s = NewPolicySelector(nil, nil)
	}
	d.mu.Lock()
	d.sel = s
	d.mu.Unlock()
	d.Invalidate()
}

// Invalidate bumps the epoch and closes every pooled connection without
// changing the selector — useful when external state (e.g. trust material)
// changed under the pool. Evicted destinations leave the monitor's probe
// set; the re-dial that replaces a pooled connection re-tracks it.
func (d *Dialer) Invalidate() {
	d.mu.Lock()
	d.epoch++
	conns := d.conns
	d.conns = make(map[target]*pooledConn)
	stripes := d.stripes
	d.stripes = make(map[target]*Striped)
	d.last = make(map[target]Selection) // selected under a superseded policy
	// Under d.mu: a concurrent Dial cannot interleave its Track between
	// this snapshot and the release, so the refcounts stay exact. Entries
	// exist only with a monitor attached.
	for k := range d.tracked {
		d.opts.Monitor.Untrack(k.remote, k.serverName)
	}
	d.tracked = make(map[trackKey]bool)
	d.mu.Unlock()
	for _, pc := range conns {
		pc.conn.Close()
	}
	for _, st := range stripes {
		st.closeConns()
	}
}

// Close releases all pooled connections and makes the dialer terminal:
// later Dial calls fail with ErrDialerClosed instead of silently pooling
// connections nothing will ever close. Its monitor subscription and probe
// tracking are released too.
func (d *Dialer) Close() {
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	if d.unsub != nil {
		d.unsub() // idempotent
	}
	d.Invalidate()
}

// Cached returns the most recent Selection that produced a connection to
// remote at the current epoch — the annotation source for callers that
// already routed a request over the pool. It keeps answering after the
// connection has failed (a response can complete just before a concurrent
// request kills the shared connection); only an epoch bump clears it.
func (d *Dialer) Cached(remote addr.UDPAddr, serverName string) (Selection, bool) {
	if serverName == "" {
		serverName = d.opts.ServerName
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	sel, ok := d.last[target{remote, serverName}]
	return sel, ok
}

// PoolState reports whether a live pooled connection to remote exists at
// the current epoch — i.e. whether the next Dial will reuse it instead of
// dialing — and, when live, that pool entry's generation (unique per
// pooling). Unlike Cached (which keeps answering from the last selection
// after the connection has died), this consults the pool itself. The
// proxy's passive-telemetry feed brackets a round trip with it: live
// before and the SAME generation after proves the round trip rode that
// pooled connection, with no re-dial (and no failover's worth of handshake
// timeouts) hiding inside.
func (d *Dialer) PoolState(remote addr.UDPAddr, serverName string) (gen uint64, live bool) {
	if serverName == "" {
		serverName = d.opts.ServerName
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pc := d.conns[target{remote, serverName}]
	if pc == nil || pc.epoch != d.epoch || pc.conn.Err() != nil {
		return 0, false
	}
	return pc.gen, true
}

// ReportFailure reports a transport-level failure observed on the pooled
// connection to remote (e.g. an HTTP round-trip error): if the pooled
// connection is dead, it is dropped and its path reported down so the next
// dial re-ranks around it. First reporter wins: with the entry absent (a
// dial-stage failure, which Dial already reported) or already replaced by a
// live connection (a concurrent caller reported the same death first and a
// re-dial succeeded), the call is a no-op — a stale report must not kill a
// healthy replacement or mislabel its path.
func (d *Dialer) ReportFailure(remote addr.UDPAddr, serverName string) {
	if serverName == "" {
		serverName = d.opts.ServerName
	}
	d.mu.Lock()
	key := target{remote, serverName}
	pc := d.conns[key]
	if pc == nil || pc.conn.Err() == nil {
		d.mu.Unlock()
		return
	}
	delete(d.conns, key)
	d.untrackKeyLocked(trackKey{target: key})
	sel := d.sel
	d.mu.Unlock()
	pc.conn.Close()
	sel.Report(pc.sel.Path, Failure)
}

// untrackKeyLocked removes key from the tracking mirror and releases its
// monitor reference. Every dialer-side Track/Untrack runs under d.mu (lock
// order d.mu → monitor.mu, never reversed: the monitor calls its sinks
// outside its own lock), so a concurrent Dial can never re-Track a
// destination between an Invalidate's snapshot and its release — the
// refcount stays exact.
func (d *Dialer) untrackKeyLocked(k trackKey) {
	if !d.tracked[k] {
		return
	}
	delete(d.tracked, k)
	d.opts.Monitor.Untrack(k.remote, k.serverName)
}

// Dial returns a connection to remote whose server proves serverName
// (DialOptions.ServerName when empty). A live pooled connection at the
// current epoch is reused; otherwise candidates are dialed in ranked order
// — sequentially through maxAttempts candidates, or concurrently over the
// top RaceWidth candidates when racing is configured — reporting genuine
// failures into the selector. The winning path's Success report carries the
// measured handshake latency, feeding latency-ranking selectors a live
// sample per dial. The returned connection stays pooled: do not Close it
// per request — close the Dialer (or bump the epoch) instead.
func (d *Dialer) Dial(ctx context.Context, remote addr.UDPAddr, serverName string) (*squic.Conn, Selection, error) {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil, Selection{}, ErrDialerClosed
	}
	if serverName == "" {
		serverName = d.opts.ServerName
	}
	key := target{remote, serverName}
	epoch := d.epoch
	sel := d.sel
	if pc := d.conns[key]; pc != nil {
		if pc.epoch == epoch && pc.conn.Err() == nil {
			d.mu.Unlock()
			return pc.conn, pc.sel, nil
		}
		// Stale: superseded epoch or dead transport. Drop silently — dial
		// failures below, not graceful closes, feed the health signal. The
		// probe set follows the pool: a successful re-dial re-tracks.
		delete(d.conns, key)
		d.untrackKeyLocked(trackKey{target: key})
		defer pc.conn.Close()
	}
	d.mu.Unlock()

	width, monitor := d.opts.RaceWidth, d.opts.Monitor
	cands, selection, err := d.host.candidates(remote.IA, sel, d.opts.Mode)
	if err != nil {
		return nil, selection, err
	}
	decision := RaceDecision{Width: 1, Reason: "configured"}
	if width > 1 && len(cands) > 1 {
		decision.Width = width
		if decision.Width > len(cands) {
			decision.Width = len(cands)
		}
	}
	if d.opts.AdaptiveRace && monitor != nil && len(cands) > 1 {
		maxWidth := width
		if maxWidth <= 1 {
			maxWidth = DefaultAdaptiveRaceWidth
		}
		w, reason := monitor.RaceWidth(cands, maxWidth)
		width = w
		decision = RaceDecision{Width: w, Adaptive: true, Reason: reason}
	}
	var conn *squic.Conn
	var won Candidate
	var hsLatency time.Duration
	if width > 1 && len(cands) > 1 {
		// Hotspot-aware racing: racers are picked greedily for disjoint
		// link sets (leader first), not as plain top-k, so one congested
		// shared link can't sink the whole race.
		racers := DisjointRace(cands, width)
		decision.Racers = make([]string, len(racers))
		for i, c := range racers {
			decision.Racers[i] = c.Path.Fingerprint()
		}
		d.mu.Lock()
		d.lastRace = decision
		d.mu.Unlock()
		conn, won, hsLatency, err = d.dialRaced(ctx, remote, racers, serverName, sel)
	} else {
		d.mu.Lock()
		d.lastRace = decision
		d.mu.Unlock()
		conn, won, hsLatency, err = d.dialSequential(ctx, remote, cands, serverName, sel)
	}
	if err != nil {
		return nil, selection, err
	}
	selection.Path = won.Path
	selection.Compliant = won.Compliant

	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		conn.Close()
		return nil, Selection{}, ErrDialerClosed
	}
	if d.epoch != epoch {
		// The selector changed while we were dialing: this connection was
		// selected under a superseded policy and must not be pooled — and
		// an unpooled connection would leak (callers never close
		// per-request). Drop it and re-dial under the new epoch.
		d.mu.Unlock()
		conn.Close()
		return d.Dial(ctx, remote, serverName)
	}
	if existing := d.conns[key]; existing != nil && existing.conn.Err() == nil {
		// A concurrent dial won the race; reuse its connection.
		d.mu.Unlock()
		conn.Close()
		return existing.conn, existing.sel, nil
	}
	d.dials++
	d.conns[key] = &pooledConn{conn: conn, sel: selection, epoch: epoch, gen: d.dials}
	d.last[key] = selection
	if monitor != nil {
		if tk := (trackKey{target: key}); !d.tracked[tk] {
			// The pooled destination joins the shared probe set — under
			// d.mu, so a concurrent Invalidate/Close cannot slip between
			// the mirror entry and the refcount. The matching Untrack fires
			// when this pool entry is evicted or closed.
			d.tracked[tk] = true
			monitor.Track(remote, serverName)
		}
	}
	d.mu.Unlock()
	if monitor != nil && d.opts.Passive {
		// Stream the pooled connection's ack RTTs into the telemetry plane
		// for as long as it lives: every request the caller sends doubles as
		// a free probe of the winning path.
		path := won.Path
		conn.OnRTTSampleBatch(func(rtts []time.Duration) { monitor.ObserveBatch(path, rtts) })
	}
	// Report Success only for a connection actually put into service: a
	// discarded race-loser or stale-epoch dial must not advance use-driven
	// selectors (RoundRobin rotation). The measured handshake latency rides
	// along as a live RTT sample.
	sel.Report(won.Path, Outcome{Latency: hsLatency})
	return conn, selection, nil
}

// abandoned reports whether err (or the context itself) says the caller
// gave the dial up, as opposed to the path failing.
func abandoned(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// dialSequential tries candidates in ranked order until one handshake
// completes or attempts are exhausted. Failure reports are deferred until
// the call's fate is known: when the caller abandons the call (context
// canceled or expired) NOTHING is reported — not even earlier candidates'
// failures, whose timing may itself have been an artifact of the shrinking
// context budget rather than path health.
func (d *Dialer) dialSequential(ctx context.Context, remote addr.UDPAddr, cands []Candidate, serverName string, sel Selector) (*squic.Conn, Candidate, time.Duration, error) {
	attempts := maxAttempts
	if len(cands) < attempts {
		attempts = len(cands)
	}
	var lastErr error
	var failed []*segment.Path
	for _, cand := range cands[:attempts] {
		start := d.host.clock.Now()
		conn, err := d.dialPath(ctx, remote, cand, serverName)
		if err != nil {
			if abandoned(ctx, err) {
				return nil, Candidate{}, 0, err
			}
			lastErr = err
			failed = append(failed, cand.Path)
			continue
		}
		for _, p := range failed {
			sel.Report(p, Failure)
		}
		return conn, cand, d.host.clock.Since(start), nil
	}
	for _, p := range failed {
		sel.Report(p, Failure)
	}
	return nil, Candidate{}, 0, lastErr
}

// dialRaced dials every candidate concurrently, each racer's start
// staggered by its rank, and keeps the first completed handshake. The
// remaining racers are canceled — squic aborts their handshakes promptly —
// and their connections closed, so no goroutine or socket outlives the
// call. Outcome classification: the winner reports Success (with handshake
// latency) from Dial's pooling tail; a racer that failed on its own merit
// while the race was still undecided reports Failure; a racer canceled by
// the win (or by the caller) reports nothing.
func (d *Dialer) dialRaced(ctx context.Context, remote addr.UDPAddr, cands []Candidate, serverName string, sel Selector) (*squic.Conn, Candidate, time.Duration, error) {
	width, stagger := len(cands), d.opts.RaceStagger
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type raceResult struct {
		cand    Candidate
		conn    *squic.Conn
		latency time.Duration
		err     error
	}
	clock := d.host.clock
	results := make(chan raceResult, width)
	for i, cand := range cands {
		go func(i int, cand Candidate) {
			if stagger > 0 && i > 0 {
				select {
				case <-clock.After(time.Duration(i) * stagger):
				case <-rctx.Done():
					results <- raceResult{cand: cand, err: rctx.Err()}
					return
				}
			}
			start := clock.Now()
			conn, err := d.dialPath(rctx, remote, cand, serverName)
			results <- raceResult{cand: cand, conn: conn, latency: clock.Since(start), err: err}
		}(i, cand)
	}
	// Collect every racer: cancellation aborts handshakes promptly, so
	// draining the losers costs scheduling, not network time, and
	// guarantees the call leaves nothing behind.
	var winner raceResult
	var lastErr error
	var failed []*segment.Path
	for n := 0; n < width; n++ {
		r := <-results
		switch {
		case r.err == nil && winner.conn == nil:
			winner = r
			cancel()
		case r.err == nil:
			// A second handshake completed before the cancellation landed.
			r.conn.Close()
		case abandoned(rctx, r.err):
			// Canceled — by the win or by the caller. Not a health signal.
		default:
			failed = append(failed, r.cand.Path)
			lastErr = r.err
		}
	}
	if ctx.Err() != nil {
		// The caller abandoned the whole race: discard its observations
		// (and any stray winner — the caller will never use it).
		if winner.conn != nil {
			winner.conn.Close()
		}
		return nil, Candidate{}, 0, ctx.Err()
	}
	for _, p := range failed {
		sel.Report(p, Failure)
	}
	if winner.conn != nil {
		return winner.conn, winner.cand, winner.latency, nil
	}
	if lastErr == nil {
		lastErr = context.Canceled
	}
	return nil, Candidate{}, 0, lastErr
}

// dialPath opens a socket and dials one candidate, honoring the context
// deadline: the handshake timeout is TIGHTENED to the time remaining (it
// never extends past the configured or default squic timeout), and the
// socket never outlives a failed dial. Deadlines are interpreted on the
// host's clock — create them from that clock (virtual in simulation).
func (d *Dialer) dialPath(ctx context.Context, remote addr.UDPAddr, cand Candidate, serverName string) (*squic.Conn, error) {
	timeout := d.opts.Timeout
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if deadline, ok := ctx.Deadline(); ok {
		remaining := deadline.Sub(d.host.clock.Now())
		if remaining <= 0 {
			return nil, context.DeadlineExceeded
		}
		effective := timeout
		if effective == 0 {
			effective = squic.DefaultHandshakeTimeout
		}
		if remaining < effective {
			timeout = remaining
		}
	}
	sock, err := d.host.stack.Listen(0)
	if err != nil {
		return nil, fmt.Errorf("pan: allocating socket: %w", err)
	}
	conn, err := squic.DialContext(ctx, sock, remote, cand.Path, serverName, &squic.Config{
		Clock:            d.host.clock,
		Pool:             d.host.pool,
		HandshakeTimeout: timeout,
	})
	if err != nil {
		// squic.Dial closes the socket it owns on failure; Close is
		// idempotent, so this also covers any path where it did not.
		sock.Close()
		return nil, err
	}
	return conn, nil
}
