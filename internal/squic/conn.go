package squic

import (
	"cmp"
	"context"
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
)

// PacketConn is the datagram substrate a Conn runs on. snet.Conn implements
// it; tests may supply in-memory fakes. WriteTo must not keep payload after
// it returns: a Conn seals every packet into one reused send buffer.
// SetHandler installs the receiver of every incoming datagram, called
// synchronously in the delivery context under snet.Conn.SetHandler's
// contract; it is the only way a Conn or Listener receives.
type PacketConn interface {
	WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error
	SetHandler(h func(snet.Datagram) bool)
	LocalAddr() addr.UDPAddr
	Close() error
}

// Config parameterizes connections. The zero value is usable after
// withDefaults; Clock is required.
type Config struct {
	// Clock drives all timers (virtual in experiments).
	Clock netsim.Clock
	// Pool is the client's trust anchor for server identities.
	Pool *CertPool
	// Identity is the server's identity (server side only).
	Identity *Identity
	// HandshakeTimeout aborts Dial if the handshake does not complete.
	HandshakeTimeout time.Duration
	// WriteBuffer bounds per-stream bytes buffered ahead of packetization.
	WriteBuffer int
	// InitialCwnd is the initial congestion window in bytes.
	InitialCwnd int
}

// DefaultHandshakeTimeout applies when Config.HandshakeTimeout is zero.
const DefaultHandshakeTimeout = 10 * time.Second

const (
	// streamWindow is the per-stream flow-control window in bytes.
	streamWindow uint64 = 1 << 20
	// maxPacketSize caps datagram payloads when the path MTU is unknown.
	maxPacketSize = 1200
)

func (cfg *Config) withDefaults() *Config {
	out := *cfg
	if out.Clock == nil {
		out.Clock = netsim.RealClock{}
	}
	if out.HandshakeTimeout == 0 {
		out.HandshakeTimeout = DefaultHandshakeTimeout
	}
	if out.WriteBuffer == 0 {
		out.WriteBuffer = 1 << 20
	}
	if out.InitialCwnd == 0 {
		out.InitialCwnd = 256 << 10
	}
	return &out
}

// Connection-level errors.
var (
	ErrConnClosed       = errors.New("squic: connection closed")
	ErrHandshakeTimeout = errors.New("squic: handshake timeout")
)

// sentPacket tracks an in-flight ack-eliciting packet. Its retransmittable
// frames are frame and then more: the first is held inline, so the record of
// the common packet (one stream frame, or one control frame) allocates
// nothing, and only a packet with several retransmittable frames has more.
// sentAt is the send time as an offset from the connection's epoch, which
// keeps the record at 96 bytes.
type sentPacket struct {
	pn     uint64
	frame  frame
	more   []frame
	size   int
	sentAt time.Duration
}

// requeue appends the packet's retransmittable frames to q, in the order
// they were sent.
func (sp *sentPacket) requeue(q []frame) []frame {
	return append(append(q, sp.frame), sp.more...)
}

// Conn is one squic connection.
type Conn struct {
	cfg       *Config
	clock     netsim.Clock
	epoch     time.Time // the origin of sentPacket.sentAt
	pconn     PacketConn
	ownsPconn bool
	isClient  bool
	connID    uint64
	// serverName is the name the client requested (SNI equivalent).
	serverName string
	// onClose detaches server conns from their listener.
	onClose func()
	// closeHooks are subscriber close notifications (OnClose), run after
	// teardown outside the connection lock. Telemetry planes use them to
	// untrack a remote when its serving connection dies.
	closeHooks []func()

	mu     sync.Mutex
	hsCond waitCond // Dial waiting for handshake
	acCond waitCond // AcceptStream
	// Stream readers and writers park on their stream's own conditions
	// (Stream.readable, Stream.writable).
	// wakes counts the broadcasts that found a waiter (broadcastLocked). A
	// delivery compares it before and after to report whether it made a
	// goroutine runnable (see handleDatagram).
	wakes uint64

	remote addr.UDPAddr
	path   *segment.Path
	// mirrorPath is the freshest reverse path observed from the peer's own
	// traffic (server side): the reversed path of the last packet received.
	// c.path follows it packet by packet — the seed's mirroring behavior —
	// unless a steered reply path has been installed (SetReplyPath), in
	// which case mirroring keeps updating mirrorPath only.
	mirrorPath  *segment.Path
	steered     bool
	keys        *sessionKeys
	established bool
	confirmed   bool // server: saw a valid 1-RTT from the client
	closed      bool
	closeErr    error

	// streams holds the live streams in id order: packetization walks them
	// in that order, and a frame finds its stream by binary search.
	streams      []*Stream
	nextStreamID uint64
	acceptQ      []*Stream
	// retiredPeer tracks finished peer-initiated streams (stored as id>>1
	// so consecutive same-parity ids coalesce into ranges), fencing late
	// retransmissions from resurrecting retired streams into acceptQ. Its
	// size is bounded by the gaps between retired streams — i.e. by the
	// number of concurrently-open peer streams — even when an idle stream
	// stays open indefinitely on a pooled connection.
	retiredPeer rangeSet

	// Client handshake state.
	ephPriv    *ecdh.PrivateKey
	initialBuf []byte
	hsRetrans  netsim.Timer
	hsTimeout  netsim.Timer

	// Server handshake state.
	helloBuf []byte

	// Send/reliability state. Frames are values (see frame): lost and
	// PTO'd packets move theirs back onto queued, and an ack credits the
	// packet's stream bytes to the send blocks that hold them
	// (Stream.ackedLocked) and drops the record.
	nextPN uint64
	queued []frame
	// sent is the in-flight history in ascending packet-number order:
	// sendPacketLocked appends and packet numbers only grow, so an ack is a
	// merge walk over the prefix it can reach (see handleAckLocked). An ack
	// packs the prefix's survivors against the untouched suffix and advances
	// the slice head past the freed slots. An emptied history keeps its
	// array, cleared, for the next burst; a PTO and teardown drop it.
	sent []sentPacket
	// sentArr is the whole array under sent, whose head moves up as the
	// front is acked: before an append would reallocate, the history moves
	// down into the freed front (appendSentLocked).
	sentArr      []sentPacket
	inFlight     int
	cwnd         int
	largestAcked int64
	recoveryEnd  uint64 // loss events before this pn don't re-halve cwnd
	srtt, rttvar time.Duration
	rttSamples   int
	// rttObs/rttBatchObs observe accepted RTT samples — the passive-telemetry
	// tap. Samples are coalesced in the pendingRTT inline buffer under mu
	// (overflow overwrites the newest slot: an ack burst's samples are a
	// redundant signal, and the tap must never allocate per packet) and
	// flushed to the observer strictly outside the lock: observers reach into
	// monitor/selector/dialer locks, and those components take c.mu (Err,
	// Path) under their own locks — an in-lock callback would invert the
	// order and deadlock. When both observers are set the batch observer
	// wins; per-sample delivery is the compatibility shape.
	rttObs      func(time.Duration)
	rttBatchObs func([]time.Duration)
	pendingRTT  [8]time.Duration
	pendingRTTN int
	// rttScratch is the flush-side buffer, claimed under mu and returned
	// after delivery, so the steady-state flush path allocates nothing.
	rttScratch []time.Duration
	ptoTimer   netsim.Timer
	// ptoDeadline is the logical PTO expiry. Acks push it forward WITHOUT
	// re-creating the timer (per-ack timer churn dominated the pooled-conn
	// hot path); a timer that fires before the deadline simply re-arms for
	// the remainder.
	ptoDeadline time.Time
	ptoBackoff  uint
	// firePTO is c.onPTO, bound once: a method value passed to AfterFunc
	// would allocate on every arm.
	firePTO func()
	// Per-packet scratch, all guarded by mu: txFrames collects one packet's
	// frames, ackOut is its ack frame's encoded ranges (never retained: acks
	// are not retransmittable), sendBuf holds the packet while it is encoded
	// and sealed in place, nonce is refilled for every seal and open, and rx
	// is the frame decode target of the receive path.
	txFrames []frame
	ackOut   []byte
	sendBuf  []byte
	nonce    nonceBuf
	rx       frameScratch

	// Receive state.
	recvd      rangeSet
	ackPending bool

	// blocksOut counts the send blocks, every one pooled, the connection's
	// streams took and have not released. onBlockRelease, when set, sees
	// each send block as it is released, the whole array: tests poison it
	// there, so a frame still aliasing it would resend garbage.
	blocksOut      int
	onBlockRelease func(b []byte)
}

func newConn(pconn PacketConn, cfg *Config, isClient bool) *Conn {
	c := &Conn{
		cfg:          cfg,
		clock:        cfg.Clock,
		epoch:        cfg.Clock.Now(),
		pconn:        pconn,
		isClient:     isClient,
		cwnd:         cfg.InitialCwnd,
		largestAcked: -1,
	}
	if isClient {
		c.nextStreamID = 0
	} else {
		c.nextStreamID = 1
	}
	c.firePTO = c.onPTO
	c.hsCond.cond.L = &c.mu
	c.acCond.cond.L = &c.mu
	return c
}

// waitCond is a condition on the connection lock that counts the goroutines
// parked on it, so that a broadcast knows whether it made one runnable. Each
// condition has one kind of waiter: a Stream owns one for its reader and one
// for its writer, and the connection one for Dial's handshake and one for
// AcceptStream. A broadcast reaches only the goroutines parked on that
// condition, so a packet wakes the stream it is for and nobody else.
type waitCond struct {
	cond    sync.Cond
	waiters int // parked since the last broadcast
}

// waitLocked parks the caller on w until the next broadcast of w. The caller
// holds c.mu.
func (c *Conn) waitLocked(w *waitCond) {
	w.waiters++
	w.cond.Wait()
}

// broadcastLocked wakes every goroutine parked on w and counts the wake in
// c.wakes if there was one. A woken goroutine that parks again counts as a
// new waiter. The caller holds c.mu.
func (c *Conn) broadcastLocked(w *waitCond) {
	if w.waiters == 0 {
		return
	}
	w.waiters = 0
	w.cond.Broadcast()
	c.wakes++
}

// streamIndexLocked returns the index of the live stream with the given id,
// or where one would be inserted.
func (c *Conn) streamIndexLocked(id uint64) (int, bool) {
	return slices.BinarySearchFunc(c.streams, id, func(s *Stream, id uint64) int { return cmp.Compare(s.id, id) })
}

// streamLocked returns the live stream with the given id, or nil.
func (c *Conn) streamLocked(id uint64) *Stream {
	if i, ok := c.streamIndexLocked(id); ok {
		return c.streams[i]
	}
	return nil
}

// addStreamLocked makes s live, keeping c.streams in id order. Ids mostly
// arrive in order, so the insert is mostly an append.
func (c *Conn) addStreamLocked(s *Stream) {
	i, _ := c.streamIndexLocked(s.id)
	c.streams = slices.Insert(c.streams, i, s)
}

// LocalAddr returns the local endpoint.
func (c *Conn) LocalAddr() net.Addr { return c.pconn.LocalAddr() }

// RemoteAddr returns the remote endpoint.
func (c *Conn) RemoteAddr() net.Addr {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.remote
}

// Path returns the forwarding path currently in use.
func (c *Conn) Path() *segment.Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.path
}

// MirrorPath returns the freshest reverse path observed from the peer's own
// traffic — on a server connection, the reversed path of the last packet the
// client sent. It keeps tracking the client even while a steered reply path
// is installed; for client connections it equals Path.
func (c *Conn) MirrorPath() *segment.Path {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.mirrorPath != nil {
		return c.mirrorPath
	}
	return c.path
}

// SetReplyPath steers the connection's outgoing packets over path instead of
// mirroring the peer's last-used path: a server steers its replies with it,
// and a striped client holds each connection to its own path. A nil path
// reverts to mirroring (the safety valve): the send path snaps back to the
// freshest mirrored reply path and follows the peer again. The path must
// lead to the connection's remote; the caller owns that invariant.
func (c *Conn) SetReplyPath(path *segment.Path) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	if path == nil {
		c.steered = false
		if c.mirrorPath != nil {
			c.path = c.mirrorPath
		}
		return
	}
	c.steered = true
	c.path = path
}

// OnClose registers f to run once the connection has torn down, after the
// terminal error is set, outside the connection lock. Hooks run in
// registration order; on an already-closed connection f runs immediately.
func (c *Conn) OnClose(f func()) {
	c.mu.Lock()
	if !c.closed {
		c.closeHooks = append(c.closeHooks, f)
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	f()
}

// Err returns the connection's terminal error: nil while the connection is
// alive, the teardown cause once it has closed. Connection pools use it to
// detect dead entries without consuming a stream.
func (c *Conn) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.closed {
		return nil
	}
	return c.closeErrLocked()
}

// OpenStream opens a locally-initiated bidirectional stream.
func (c *Conn) OpenStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, c.closeErrLocked()
	}
	id := c.nextStreamID
	c.nextStreamID += 2
	s := newStream(c, id)
	c.addStreamLocked(s)
	return s, nil
}

// AcceptStream blocks until the peer opens a stream or the connection
// closes.
func (c *Conn) AcceptStream() (*Stream, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.acceptQ) == 0 && !c.closed {
		c.waitLocked(&c.acCond)
	}
	if len(c.acceptQ) > 0 {
		s := c.acceptQ[0]
		c.acceptQ = c.acceptQ[1:]
		return s, nil
	}
	return nil, c.closeErrLocked()
}

func (c *Conn) closeErrLocked() error {
	if c.closeErr != nil {
		return c.closeErr
	}
	return ErrConnClosed
}

// Close tears the connection down, notifying the peer.
func (c *Conn) Close() error {
	c.teardown(0, "closed by application", ErrConnClosed, true)
	return nil
}

// teardown closes the connection. If notify is set and keys exist, a CLOSE
// frame is sent best-effort.
func (c *Conn) teardown(code uint64, reason string, cause error, notify bool) {
	c.teardownIf(nil, code, reason, cause, notify)
}

// teardownIf is teardown gated on a guard evaluated under the connection
// lock, atomically with the closed check. Timeout and cancellation watchers
// use it so their decision ("still not established/confirmed?") cannot race
// a handshake completing between check and act — a plain check-then-teardown
// could kill a connection the dialer just returned to its caller.
func (c *Conn) teardownIf(guard func() bool, code uint64, reason string, cause error, notify bool) {
	c.mu.Lock()
	if c.closed || (guard != nil && !guard()) {
		c.mu.Unlock()
		return
	}
	c.closed = true
	c.closeErr = cause
	if notify && c.keys != nil {
		c.sendPacketLocked([]frame{{kind: ftClose, val: code, data: []byte(reason)}}, false)
	}
	if c.ptoTimer != nil {
		c.ptoTimer.Stop()
	}
	if c.hsRetrans != nil {
		c.hsRetrans.Stop()
	}
	if c.hsTimeout != nil {
		c.hsTimeout.Stop()
	}
	// Closed conns can stay reachable (pools, steering state, callers);
	// the retransmission state must not keep their stream data alive, nor
	// the packet scratch its buffers. Nothing will resend or ack the
	// streams' bytes, so every send block goes back. A retired stream is
	// done, so neither its Read nor its Write parks: every parked reader
	// and writer is on a stream failLocked wakes here.
	for _, s := range c.streams {
		s.failLocked(cause)
		s.releaseBlocksLocked()
	}
	c.sent, c.sentArr, c.queued, c.inFlight = nil, nil, nil, 0
	c.txFrames, c.ackOut, c.sendBuf, c.rx = nil, nil, nil, frameScratch{}
	c.broadcastLocked(&c.hsCond)
	c.broadcastLocked(&c.acCond)
	onClose := c.onClose
	hooks := c.closeHooks
	c.closeHooks = nil
	c.mu.Unlock()
	if c.ownsPconn {
		c.pconn.Close()
	}
	if onClose != nil {
		onClose()
	}
	for _, f := range hooks {
		f()
	}
}

// startReceiving installs the connection as its PacketConn's handler.
func (c *Conn) startReceiving() { c.pconn.SetHandler(c.handleDatagram) }

// handleDatagram processes one received datagram (client path; the server
// listener routes to conn.handleOneRTT/handleInitial directly). The datagram
// arrives by value (see snet.Conn.SetHandler); what it is handed to keeps
// fields, never the pointer, so it stays on the delivery's stack.
//
// It reports woke, snet's handler verdict: true when the datagram may have
// made a goroutine runnable. That is a handshake packet (Dial waits for
// it), a teardown, or a broadcast of a condition with a waiter: a parked
// reader whose stream's readable bytes or final size changed, a parked
// writer whose pending bytes the packetizer took (after an ack opened the
// congestion window or a window update raised the stream's limit), an
// AcceptStream given a stream. An ack that only retires packets nobody
// waits for, a duplicate, an out-of-order chunk that fills no gap, or data
// for a stream nobody reads reports false. The RTT observers it runs wake
// nobody (see OnRTTSampleBatch).
func (c *Conn) handleDatagram(dg snet.Datagram) (woke bool) {
	hdr, body, err := parseHeader(dg.Payload)
	if err != nil || hdr.connID != c.connID {
		return false
	}
	switch hdr.ptype {
	case ptHello:
		c.handleHello(body)
		return true
	case ptOneRTT:
		return c.handleOneRTT(hdr, &dg)
	}
	return false
}

// --- client handshake ---

// dial starts the client handshake; the caller must hold no locks. A
// cancellation of ctx before the handshake completes tears the connection
// down with ctx's error as the cause; after completion it is ignored.
func (c *Conn) dial(ctx context.Context, remote addr.UDPAddr, path *segment.Path, serverName string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	eph, err := newEphemeral()
	if err != nil {
		return err
	}
	var id [8]byte
	if _, err := rand.Read(id[:]); err != nil {
		return err
	}
	c.mu.Lock()
	c.ephPriv = eph
	c.connID = binary.BigEndian.Uint64(id[:])
	c.remote = remote
	c.path = path
	c.serverName = serverName
	pkt := header{ptype: ptInitial, connID: c.connID, pktNum: 0}.append(nil)
	pkt = append(pkt, initialPayload(eph.PublicKey().Bytes(), serverName)...)
	c.initialBuf = pkt
	c.mu.Unlock()

	if done := ctx.Done(); done != nil {
		// Watch for caller-side cancellation for the duration of the
		// handshake. Like the handshake timeout, cancellation only kills a
		// connection that has not established yet: a cancel racing the
		// final handshake packet must not tear down a usable connection the
		// caller is about to receive.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-done:
				c.teardownIf(func() bool { return !c.established },
					2, "dial canceled", ctx.Err(), false)
			case <-stop:
			}
		}()
	}

	c.startReceiving()
	c.sendRaw(pkt)
	c.armHandshakeRetransmit(200 * time.Millisecond)
	c.mu.Lock()
	c.hsTimeout = c.clock.AfterFunc(c.cfg.HandshakeTimeout, func() {
		c.teardownIf(func() bool { return !c.established },
			2, "handshake timeout", ErrHandshakeTimeout, false)
	})
	for !c.established && !c.closed {
		c.waitLocked(&c.hsCond)
	}
	closed := c.closed
	err = c.closeErrLocked()
	c.mu.Unlock()
	if closed {
		return err
	}
	return nil
}

func (c *Conn) armHandshakeRetransmit(interval time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.established || c.closed {
		return
	}
	c.hsRetrans = c.clock.AfterFunc(interval, func() {
		c.mu.Lock()
		done := c.established || c.closed
		buf := c.initialBuf
		c.mu.Unlock()
		if done {
			return
		}
		c.sendRaw(buf)
		c.armHandshakeRetransmit(interval * 2)
	})
}

// handleHello completes the client handshake.
func (c *Conn) handleHello(body []byte) {
	serverPub, sig, err := parseHelloPayload(body)
	if err != nil {
		return
	}
	c.mu.Lock()
	if c.established || c.closed || c.ephPriv == nil {
		c.mu.Unlock()
		return
	}
	transcript := handshakeTranscript(c.connID, c.ephPriv.PublicKey().Bytes(), serverPub, c.serverName)
	pool := c.cfg.Pool
	c.mu.Unlock()

	if pool == nil {
		c.teardown(3, "no trust pool", fmt.Errorf("squic: dialing without a certificate pool"), false)
		return
	}
	if err := pool.verify(c.serverName, transcript, sig); err != nil {
		c.teardown(3, "bad handshake signature", err, false)
		return
	}
	pubKey, err := ecdh.X25519().NewPublicKey(serverPub)
	if err != nil {
		return
	}
	c.mu.Lock()
	shared, err := c.ephPriv.ECDH(pubKey)
	if err != nil {
		c.mu.Unlock()
		return
	}
	keys, err := deriveKeys(shared, transcript)
	if err != nil {
		c.mu.Unlock()
		return
	}
	c.keys = keys
	c.established = true
	if c.hsRetrans != nil {
		c.hsRetrans.Stop()
		c.hsRetrans = nil
	}
	if c.hsTimeout != nil {
		c.hsTimeout.Stop()
		c.hsTimeout = nil
	}
	c.broadcastLocked(&c.hsCond)
	// Confirm to the server with an immediate (possibly ACK-only) packet.
	c.queued = append(c.queued, frame{kind: ftPing})
	c.packetizeLocked()
	c.mu.Unlock()
}

// --- server handshake ---

// acceptInitial builds (or refreshes) a server conn from an Initial packet.
// It returns (conn, isNew).
func serverHandleInitial(pconn PacketConn, cfg *Config, hdr header, body []byte, dg *snet.Datagram, existing *Conn) (*Conn, bool) {
	if existing != nil {
		// Duplicate Initial: the Hello was lost; resend it.
		existing.mu.Lock()
		hello := existing.helloBuf
		path := existing.path
		remote := existing.remote
		existing.mu.Unlock()
		if hello != nil {
			pconn.WriteTo(hello, remote, path)
		}
		return existing, false
	}
	clientPub, serverName, err := parseInitialPayload(body)
	if err != nil || cfg.Identity == nil {
		return nil, false
	}
	eph, err := newEphemeral()
	if err != nil {
		return nil, false
	}
	pubKey, err := ecdh.X25519().NewPublicKey(clientPub)
	if err != nil {
		return nil, false
	}
	shared, err := eph.ECDH(pubKey)
	if err != nil {
		return nil, false
	}
	transcript := handshakeTranscript(hdr.connID, clientPub, eph.PublicKey().Bytes(), serverName)
	keys, err := deriveKeys(shared, transcript)
	if err != nil {
		return nil, false
	}
	sig := cfg.Identity.sign(transcript)

	c := newConn(pconn, cfg, false)
	c.connID = hdr.connID
	c.remote = dg.Src
	c.path = dg.ReplyPath
	c.keys = keys
	c.established = true
	c.serverName = serverName
	hello := header{ptype: ptHello, connID: hdr.connID, pktNum: 0}.append(nil)
	hello = append(hello, helloPayload(eph.PublicKey().Bytes(), sig)...)
	c.helloBuf = hello
	c.sendRaw(hello)
	return c, true
}

// armConfirmTimeout tears a server connection down if the client never
// confirms the handshake with a valid 1-RTT packet. This is the fate of an
// abandoned Initial: a raced dial's canceled loser (or a crashed client)
// reaches us, we answer with a Hello, and nothing ever comes back. Without
// the timeout every such handshake would park a zombie connection in the
// listener — and a goroutine in whatever accept loop serves it — forever.
func (c *Conn) armConfirmTimeout() {
	c.clock.AfterFunc(c.cfg.HandshakeTimeout, func() {
		c.teardownIf(func() bool { return !c.confirmed },
			2, "handshake never confirmed", ErrHandshakeTimeout, false)
	})
}

// --- packet receive path ---

// handleOneRTT decrypts and processes an application packet (dg.Payload,
// header included, with hdr parsed from it), then flushes any RTT samples
// the embedded acks produced to the observer. It reports whether the packet
// made a goroutine runnable (see handleDatagram).
func (c *Conn) handleOneRTT(hdr header, dg *snet.Datagram) (woke bool) {
	woke = c.processOneRTT(hdr, dg)
	c.flushRTTSamples()
	return woke
}

// processOneRTT is handleOneRTT without the observer flush.
func (c *Conn) processOneRTT(hdr header, dg *snet.Datagram) (woke bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.keys == nil || c.closed {
		return false
	}
	wakes := c.wakes
	opener := c.keys.serverSeal
	if !c.isClient {
		opener = c.keys.clientSeal
	}
	// Open in place: the plaintext overwrites the ciphertext in the
	// datagram's buffer (usually the leased wire buffer, recycled when the
	// handler returns), and the received header bytes are the AAD. Frames
	// decoded from it alias that buffer, so nothing below may keep them.
	pkt := dg.Payload
	body := pkt[headerLen:]
	plain, err := opener.Open(body[:0], c.nonce.set(hdr.pktNum), body, pkt[:headerLen])
	if err != nil {
		return false
	}
	frames, err := parseFrames(plain, &c.rx)
	if err != nil {
		c.mu.Unlock()
		c.teardown(4, "malformed frames", err, true)
		c.mu.Lock()
		return true
	}
	if c.recvd.contains(hdr.pktNum) {
		return false // duplicate
	}
	c.recvd.add(hdr.pktNum)
	if !c.isClient {
		// Track the freshest return path and confirm the handshake. With a
		// steered reply path installed, the mirror keeps following the
		// client (so reverting to mirroring is always possible) but no
		// longer drives the send path.
		// A path equal to the current mirror keeps the installed pointer,
		// so its memoized fingerprint and wire template stay warm instead
		// of being recomputed for a fresh copy on every packet.
		if rp := dg.ReplyPath; rp != nil && !samePath(c.mirrorPath, rp) {
			c.mirrorPath = rp
			if !c.steered {
				c.path = rp
			}
		}
		c.remote = dg.Src
		if !c.confirmed {
			c.confirmed = true
			c.queued = append(c.queued, frame{kind: ftHandshakeDone})
		}
	}
	for _, f := range frames {
		if c.closed {
			return true // torn down by an earlier frame
		}
		if f.retransmittable() {
			c.ackPending = true
		}
		switch f.kind {
		case ftStream:
			c.handleStreamFrameLocked(f)
		case ftAck:
			c.handleAckLocked(c.rx.acks[f.id:f.val])
		case ftMaxStreamData:
			// A raised limit gives Write no buffer room by itself: the
			// packetizeLocked below wakes the writer if it takes bytes.
			if s := c.streamLocked(f.id); s != nil && f.val > s.maxSend {
				s.maxSend = f.val
			}
		case ftClose:
			cause := fmt.Errorf("%w: peer closed (code %d: %s)", ErrConnClosed, f.val, f.data)
			c.mu.Unlock()
			c.teardown(f.val, "", cause, false)
			c.mu.Lock()
			return true
		case ftPing, ftHandshakeDone:
			// ACK-eliciting only.
		}
	}
	c.packetizeLocked()
	return c.closed || c.wakes != wakes
}

func (c *Conn) handleStreamFrameLocked(f frame) {
	s := c.streamLocked(f.id)
	if s == nil {
		peerInitiated := (f.id%2 == 0) != c.isClient
		if !peerInitiated {
			return // stale frame for a stream we opened and retired
		}
		if c.retiredPeer.contains(f.id >> 1) {
			return // late retransmission for a retired peer stream
		}
		s = newStream(c, f.id)
		c.addStreamLocked(s)
		c.acceptQ = append(c.acceptQ, s)
		c.broadcastLocked(&c.acCond)
	}
	if err := s.handleFrameLocked(f); err != nil {
		c.mu.Unlock()
		c.teardown(5, "flow control violation", err, true)
		c.mu.Lock()
		return
	}
	c.retireStreamLocked(s)
}

// retireStreamLocked drops a fully-finished stream from the live streams,
// so a long-lived (pooled) connection does not accumulate per-stream state
// and packetization stays proportional to the ACTIVE stream count. Reads of
// already-buffered data keep working: they never look the stream up. It
// reports whether s was retired.
func (c *Conn) retireStreamLocked(s *Stream) (retired bool) {
	if !s.doneLocked() {
		return false
	}
	if i, ok := c.streamIndexLocked(s.id); ok {
		c.streams = slices.Delete(c.streams, i, i+1)
	}
	// Stale frames for local ids are already ignored; a retired peer id is
	// fenced off from acceptQ.
	if peerInitiated := (s.id%2 == 0) != c.isClient; peerInitiated {
		c.retiredPeer.add(s.id >> 1)
	}
	return true
}

// --- reliability ---

// handleAckLocked applies an ack frame's ranges to the in-flight history.
// The peer acks its full receive history, so the ranges span the
// connection's lifetime; only the history prefix up to the frame's highest
// packet number can change, and a merge walk of that prefix against the
// (ascending, disjoint) ranges costs O(newly acked + holes + ranges),
// independent of how much is still in flight above it.
func (c *Conn) handleAckLocked(ranges []ackRange) {
	if len(ranges) == 0 || len(c.sent) == 0 {
		return
	}
	now := c.sinceEpoch()
	top := ranges[len(ranges)-1].hi
	if c.largestAcked > int64(top) {
		top = uint64(c.largestAcked)
	}
	// Pass 1, ascending: ack covered entries, sliding the rest to the front.
	h := c.sent
	end, kept, ri := 0, 0, 0
	for ; end < len(h) && h[end].pn <= top; end++ {
		sp := &h[end]
		for ri < len(ranges) && ranges[ri].hi < sp.pn {
			ri++
		}
		if ri == len(ranges) || sp.pn < ranges[ri].lo {
			h[kept] = *sp
			kept++
			continue
		}
		c.inFlight -= sp.size
		c.ackFrameLocked(sp.frame)
		for _, f := range sp.more {
			c.ackFrameLocked(f)
		}
		if int64(sp.pn) > c.largestAcked {
			c.largestAcked = int64(sp.pn)
			c.sampleRTTLocked(now - sp.sentAt)
		}
		// Slow-start growth, capped.
		if c.cwnd < 4<<20 {
			c.cwnd += sp.size
		}
	}
	if kept == end {
		return // nothing newly acked
	}
	c.ptoBackoff = 0
	// Pass 2, ascending: packet-threshold loss detection over the survivors.
	// Nothing above the prefix can be lost: largestAcked <= top.
	live := 0
	for i := 0; i < kept; i++ {
		sp := &h[i]
		if sp.pn+3 > uint64(c.largestAcked) {
			h[live] = *sp
			live++
			continue
		}
		c.inFlight -= sp.size
		c.queued = sp.requeue(c.queued)
		if sp.pn >= c.recoveryEnd {
			c.cwnd = maxInt(c.cwnd/2, 2*maxPacketSize)
			c.recoveryEnd = c.nextPN
		}
	}
	if live == 0 && end == len(h) {
		// Idle: keep the array for the next burst, cleared so it pins no
		// frames (the slots before the head were cleared as it advanced).
		clear(h)
		c.sent = c.sentArr[:0]
	} else {
		// Right-align the survivors against the untouched suffix and advance
		// the head past the vacated slots, cleared so they pin no frames.
		start := end - live
		copy(h[start:end], h[:live])
		clear(h[:start])
		c.sent = h[start:]
	}
	c.armPTOLocked()
	c.packetizeLocked()
}

// ackFrameLocked credits an acked stream frame's bytes to its stream's send
// blocks, and retires the stream if that was all it waited for. A stream
// with bytes in flight is still in c.streams: it retires only once its
// blocks are released.
func (c *Conn) ackFrameLocked(f frame) {
	if f.kind != ftStream || len(f.data) == 0 {
		return
	}
	if s := c.streamLocked(f.id); s != nil {
		s.ackedLocked(f.val, len(f.data))
		c.retireStreamLocked(s)
	}
}

// MinRTTSample floors every ingested RTT sample. A LAN-fast (or
// zero-latency virtual) path can deliver acks within the clock's
// granularity; without the floor the integer EWMA divisions truncate srtt
// toward 0 and RTTStats/OnRTTSample report a trafficked connection with "no"
// round-trip estimate.
const MinRTTSample = time.Microsecond

func (c *Conn) sampleRTTLocked(rtt time.Duration) {
	if rtt < MinRTTSample {
		rtt = MinRTTSample
	}
	if c.rttSamples == 0 {
		c.srtt = rtt
		c.rttvar = rtt / 2
	} else {
		d := c.srtt - rtt
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + rtt) / 8
	}
	c.rttSamples++
	if c.rttObs != nil || c.rttBatchObs != nil {
		if c.pendingRTTN < len(c.pendingRTT) {
			c.pendingRTT[c.pendingRTTN] = rtt
			c.pendingRTTN++
		} else {
			// Coalesce: keep the buffer's older samples, overwrite the
			// newest slot — the observer still sees the freshest estimate
			// and the tap stays allocation-free under any burst.
			c.pendingRTT[len(c.pendingRTT)-1] = rtt
		}
	}
}

// RTTStats exports the connection's live round-trip estimator: the smoothed
// RTT, its mean deviation, and how many ack samples produced them. Zero
// samples means no estimate yet. Telemetry planes read this from pooled
// connections as a zero-cost alternative to active probing.
func (c *Conn) RTTStats() (srtt, rttvar time.Duration, samples int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.srtt, c.rttvar, c.rttSamples
}

// OnRTTSample installs obs as the connection's RTT observer: it is invoked
// once per accepted ack RTT sample (floored at MinRTTSample), outside the
// connection lock, in packet-processing order. One observer at a time; nil
// uninstalls. The observer must not block, and must not make a goroutine
// runnable (no channel send a goroutine may wait on, no condition signal):
// it runs on the packet delivery path, and a delivery reports no wake for it
// (see handleDatagram). Taking locks is fine.
func (c *Conn) OnRTTSample(obs func(rtt time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttObs = obs
}

// OnRTTSampleBatch installs obs as the connection's BATCHED RTT observer:
// one call per processed packet delivers every sample its acks produced
// (coalesced to the newest few under extreme bursts), outside the
// connection lock. Takes precedence over OnRTTSample when both are set.
// The slice is reused between flushes — the observer must not retain it.
// One observer at a time; nil uninstalls. Like OnRTTSample's, the observer
// must neither block nor wake a goroutine.
func (c *Conn) OnRTTSampleBatch(obs func(rtts []time.Duration)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.rttBatchObs = obs
}

// flushRTTSamples delivers buffered RTT samples to the observer outside the
// connection lock (see rttObs). The scratch buffer is claimed under the
// lock and returned after delivery; a concurrent flush (several packets in
// flight through delivery) simply allocates its own.
func (c *Conn) flushRTTSamples() {
	c.mu.Lock()
	n := c.pendingRTTN
	obs, batchObs := c.rttObs, c.rttBatchObs
	if n == 0 || (obs == nil && batchObs == nil) {
		c.pendingRTTN = 0
		c.mu.Unlock()
		return
	}
	buf := c.rttScratch
	c.rttScratch = nil
	if cap(buf) < n {
		buf = make([]time.Duration, n)
	}
	buf = buf[:n]
	copy(buf, c.pendingRTT[:n])
	c.pendingRTTN = 0
	c.mu.Unlock()
	if batchObs != nil {
		batchObs(buf)
	} else {
		for _, rtt := range buf {
			obs(rtt)
		}
	}
	c.mu.Lock()
	if c.rttScratch == nil {
		c.rttScratch = buf
	}
	c.mu.Unlock()
}

// PTO backoff bounds: the exponential doubles at most maxPTOBackoff times
// and the resulting timeout is clamped at maxPTO. ptoBackoff increments on
// every PTO fire; uncapped, ~60 consecutive fires on a dead connection shift
// the base past the int64 range of time.Duration, and the negative/zero
// timeout re-arms immediately — a hot retransmit spin.
const (
	maxPTOBackoff = 10
	maxPTO        = time.Minute
)

func (c *Conn) ptoLocked() time.Duration {
	base := 500 * time.Millisecond
	if c.srtt > 0 {
		base = c.srtt + 4*c.rttvar + time.Millisecond
	}
	shift := c.ptoBackoff
	if shift > maxPTOBackoff {
		shift = maxPTOBackoff
	}
	pto := base << shift
	if pto <= 0 || pto > maxPTO {
		pto = maxPTO
	}
	return pto
}

func (c *Conn) armPTOLocked() {
	if len(c.sent) == 0 || c.closed {
		if c.ptoTimer != nil {
			c.ptoTimer.Stop()
			c.ptoTimer = nil
		}
		c.ptoDeadline = time.Time{}
		return
	}
	// Push the logical deadline; create a timer only if none is pending. A
	// timer that fires before the (acks-extended) deadline re-arms itself
	// for the remainder in onPTO, so the common ack path never touches the
	// clock's timer heap.
	c.ptoDeadline = c.clock.Now().Add(c.ptoLocked())
	if c.ptoTimer == nil {
		c.ptoTimer = c.clock.AfterFunc(c.ptoLocked(), c.firePTO)
	}
}

// onPTO retransmits everything unacked (probe + recovery in one step).
func (c *Conn) onPTO() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ptoTimer = nil // the timer that fired is spent
	if c.closed || len(c.sent) == 0 {
		return
	}
	if remaining := c.ptoDeadline.Sub(c.clock.Now()); remaining > 0 {
		// Acks moved the deadline since this timer was created: not a
		// timeout, just the lazy re-arm catching up.
		c.ptoTimer = c.clock.AfterFunc(remaining, c.firePTO)
		return
	}
	if c.ptoBackoff < maxPTOBackoff {
		c.ptoBackoff++
	}
	for i := range c.sent {
		c.inFlight -= c.sent[i].size
		c.queued = c.sent[i].requeue(c.queued)
	}
	c.sent, c.sentArr = nil, nil
	c.packetizeLocked()
}

// --- packet send path ---

// queueFrameLocked enqueues a control frame.
func (c *Conn) queueFrameLocked(f frame) { c.queued = append(c.queued, f) }

// scheduleSendLocked flushes pending data; named for symmetry with async
// designs, it packetizes synchronously.
func (c *Conn) scheduleSendLocked() { c.packetizeLocked() }

// maxFramePayloadLocked is the frame budget per packet for the current path.
func (c *Conn) maxFramePayloadLocked() int {
	budget := snet.MaxPayload(c.path) - headerLen - aeadOverhead
	if m := maxPacketSize; budget > m {
		budget = m
	}
	if budget < minFramePayload {
		budget = minFramePayload
	}
	return budget
}

// minFramePayload floors the per-packet frame budget.
const minFramePayload = 256

// packetizeLocked drains acks, control frames, and stream data into as many
// packets as congestion control allows.
func (c *Conn) packetizeLocked() {
	if c.closed || !c.established || c.keys == nil {
		return
	}
	maxPayload := c.maxFramePayloadLocked()
	for {
		frames := c.txFrames[:0]
		size := 0
		ackEliciting := false
		if c.ackPending {
			c.ackOut = appendAckRanges(c.ackOut[:0], c.recvd.ranges())
			af := frame{kind: ftAck, data: c.ackOut}
			frames = append(frames, af)
			size += af.size()
			c.ackPending = false
		}
		for len(c.queued) > 0 {
			f := c.queued[0]
			fs := f.size()
			if size+fs > maxPayload {
				if len(frames) > 0 {
					break
				}
				// A lone over-budget frame is a requeued stream frame sized
				// for a previous path with a bigger MTU budget: split it so
				// the packet fits the path the connection rides NOW.
				if f.kind == ftStream {
					if head, tail, ok := splitStreamFrame(f, maxPayload-size); ok {
						c.queued[0] = tail
						frames = append(frames, head)
						size += head.size()
						ackEliciting = true
						break // the packet is full by construction
					}
				}
				// Non-stream frames are all small; fall through rather than
				// wedge the queue.
			}
			c.queued[0] = frame{} // the popped slot must not pin its data
			c.queued = c.queued[1:]
			frames = append(frames, f)
			size += fs
			if f.retransmittable() {
				ackEliciting = true
			}
		}
		if c.inFlight < c.cwnd {
			const streamOverhead = 32 // type, flags, 3 varints worst case
			for i := 0; i < len(c.streams); {
				s := c.streams[i]
				for s.sendableLocked() && size+streamOverhead < maxPayload && c.inFlight+size < c.cwnd {
					f, ok := s.nextFrameLocked(maxPayload - size - streamOverhead)
					if !ok {
						break
					}
					frames = append(frames, f)
					size += f.size()
					ackEliciting = true
				}
				// The FIN may have just been packetized, completing the
				// stream's send side; a retired stream leaves index i to
				// the next one.
				if !c.retireStreamLocked(s) {
					i++
				}
			}
		}
		if len(frames) == 0 {
			return
		}
		c.sendPacketLocked(frames, ackEliciting)
		clear(frames) // the sent history holds its own copies
		c.txFrames = frames[:0]
	}
}

// sendPacketLocked seals and transmits one OneRTT packet. The header and
// frames are encoded into the connection's send buffer and sealed in place
// (the header is the AAD), and the retransmission record holds the first
// retransmittable frame inline, so a packet allocates nothing unless it
// carries several retransmittable frames.
func (c *Conn) sendPacketLocked(frames []frame, ackEliciting bool) {
	pn := c.nextPN
	c.nextPN++
	if c.sendBuf == nil {
		c.sendBuf = make([]byte, 0, headerLen+maxInt(maxPacketSize, minFramePayload)+aeadOverhead)
	}
	buf := header{ptype: ptOneRTT, connID: c.connID, pktNum: pn}.append(c.sendBuf[:0])
	for _, f := range frames {
		buf = f.append(buf)
	}
	// Room for the tag, so Seal writes in place rather than reallocating.
	buf = slices.Grow(buf, aeadOverhead)
	sealer := c.keys.clientSeal
	if !c.isClient {
		sealer = c.keys.serverSeal
	}
	sealed := sealer.Seal(buf[headerLen:headerLen], c.nonce.set(pn), buf[headerLen:], buf[:headerLen])
	buf = buf[:headerLen+len(sealed)]
	c.sendBuf = buf
	c.pconn.WriteTo(buf, c.remote, c.path)
	if ackEliciting {
		sp := sentPacket{pn: pn, size: len(buf), sentAt: c.sinceEpoch()}
		for _, f := range frames {
			switch {
			case !f.retransmittable():
			case sp.frame.kind == ftPadding: // the inline slot is free
				sp.frame = f
			default:
				sp.more = append(sp.more, f)
			}
		}
		c.appendSentLocked(sp)
		c.inFlight += len(buf)
		if c.ptoTimer == nil {
			c.armPTOLocked()
		}
	}
}

// appendSentLocked appends sp to the in-flight history. Before the append
// would reallocate, the history moves down into the front of its array that
// acks have freed, if that front is at least half as long as the history, so
// a move copies at most two entries for each append it makes room for.
func (c *Conn) appendSentLocked(sp sentPacket) {
	n := len(c.sent)
	if n == cap(c.sent) && 2*(cap(c.sentArr)-n) >= n && n > 0 {
		arr := c.sentArr[:cap(c.sentArr)]
		copy(arr, c.sent)
		clear(arr[n:]) // the moved entries' old slots must not pin frames
		c.sent = arr[:n]
	}
	grow := len(c.sent) == cap(c.sent)
	c.sent = append(c.sent, sp)
	if grow {
		c.sentArr = c.sent
	}
}

// sinceEpoch is the clock's current time as an offset from the
// connection's epoch.
func (c *Conn) sinceEpoch() time.Duration { return c.clock.Now().Sub(c.epoch) }

// sendRaw transmits a plaintext handshake packet.
func (c *Conn) sendRaw(buf []byte) {
	c.mu.Lock()
	remote, path := c.remote, c.path
	c.mu.Unlock()
	c.pconn.WriteTo(buf, remote, path)
}

// rangeSet tracks received packet numbers as sorted disjoint ranges.
type rangeSet struct {
	rs []ackRange
}

// search returns the index of the first range with hi >= pn: the range
// containing pn if any, else where a range starting at pn would be inserted.
func (r *rangeSet) search(pn uint64) int {
	i, _ := slices.BinarySearchFunc(r.rs, pn, func(x ackRange, pn uint64) int {
		return cmp.Compare(x.hi, pn)
	})
	return i
}

func (r *rangeSet) contains(pn uint64) bool {
	i := r.search(pn)
	return i < len(r.rs) && r.rs[i].lo <= pn
}

// add inserts pn, extending or merging only the neighbouring ranges: the
// set stays sorted and disjoint without a re-sort.
func (r *rangeSet) add(pn uint64) {
	i := r.search(pn)
	if i < len(r.rs) && r.rs[i].lo <= pn {
		return // already present
	}
	joinsPrev := i > 0 && r.rs[i-1].hi+1 == pn
	joinsNext := i < len(r.rs) && pn+1 == r.rs[i].lo
	switch {
	case joinsPrev && joinsNext:
		r.rs[i-1].hi = r.rs[i].hi
		r.rs = slices.Delete(r.rs, i, i+1)
	case joinsPrev:
		r.rs[i-1].hi = pn
	case joinsNext:
		r.rs[i].lo = pn
	default:
		r.rs = slices.Insert(r.rs, i, ackRange{lo: pn, hi: pn})
	}
}

// ranges returns the current ranges, capped to the most recent 32. The
// returned slice aliases the set: it is only valid until the next add —
// fine for ack frames, which encode it at once (appendAckRanges).
func (r *rangeSet) ranges() []ackRange {
	rs := r.rs
	if len(rs) > 32 {
		rs = rs[len(rs)-32:]
	}
	return rs
}

// samePath reports whether a and b describe the same forwarding path. Reply
// paths are derived from a packet's hops alone, so Src, Dst and Hops decide
// the rest (metadata included).
func samePath(a, b *segment.Path) bool {
	return a != nil && a.Src == b.Src && a.Dst == b.Dst && slices.Equal(a.Hops, b.Hops)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
