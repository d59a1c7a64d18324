package squic

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"time"

	"tango/internal/netsim"
)

// Stream is a bidirectional, flow-controlled, reliable byte stream
// multiplexed on a Conn. It implements net.Conn so the standard library's
// HTTP stack can run over it unchanged.
type Stream struct {
	c  *Conn
	id uint64

	// All mutable state is guarded by c.mu.

	// Send side. blocks holds every byte accepted by Write and not yet
	// acked, in offset order (see appendPendingLocked); the last pendLen of
	// them, from sendOffset on, are not yet packetized.
	// blockSlots is blocks' first array: the blocks of a stream that
	// writes twice, a header and then a body, are both held until acked
	// and fit without allocating.
	blocks     []sendBlock
	blockSlots [2]sendBlock
	pendLen    int
	sendOffset uint64 // next offset to packetize
	sendFin    bool   // fin requested
	finSent    bool
	maxSend    uint64 // peer's flow-control limit
	writeErr   error
	wDeadline  deadline

	// Receive side. recvBuf[recvOff:] are the contiguous readable bytes;
	// a drained recvBuf is reset to its start, so its array is reused.
	recvBuf   []byte
	recvOff   int
	recvNext  uint64            // offset after recvBuf's last byte
	consumed  uint64            // offset consumed by Read
	chunks    map[uint64][]byte // out-of-order segments (copies)
	finalSize int64             // -1 until fin received
	recvLimit uint64            // advertised MAX_STREAM_DATA
	readErr   error
	rDeadline deadline

	// readable wakes this stream's Read, writable its Write. Both are
	// locked by c.mu, and only a change to this stream broadcasts them, so
	// a packet for one stream leaves the readers and writers parked on the
	// connection's other streams asleep.
	readable waitCond
	writable waitCond
}

// deadline tracks one direction's I/O deadline on the connection's clock.
type deadline struct {
	expired bool
	timer   netsim.Timer
}

var errStreamClosed = errors.New("squic: stream closed")

// errDeadline satisfies net.Error with Timeout() == true.
type timeoutErr struct{}

func (timeoutErr) Error() string   { return "squic: i/o deadline exceeded" }
func (timeoutErr) Timeout() bool   { return true }
func (timeoutErr) Temporary() bool { return true }

var errDeadline net.Error = timeoutErr{}

func newStream(c *Conn, id uint64) *Stream {
	s := &Stream{
		c:         c,
		id:        id,
		maxSend:   streamWindow,
		recvLimit: streamWindow,
		finalSize: -1,
	}
	s.blocks = s.blockSlots[:0]
	s.readable.cond.L = &c.mu
	s.writable.cond.L = &c.mu
	return s
}

// ID returns the stream identifier.
func (s *Stream) ID() uint64 { return s.id }

// Read implements net.Conn.
func (s *Stream) Read(p []byte) (int, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	for {
		if s.recvOff < len(s.recvBuf) {
			n := copy(p, s.recvBuf[s.recvOff:])
			s.recvOff += n
			if s.recvOff == len(s.recvBuf) {
				s.recvBuf, s.recvOff = s.recvBuf[:0], 0
				if s.finalSize >= 0 && s.recvNext >= uint64(s.finalSize) {
					s.recvBuf = nil // everything is read: nothing will refill it
				}
			}
			s.consumed += uint64(n)
			s.maybeExtendWindowLocked()
			return n, nil
		}
		if s.finalSize >= 0 && s.consumed >= uint64(s.finalSize) {
			return 0, io.EOF
		}
		if s.readErr != nil {
			return 0, s.readErr
		}
		if s.rDeadline.expired {
			return 0, errDeadline
		}
		s.c.waitLocked(&s.readable)
	}
}

// maybeExtendWindowLocked advertises more receive window once half is
// consumed.
func (s *Stream) maybeExtendWindowLocked() {
	if s.finalSize >= 0 {
		return // peer finished sending; no more window needed
	}
	if s.consumed+streamWindow > s.recvLimit+streamWindow/2 {
		s.recvLimit = s.consumed + streamWindow
		s.c.queueFrameLocked(frame{kind: ftMaxStreamData, id: s.id, val: s.recvLimit})
		s.c.scheduleSendLocked()
	}
}

// Write implements net.Conn. Data is buffered and packetized by the
// connection; Write blocks only when the local buffer is full.
func (s *Stream) Write(p []byte) (int, error) {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	total := 0
	for len(p) > 0 {
		if s.writeErr != nil {
			return total, s.writeErr
		}
		if s.sendFin {
			return total, errStreamClosed
		}
		if s.wDeadline.expired {
			return total, errDeadline
		}
		room := s.c.cfg.WriteBuffer - s.pendLen
		if room <= 0 {
			s.c.waitLocked(&s.writable)
			continue
		}
		n := min(room, len(p))
		s.appendPendingLocked(p[:n])
		p = p[n:]
		total += n
		s.c.scheduleSendLocked()
	}
	return total, nil
}

// sendBlock is one block of a stream's send buffer: buf holds the stream's
// bytes from offset off on, and unacked counts those of them not yet acked.
type sendBlock struct {
	buf     []byte
	off     uint64
	unacked int
}

// appendPendingLocked copies p into the send buffer: into the newest block
// while it has room and still holds pending bytes, then into new blocks.
// The bytes are never copied again: a block is only ever appended to past
// its length, so the frames that alias its earlier bytes (nextFrameLocked)
// see them unchanged until they are acked (ackedLocked). A new block holds
// at least the rest of the write and, while older bytes are still pending,
// twice the newest block's capacity, up to netsim.BlockSize: a write into
// an empty buffer (the common case when the congestion window has room)
// takes the smallest pooled block that fits it, and a transfer that backs
// up soon fills full-size ones.
func (s *Stream) appendPendingLocked(p []byte) {
	for len(p) > 0 {
		k := len(s.blocks)
		if s.pendLen == 0 || len(s.blocks[k-1].buf) == cap(s.blocks[k-1].buf) {
			size := len(p)
			if s.pendLen > 0 {
				size = max(size, 2*cap(s.blocks[k-1].buf))
			}
			off := s.sendOffset + uint64(s.pendLen)
			s.blocks = append(s.blocks, sendBlock{buf: s.newBlockLocked(min(size, netsim.BlockSize)), off: off})
			k++
		}
		b := &s.blocks[k-1]
		n := min(cap(b.buf)-len(b.buf), len(p))
		b.buf = append(b.buf, p[:n]...)
		b.unacked += n
		s.pendLen += n
		p = p[n:]
	}
}

// smallBlockMax is netsim.GetBuf's largest class below netsim.BlockSize:
// a send block up to this size is a GetBuf lease, a larger one a pooled
// block of netsim.BlockSize.
const smallBlockMax = 16 << 10

// newBlockLocked returns an empty pooled send block of capacity at least
// size (at most netsim.BlockSize): a lease of the smallest GetBuf class
// that holds it, or a block from netsim's block pool when no class below
// BlockSize does.
func (s *Stream) newBlockLocked(size int) []byte {
	s.c.blocksOut++
	if size <= smallBlockMax {
		return netsim.GetBuf(size)[:0]
	}
	return netsim.GetBlock()[:0]
}

// releaseBlockLocked gives up a send block no frame aliases any more: it
// goes back to the pool it came from.
func (s *Stream) releaseBlockLocked(b []byte) {
	if s.c.onBlockRelease != nil {
		s.c.onBlockRelease(b[:cap(b)])
	}
	s.c.blocksOut--
	if cap(b) == netsim.BlockSize {
		netsim.PutBlock((*netsim.Block)(b[:netsim.BlockSize]))
		return
	}
	netsim.PutBuf(b)
}

// releaseBlocksLocked releases every send block, acked or not, when the
// connection tears down: nothing will resend or ack their bytes.
func (s *Stream) releaseBlocksLocked() {
	for _, b := range s.blocks {
		s.releaseBlockLocked(b.buf)
	}
	s.blocks, s.pendLen = nil, 0
}

// blockAtLocked returns the index of the block that holds offset off.
func (s *Stream) blockAtLocked(off uint64) int {
	i, found := slices.BinarySearchFunc(s.blocks, off, func(b sendBlock, off uint64) int {
		return cmp.Compare(b.off, off)
	})
	if !found {
		i--
	}
	return i
}

// takePendingLocked returns the first n pending bytes, those at sendOffset,
// and advances sendOffset past them. A run inside one block is returned as
// an alias of it, capacity clipped so nothing can append into the block
// through it; a run that straddles blocks is copied into one slice.
func (s *Stream) takePendingLocked(n int) []byte {
	i := s.blockAtLocked(s.sendOffset)
	b := s.blocks[i].buf[s.sendOffset-s.blocks[i].off:]
	s.pendLen -= n
	s.sendOffset += uint64(n)
	if len(b) >= n {
		return b[:n:n]
	}
	out := append(make([]byte, 0, n), b...)
	for len(out) < n {
		i++
		b = s.blocks[i].buf
		out = append(out, b[:min(len(b), n-len(out))]...)
	}
	return out
}

// ackedLocked credits the n acked bytes at offset off to the blocks that
// hold them (a frame copied across two blocks credits both) and releases
// each block whose bytes are all acked. Such a block takes no more writes:
// appendPendingLocked appends only to a block with pending, so unacked,
// bytes. Loss and PTO move a frame rather than copy it, so each byte has
// one live frame and is credited once; a count below zero breaks that rule.
func (s *Stream) ackedLocked(off uint64, n int) {
	for i := s.blockAtLocked(off); n > 0; {
		if i < 0 || i >= len(s.blocks) || off >= s.blocks[i].off+uint64(len(s.blocks[i].buf)) {
			panic(fmt.Sprintf("squic: stream %d: acked bytes at %d are in no send block", s.id, off))
		}
		b := &s.blocks[i]
		k := min(n, int(b.off+uint64(len(b.buf))-off))
		b.unacked -= k
		if b.unacked < 0 {
			panic(fmt.Sprintf("squic: stream %d: block at %d acked past its bytes", s.id, b.off))
		}
		off += uint64(k)
		n -= k
		if b.unacked > 0 {
			i++
			continue
		}
		s.releaseBlockLocked(b.buf)
		s.blocks = slices.Delete(s.blocks, i, i+1)
	}
}

// CloseWrite half-closes the stream: a FIN is sent after buffered data.
func (s *Stream) CloseWrite() error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	if s.sendFin {
		return nil
	}
	s.sendFin = true
	s.c.scheduleSendLocked()
	return nil
}

// Close implements net.Conn: it half-closes the write side and stops
// delivering received data.
func (s *Stream) Close() error {
	s.c.mu.Lock()
	if !s.sendFin {
		s.sendFin = true
	}
	if s.readErr == nil && !(s.finalSize >= 0 && s.consumed >= uint64(s.finalSize)) {
		s.readErr = errStreamClosed
	}
	s.c.scheduleSendLocked()
	s.c.broadcastLocked(&s.readable)
	s.c.mu.Unlock()
	return nil
}

// LocalAddr implements net.Conn.
func (s *Stream) LocalAddr() net.Addr { return s.c.LocalAddr() }

// RemoteAddr implements net.Conn.
func (s *Stream) RemoteAddr() net.Addr { return s.c.RemoteAddr() }

// SetDeadline implements net.Conn.
func (s *Stream) SetDeadline(t time.Time) error {
	s.SetReadDeadline(t)
	return s.SetWriteDeadline(t)
}

// SetReadDeadline implements net.Conn.
func (s *Stream) SetReadDeadline(t time.Time) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	s.setDeadlineLocked(&s.rDeadline, t, &s.readable)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (s *Stream) SetWriteDeadline(t time.Time) error {
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	s.setDeadlineLocked(&s.wDeadline, t, &s.writable)
	return nil
}

func (s *Stream) setDeadlineLocked(d *deadline, t time.Time, cond *waitCond) {
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	d.expired = false
	if t.IsZero() {
		return
	}
	dur := t.Sub(s.c.clock.Now())
	if dur <= 0 {
		d.expired = true
		s.c.broadcastLocked(cond)
		return
	}
	c := s.c
	d.timer = c.clock.AfterFunc(dur, func() {
		c.mu.Lock()
		d.expired = true
		c.broadcastLocked(cond)
		c.mu.Unlock()
	})
}

// handleFrameLocked ingests one received stream frame. It wakes the
// stream's reader only when the frame changed what Read can return: the
// contiguous bytes grew (recvNext moved) or the final size became known. A
// duplicate, a retransmit of delivered bytes, or an out-of-order chunk that
// fills no gap wakes nobody, so its delivery reports no wake.
func (s *Stream) handleFrameLocked(f frame) error {
	next, knewFinal := s.recvNext, s.finalSize >= 0
	end := f.val + uint64(len(f.data))
	if end > s.recvLimit {
		return fmt.Errorf("squic: stream %d flow-control violation (%d > %d)", s.id, end, s.recvLimit)
	}
	if f.fin {
		if s.finalSize >= 0 && uint64(s.finalSize) != end {
			return fmt.Errorf("squic: stream %d conflicting final sizes", s.id)
		}
		fs := int64(end)
		s.finalSize = fs
	}
	if len(f.data) > 0 && end > s.recvNext {
		// Retransmits may be re-chunked at different boundaries (a path
		// change mid-transfer re-splits frames to the new MTU budget), so
		// trim any prefix already delivered and let a longer chunk replace
		// a shorter one at the same offset.
		off, data := f.val, f.data
		if off < s.recvNext {
			data = data[s.recvNext-off:]
			off = s.recvNext
		}
		if off == s.recvNext {
			s.deliverLocked(data)
		} else if ex, dup := s.chunks[off]; !dup || len(data) > len(ex) {
			// data aliases the packet buffer, recycled once the packet's
			// handler returns: an out-of-order chunk keeps a copy.
			if s.chunks == nil {
				s.chunks = make(map[uint64][]byte)
			}
			s.chunks[off] = bytes.Clone(data)
		}
	}
	// Pull the chunks that became contiguous into recvBuf.
	for len(s.chunks) > 0 {
		data, ok := s.chunks[s.recvNext]
		if !ok {
			break
		}
		delete(s.chunks, s.recvNext)
		s.deliverLocked(data)
	}
	if s.recvNext != next || (!knewFinal && s.finalSize >= 0) {
		s.c.broadcastLocked(&s.readable)
	}
	return nil
}

// deliverLocked appends the in-order bytes at recvNext to recvBuf, the only
// copy an in-order byte gets on the receive path. Unread bytes move to the
// front of the array before it would grow.
func (s *Stream) deliverLocked(data []byte) {
	if s.readErr == nil {
		if s.recvOff > 0 && len(s.recvBuf)+len(data) > cap(s.recvBuf) {
			n := copy(s.recvBuf, s.recvBuf[s.recvOff:])
			s.recvBuf, s.recvOff = s.recvBuf[:n], 0
		}
		s.recvBuf = append(s.recvBuf, data...)
	} else {
		s.consumed += uint64(len(data)) // discard but account
	}
	s.recvNext += uint64(len(data))
}

// sendableLocked reports whether the stream has data or a FIN to packetize.
func (s *Stream) sendableLocked() bool {
	if s.writeErr != nil {
		return false
	}
	if s.pendLen > 0 && s.sendOffset < s.maxSend {
		return true
	}
	return s.sendFin && !s.finSent
}

// nextFrameLocked pops the next stream frame, at most maxData payload bytes;
// ok is false when the stream has nothing to send.
func (s *Stream) nextFrameLocked(maxData int) (f frame, ok bool) {
	avail := s.pendLen
	if fcRoom := int(s.maxSend - s.sendOffset); avail > fcRoom {
		avail = fcRoom
	}
	n := min(avail, maxData)
	if n < 0 {
		n = 0
	}
	// Attach the FIN once all buffered data is out.
	fin := s.sendFin && !s.finSent && s.pendLen == n
	if n == 0 && !fin {
		return frame{}, false
	}
	f = frame{kind: ftStream, id: s.id, val: s.sendOffset, fin: fin}
	if n > 0 {
		// The frame aliases the send buffer's block instead of copying (see
		// appendPendingLocked): its bytes stay immutable until the packet
		// that carries them, or the packet a loss or PTO moved the frame
		// to, is acked.
		f.data = s.takePendingLocked(n)
		s.c.broadcastLocked(&s.writable) // the only place WriteBuffer room appears
	}
	if fin {
		s.finSent = true
	}
	return f, true
}

// doneLocked reports whether both directions have fully completed: our FIN
// is sent and every byte we wrote is acked, so no block is left to release,
// and the peer's FIN arrived with every byte pulled into the reassembly
// buffer. A done stream needs no demux entry — pending Reads drain recvBuf
// directly — and until it is done, an ack still needs the entry to find the
// blocks it releases.
func (s *Stream) doneLocked() bool {
	return s.finSent && len(s.blocks) == 0 &&
		s.finalSize >= 0 && s.recvNext >= uint64(s.finalSize)
}

// failLocked errors both directions (connection teardown) and wakes the
// stream's reader and writer to return the error.
func (s *Stream) failLocked(err error) {
	if s.readErr == nil {
		s.readErr = err
	}
	if s.writeErr == nil {
		s.writeErr = err
	}
	s.c.broadcastLocked(&s.readable)
	s.c.broadcastLocked(&s.writable)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
