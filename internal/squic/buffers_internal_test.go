package squic

import (
	"bytes"
	"crypto/cipher"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"time"

	"tango/internal/addr"
	"tango/internal/netsim"
	"tango/internal/segment"
	"tango/internal/snet"
)

// sealedPacket builds a 1-RTT datagram for connID carrying frames, sealed
// with sealer under packet number pn, in a buffer of its own.
func sealedPacket(sealer cipher.AEAD, connID, pn uint64, frames ...frame) (header, *snet.Datagram) {
	hdr := header{ptype: ptOneRTT, connID: connID, pktNum: pn}
	buf := hdr.append(nil)
	var plain []byte
	for _, f := range frames {
		plain = f.append(plain)
	}
	var nonce nonceBuf
	buf = sealer.Seal(buf, nonce.set(pn), plain, buf[:headerLen])
	return hdr, &snet.Datagram{Payload: buf}
}

// capturePconn records every datagram written, each copied into a buffer of
// its own (the wire), recycling the buffers handed back through recycle.
type capturePconn struct {
	pkts  [][]byte
	spare [][]byte
}

func (p *capturePconn) WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error {
	var b []byte
	if n := len(p.spare); n > 0 {
		b, p.spare = p.spare[n-1][:0], p.spare[:n-1]
	}
	p.pkts = append(p.pkts, append(b, payload...))
	return nil
}
func (p *capturePconn) ReadFrom() (*snet.Datagram, error) { select {} }
func (p *capturePconn) LocalAddr() addr.UDPAddr           { return addr.UDPAddr{} }
func (p *capturePconn) SetReadDeadline(time.Time) error   { return nil }
func (p *capturePconn) Close() error                      { return nil }

// take returns the captured datagrams and forgets them. The returned slice
// is reused by the next take: consume it before writing to p again.
func (p *capturePconn) take() [][]byte {
	out := p.pkts
	p.pkts = p.pkts[:0]
	return out
}

func (p *capturePconn) recycle(b []byte) { p.spare = append(p.spare, b) }

// connPair builds an established client and server connection that share
// session keys, each writing into its own capture pconn. Nothing is
// delivered until the test hands datagrams over with deliver.
func connPair(tb testing.TB, clock netsim.Clock) (client, server *Conn, toServer, toClient *capturePconn) {
	tb.Helper()
	keys, err := deriveKeys([]byte("shared-secret-for-buffer-test.."), []byte("transcript"))
	if err != nil {
		tb.Fatal(err)
	}
	toServer, toClient = &capturePconn{}, &capturePconn{}
	cfg := (&Config{Clock: clock}).withDefaults()
	client = newConn(toServer, cfg, true)
	server = newConn(toClient, cfg, false)
	for _, c := range []*Conn{client, server} {
		c.connID, c.keys, c.established = 42, keys, true
	}
	return client, server, toServer, toClient
}

// deliver hands one wire datagram to c and then poisons the buffer, as the
// pool may hand it to the next packet as soon as the handler returns: any
// alias the connection kept into it would read garbage from then on.
func deliver(c *Conn, wire []byte) {
	hdr, _, err := parseHeader(wire)
	if err != nil {
		panic(err)
	}
	c.handleOneRTT(hdr, &snet.Datagram{Payload: wire})
	for i := range wire {
		wire[i] = 0xEE
	}
}

// readAvailable appends whatever s can return without blocking to dst.
func readAvailable(s *Stream, dst []byte) ([]byte, bool) {
	var buf [4096]byte
	for {
		s.c.mu.Lock()
		ready := s.recvOff < len(s.recvBuf) || (s.finalSize >= 0 && s.consumed >= uint64(s.finalSize))
		s.c.mu.Unlock()
		if !ready {
			return dst, false
		}
		n, err := s.Read(buf[:])
		dst = append(dst, buf[:n]...)
		if err == io.EOF {
			return dst, true
		}
	}
}

// expirePTO runs the client's PTO as if its timer had expired.
func expirePTO(c *Conn) {
	c.mu.Lock()
	c.ptoDeadline = time.Time{}
	c.mu.Unlock()
	c.onPTO()
}

// TestReceivePathOwnsNoWireBytes delivers a transfer's packets shuffled,
// duplicated and partly lost, poisoning each wire buffer as soon as its
// handler returns. The stream must still read back exactly the bytes
// written: the receive path opens packets in place, and every byte it keeps
// (in-order data in recvBuf, out-of-order chunks) must be a copy.
func TestReceivePathOwnsNoWireBytes(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
			client, server, toServer, toClient := connPair(t, clock)
			payload := make([]byte, 300_000+rng.Intn(1000))
			rng.Read(payload)
			s, err := client.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
			s.CloseWrite()

			var got []byte
			var rs *Stream
			eof, dups, lost := false, 0, 0
			for round := 0; !eof; round++ {
				if round == 2000 {
					t.Fatalf("transfer stalled: %d of %d bytes", len(got), len(payload))
				}
				pkts := toServer.take()
				rng.Shuffle(len(pkts), func(i, j int) { pkts[i], pkts[j] = pkts[j], pkts[i] })
				for _, p := range pkts {
					switch x := rng.Float64(); {
					case x < 0.15:
						lost++
						continue
					case x < 0.35:
						dups++
						deliver(server, bytes.Clone(p))
					}
					deliver(server, p)
				}
				if rs == nil && len(server.acceptQ) > 0 {
					if rs, err = server.AcceptStream(); err != nil {
						t.Fatal(err)
					}
				}
				if rs != nil {
					got, eof = readAvailable(rs, got)
				}
				acks := toClient.take()
				for _, p := range acks {
					deliver(client, p)
				}
				clock.now = clock.now.Add(10 * time.Millisecond)
				if len(toServer.pkts) == 0 {
					expirePTO(client)
				}
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read %d bytes differing from the %d written", len(got), len(payload))
			}
			if dups == 0 || lost == 0 {
				t.Fatalf("schedule exercised %d duplicates and %d losses, want both", dups, lost)
			}
		})
	}
}

// TestFreeFramesDroppedWithHistory: acked stream frames feed later packets
// during a transfer, and once the last packet is acked and the history
// empties, the free list the burst left behind goes with it.
func TestFreeFramesDroppedWithHistory(t *testing.T) {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(t, clock)
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(make([]byte, 600_000)); err != nil {
		t.Fatal(err)
	}
	s.CloseWrite()
	maxFree := 0
	for round := 0; ; round++ {
		if round == 1000 {
			t.Fatal("transfer stalled")
		}
		for _, p := range toServer.take() {
			deliver(server, p)
		}
		for _, p := range toClient.take() {
			deliver(client, p)
		}
		client.mu.Lock()
		maxFree = max(maxFree, len(client.freeFrames))
		idle := len(client.sent) == 0 && len(toServer.pkts) == 0
		freeCap := cap(client.freeFrames)
		client.mu.Unlock()
		if idle {
			if maxFree <= idleFreeFrames {
				t.Fatalf("the free list never held more than %d frames", maxFree)
			}
			if freeCap > idleFreeFrames {
				t.Fatalf("history empty, free list capacity %d, want <= %d", freeCap, idleFreeFrames)
			}
			return
		}
	}
}

// checkPending asserts the send buffer's length invariant.
func checkPending(t *testing.T, s *Stream) {
	t.Helper()
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	sum := 0
	for _, b := range s.pending {
		sum += len(b)
	}
	if sum != s.pendLen {
		t.Fatalf("pendLen = %d, blocks hold %d", s.pendLen, sum)
	}
}

// TestSendBufferBlocks writes a stream in odd-sized pieces, so packets'
// frames straddle block boundaries, and drops whole rounds of packets so
// PTO retransmissions resend frames that alias blocks later writes kept
// appending to. Delivery must be byte-exact, and pendLen must equal the sum
// of the block lengths throughout.
func TestSendBufferBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(t, clock)
	client.cfg.WriteBuffer = 96 << 10 // several blocks, and Write stays non-blocking below
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	var payload, got []byte
	var rs *Stream
	eof := false
	for round := 0; !eof; round++ {
		if round == 5000 {
			t.Fatalf("transfer stalled: %d of %d bytes", len(got), len(payload))
		}
		if len(payload) < 600_000 {
			client.mu.Lock()
			room := client.cfg.WriteBuffer - s.pendLen
			client.mu.Unlock()
			if n := min(room, 1+rng.Intn(5000)); n > 0 {
				p := make([]byte, n)
				rng.Read(p)
				if _, err := s.Write(p); err != nil {
					t.Fatal(err)
				}
				payload = append(payload, p...)
				checkPending(t, s)
			}
		} else {
			s.CloseWrite()
		}
		pkts := toServer.take()
		if round%5 != 4 { // every fifth round is lost whole
			for _, p := range pkts {
				deliver(server, p)
			}
		}
		if rs == nil && len(server.acceptQ) > 0 {
			if rs, err = server.AcceptStream(); err != nil {
				t.Fatal(err)
			}
		}
		if rs != nil {
			got, eof = readAvailable(rs, got)
		}
		for _, p := range toClient.take() {
			deliver(client, p)
		}
		checkPending(t, s)
		clock.now = clock.now.Add(10 * time.Millisecond)
		if round%5 == 4 || len(toServer.pkts) == 0 {
			expirePTO(client)
		}
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read %d bytes differing from the %d written", len(got), len(payload))
	}
	if s.pendLen != 0 || len(s.pending) != 0 {
		t.Fatalf("send buffer not drained: pendLen %d, %d blocks", s.pendLen, len(s.pending))
	}
}

// TestTakePendingAliasesOrCopies: a frame's bytes alias the block they lie
// in, and a run straddling blocks is one contiguous copy.
func TestTakePendingAliasesOrCopies(t *testing.T) {
	client, _, _, _ := connPair(t, &stepClock{})
	s := newStream(client, 0)
	client.mu.Lock()
	defer client.mu.Unlock()
	var written []byte
	for i, n := range []int{10, 10, 30, 100} {
		p := bytes.Repeat([]byte{byte('a' + i)}, n)
		s.appendPendingLocked(p)
		written = append(written, p...)
	}
	if len(s.pending) < 3 {
		t.Fatalf("%d blocks, want several", len(s.pending))
	}
	first := s.pending[0]
	head := s.takePendingLocked(4)
	if &head[0] != &first[0] || cap(head) != 4 {
		t.Fatal("a run inside one block must alias it, capacity clipped")
	}
	straddle := s.takePendingLocked(len(first) - 4 + 5)
	if !bytes.Equal(straddle, written[4:4+len(straddle)]) {
		t.Fatalf("straddling run = %q", straddle)
	}
	rest := s.takePendingLocked(s.pendLen)
	if !bytes.Equal(append(append(head, straddle...), rest...), written) || s.pendLen != 0 {
		t.Fatal("taken runs do not reassemble the written bytes")
	}
}

// TestFrameSizeMatchesEncoding: every frame type's computed size equals the
// length of its encoding, across varint width boundaries.
func TestFrameSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<63 - 1, 1 << 63, ^uint64(0)}
	v := func() uint64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	for i := 0; i < 2000; i++ {
		ack := &ackFrame{}
		for n := rng.Intn(40); n > 0; n-- {
			lo := v()
			ack.ranges = append(ack.ranges, ackRange{lo: lo, hi: lo + v()%1000})
		}
		frames := []frame{
			ack,
			&streamFrame{id: v(), offset: v(), fin: rng.Intn(2) == 0, data: make([]byte, rng.Intn(300))},
			&maxStreamDataFrame{id: v(), max: v()},
			&closeFrame{code: v(), reason: string(make([]byte, rng.Intn(200)))},
			pingFrame{},
			handshakeDoneFrame{},
		}
		for _, f := range frames {
			if got, want := f.size(), len(f.append(nil)); got != want {
				t.Fatalf("%T size() = %d, encoding is %d bytes (%+v)", f, got, want, f)
			}
		}
	}
}

// oneRTTChunk is one packet's frame budget less stream overhead.
const oneRTTChunk = 1200 - 32

// oneRTTRound returns BenchmarkOneRTTPacket's op, warmed: one full-size
// packet's worth of stream data written on a client connection, the packet
// carried to a server connection and the server's ack back, over in-memory
// pconns: seal, open, reassembly into the stream, and the ack round. The
// server reads the bytes each round, so its receive buffer is reused.
func oneRTTRound(tb testing.TB) func() {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(tb, clock)
	s, err := client.OpenStream()
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, oneRTTChunk)
	sink := make([]byte, oneRTTChunk)
	var rs *Stream
	round := func() {
		if _, err := s.Write(data); err != nil {
			tb.Fatal(err)
		}
		for _, p := range toServer.take() {
			hdr, _, _ := parseHeader(p)
			server.handleOneRTT(hdr, &snet.Datagram{Payload: p})
			toServer.recycle(p)
		}
		if rs == nil {
			rs = server.acceptQ[0]
		}
		for got := 0; got < oneRTTChunk; {
			n, err := rs.Read(sink)
			if err != nil {
				tb.Fatal(err)
			}
			got += n
		}
		for _, p := range toClient.take() {
			hdr, _, _ := parseHeader(p)
			client.handleOneRTT(hdr, &snet.Datagram{Payload: p})
			toClient.recycle(p)
		}
	}
	for range 64 { // warm the scratch buffers and the stream's blocks
		round()
	}
	return round
}

// BenchmarkOneRTTPacket times oneRTTRound's op. TestOneRTTPacketAllocs
// holds its allocation budget: the send-buffer block the write is copied
// into, and the sender's history array, which every round trip empties. The stream frame comes from the free list the previous
// round's ack filled, and the retransmission record holds it inline.
func BenchmarkOneRTTPacket(b *testing.B) {
	round := oneRTTRound(b)
	b.SetBytes(oneRTTChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
}

// TestOneRTTPacketAllocs: BenchmarkOneRTTPacket's op stays within the 2
// allocs: a per-packet payload, nonce, AAD, frame or frame-list allocation
// creeping back fails it.
func TestOneRTTPacketAllocs(t *testing.T) {
	round := oneRTTRound(t)
	if n := testing.AllocsPerRun(100, round); n > 2 {
		t.Errorf("one 1-RTT packet round: %v allocs/op, want <= 2", n)
	}
}
