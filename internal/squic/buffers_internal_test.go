package squic

import (
	"bytes"
	"crypto/cipher"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

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
// Every buffer has room for a full-size packet, so a recycled one never
// regrows.
type capturePconn struct {
	pkts  [][]byte
	spare [][]byte
}

func (p *capturePconn) WriteTo(payload []byte, dst addr.UDPAddr, path *segment.Path) error {
	var b []byte
	if n := len(p.spare); n > 0 {
		b, p.spare = p.spare[n-1][:0], p.spare[:n-1]
	} else {
		b = make([]byte, 0, 1536)
	}
	p.pkts = append(p.pkts, append(b, payload...))
	return nil
}
func (p *capturePconn) SetHandler(func(snet.Datagram) bool) {}
func (p *capturePconn) LocalAddr() addr.UDPAddr             { return addr.UDPAddr{} }
func (p *capturePconn) Close() error                        { return nil }

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
	return connPairConfig(tb, &Config{Clock: clock})
}

// connPairConfig is connPair with both connections configured by cfg.
func connPairConfig(tb testing.TB, cfg *Config) (client, server *Conn, toServer, toClient *capturePconn) {
	tb.Helper()
	keys, err := deriveKeys([]byte("shared-secret-for-buffer-test.."), []byte("transcript"))
	if err != nil {
		tb.Fatal(err)
	}
	toServer, toClient = &capturePconn{}, &capturePconn{}
	cfg = cfg.withDefaults()
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

// TestTransferSurvivesReordering delivers a transfer's datagrams, both
// ways, in a seeded permuted order, holding a random share back for later
// rounds so that they arrive after datagrams sent after them. The network
// loses and duplicates nothing; loss detection may still declare a late
// packet lost and resend its data. The stream must read back exactly the
// bytes written, and the schedule must really have reordered the data.
func TestTransferSurvivesReordering(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
			client, server, toServer, toClient := connPair(t, clock)
			payload := make([]byte, 200_000+rng.Intn(1000))
			rng.Read(payload)
			s, err := client.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Write(payload); err != nil {
				t.Fatal(err)
			}
			s.CloseWrite()

			// permuted appends the newly sent datagrams to held, shuffles
			// it, and splits it into a prefix to deliver now and the rest
			// to hold back.
			permuted := func(held, sent [][]byte) (now, later [][]byte) {
				held = append(held, sent...)
				rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				k := 0
				if len(held) > 0 {
					k = 1 + rng.Intn(len(held))
				}
				return held[:k], append([][]byte(nil), held[k:]...)
			}
			var (
				got          []byte
				rs           *Stream
				eof          bool
				heldS, heldC [][]byte
				maxPN        uint64
				overtaken    int
			)
			for round := 0; !eof; round++ {
				if round == 3000 {
					t.Fatalf("transfer stalled: %d of %d bytes", len(got), len(payload))
				}
				var now [][]byte
				now, heldS = permuted(heldS, toServer.take())
				for _, p := range now {
					hdr, _, err := parseHeader(p)
					if err != nil {
						t.Fatal(err)
					}
					if hdr.pktNum < maxPN {
						overtaken++
					}
					maxPN = max(maxPN, hdr.pktNum)
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
				now, heldC = permuted(heldC, toClient.take())
				for _, p := range now {
					deliver(client, p)
				}
				clock.now = clock.now.Add(10 * time.Millisecond)
				if len(toServer.pkts) == 0 && len(heldS) == 0 {
					expirePTO(client)
				}
			}
			if !bytes.Equal(got, payload) {
				t.Fatalf("read %d bytes differing from the %d written", len(got), len(payload))
			}
			if overtaken == 0 {
				t.Fatal("no datagram arrived after a later one: the schedule did not reorder")
			}
		})
	}
}

// TestFreeFramesDroppedWithHistory: every pooled send block a stream takes
// goes back to the pool. A client sends a request and a server answers it,
// the request losing every other round whole and the answer every fourth,
// so frames pass through queued and PTO; once both histories empty, neither connection holds a
// pooled block and both streams have retired, the server's only after the
// acks for its last window came back. A connection closed with data still
// unacked holds none either.
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
	client.mu.Lock()
	taken := client.blocksOut
	client.mu.Unlock()
	if taken < 2 {
		t.Fatalf("%d pooled send blocks taken, want several", taken)
	}
	var rs *Stream
	var got, answer []byte
	eof, answered, answerEOF := false, false, false
	for round := 0; ; round++ {
		if round == 1000 {
			t.Fatalf("transfer stalled: got %d eof %v answer %d eof %v; client sent %d queued %d, server sent %d queued %d, pkts %d %d",
				len(got), eof, len(answer), answerEOF, len(client.sent), len(client.queued), len(server.sent), len(server.queued), len(toServer.pkts), len(toClient.pkts))
		}
		pkts := toServer.take()
		if round%2 == 0 || eof { // the answer's acks get through
			for _, p := range pkts {
				deliver(server, p)
			}
		}
		if rs == nil && len(server.acceptQ) > 0 {
			if rs, err = server.AcceptStream(); err != nil {
				t.Fatal(err)
			}
		}
		if rs != nil && !eof {
			got, eof = readAvailable(rs, got)
		}
		if eof && !answered {
			if _, err := rs.Write(make([]byte, 200_000)); err != nil {
				t.Fatal(err)
			}
			rs.CloseWrite()
			answered = true
		}
		pkts = toClient.take()
		if round%4 != 1 {
			for _, p := range pkts {
				deliver(client, p)
			}
		}
		if !answerEOF {
			answer, answerEOF = readAvailable(s, answer)
		}
		quiet := len(toServer.pkts) == 0 && len(toClient.pkts) == 0
		client.mu.Lock()
		server.mu.Lock()
		idle := quiet && answerEOF && len(client.sent)+len(client.queued)+len(server.sent)+len(server.queued) == 0
		server.mu.Unlock()
		client.mu.Unlock()
		if idle {
			break
		}
		if round%2 == 1 || quiet {
			expirePTO(client)
		}
		if quiet {
			expirePTO(server)
		}
	}
	if len(got) != 600_000 || len(answer) != 200_000 {
		t.Fatalf("request read %d bytes, answer %d", len(got), len(answer))
	}
	for side, c := range map[string]*Conn{"client": client, "server": server} {
		c.mu.Lock()
		if c.blocksOut != 0 || len(c.streams) != 0 {
			t.Errorf("%s: %d pooled blocks not returned, %d streams not retired", side, c.blocksOut, len(c.streams))
		}
		c.mu.Unlock()
	}

	client, _, _, _ = connPair(t, clock)
	if s, err = client.OpenStream(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(make([]byte, 600_000)); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if client.blocksOut != 0 {
		t.Errorf("closed with data unacked: %d pooled blocks not returned", client.blocksOut)
	}
}

// TestSmallBlocksAreLeases: send blocks below netsim.BlockSize are packet
// pool leases, and every one goes back to the pool once. A client sends a
// request in small writes and the server answers in small writes, a third
// of the datagrams lost each way, so blocks are released by acks of
// retransmitted frames; a second request is still unacked when both sides
// close, so teardown releases its block. Over the test the pool sees as many
// puts as gets, and neither connection holds a block.
func TestSmallBlocksAreLeases(t *testing.T) {
	// smallBlockMax is a class, and the next class up is past BlockSize.
	if b := netsim.GetBuf(smallBlockMax); cap(b) != smallBlockMax {
		t.Fatalf("GetBuf(%d) has capacity %d: smallBlockMax is no pool class", smallBlockMax, cap(b))
	} else {
		netsim.PutBuf(b)
	}
	if b := netsim.GetBuf(smallBlockMax + 1); cap(b) < netsim.BlockSize {
		t.Fatalf("GetBuf(%d) has capacity %d: a class lies between smallBlockMax and BlockSize", smallBlockMax+1, cap(b))
	} else {
		netsim.PutBuf(b)
	}

	before := netsim.ReadPoolStats()
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(t, clock)
	writeSmall := func(s *Stream, total int) {
		for i := 0; i < total; {
			n := min(total-i, 100+i%4000)
			if _, err := s.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
			i += n
		}
		s.CloseWrite()
	}
	s, err := client.OpenStream()
	if err != nil {
		t.Fatal(err)
	}
	writeSmall(s, 40_000)
	var rs *Stream
	var got, answer []byte
	eof, answered, answerEOF := false, false, false
	carry := func(from *capturePconn, to *Conn, round int) {
		for i, p := range from.take() {
			if (i+round)%3 != 0 {
				deliver(to, p)
			}
		}
	}
	for round := 0; !answerEOF; round++ {
		if round == 1000 {
			t.Fatalf("exchange stalled: request %d bytes eof %v, answer %d bytes", len(got), eof, len(answer))
		}
		carry(toServer, server, round)
		if rs == nil && len(server.acceptQ) > 0 {
			if rs, err = server.AcceptStream(); err != nil {
				t.Fatal(err)
			}
		}
		if rs != nil && !eof {
			got, eof = readAvailable(rs, got)
		}
		if eof && !answered {
			writeSmall(rs, 20_000)
			answered = true
		}
		carry(toClient, client, round)
		answer, answerEOF = readAvailable(s, answer)
		clock.now = clock.now.Add(10 * time.Millisecond)
		if len(toServer.pkts) == 0 {
			expirePTO(client)
		}
		if len(toClient.pkts) == 0 {
			expirePTO(server)
		}
	}
	if len(got) != 40_000 || len(answer) != 20_000 {
		t.Fatalf("request read %d bytes, answer %d", len(got), len(answer))
	}
	if s, err = client.OpenStream(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	client.mu.Lock()
	held := client.blocksOut
	client.mu.Unlock()
	if held == 0 {
		t.Fatal("the unacked request holds no send block")
	}
	client.Close()
	server.Close()
	for side, c := range map[string]*Conn{"client": client, "server": server} {
		c.mu.Lock()
		if c.blocksOut != 0 {
			t.Errorf("%s: %d send blocks not returned", side, c.blocksOut)
		}
		c.mu.Unlock()
	}
	after := netsim.ReadPoolStats()
	if gets, puts := after.Gets-before.Gets, after.Puts-before.Puts; gets == 0 || gets != puts {
		t.Errorf("packet pool: %d gets and %d puts over the exchange, want as many puts as gets", gets, puts)
	}
}

// TestReleasedBlocksArePoisoned fills every send block with garbage as it
// is released, on both connections, while a request and its answer cross
// a network that loses, duplicates and reorders datagrams both ways. Both
// must still read back exactly the bytes written: no frame, first sent or
// retransmitted, may alias a block once it is released.
func TestReleasedBlocksArePoisoned(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
			client, server, toServer, toClient := connPair(t, clock)
			poisoned := 0
			for _, c := range []*Conn{client, server} {
				c.onBlockRelease = func(b []byte) {
					poisoned++
					for i := range b {
						b[i] = 0xEE
					}
				}
			}
			request := make([]byte, 300_000+rng.Intn(1000))
			response := make([]byte, 200_000+rng.Intn(1000))
			rng.Read(request)
			rng.Read(response)
			s, err := client.OpenStream()
			if err != nil {
				t.Fatal(err)
			}
			// Odd-sized writes, so frames straddle blocks.
			for p := request; len(p) > 0; {
				n := min(len(p), 1+rng.Intn(20_000))
				if _, err := s.Write(p[:n]); err != nil {
					t.Fatal(err)
				}
				p = p[n:]
			}
			s.CloseWrite()

			// carry delivers a random prefix of the held and newly sent
			// datagrams in a random order, each lost or duplicated now and
			// then, and holds the rest back for a later round.
			carry := func(to *Conn, held, sent [][]byte) [][]byte {
				held = append(held, sent...)
				rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
				k := 0
				if len(held) > 0 {
					k = 1 + rng.Intn(len(held))
				}
				for _, p := range held[:k] {
					switch x := rng.Float64(); {
					case x < 0.1:
						continue
					case x < 0.2:
						deliver(to, bytes.Clone(p))
					}
					deliver(to, p)
				}
				return append([][]byte(nil), held[k:]...)
			}
			var (
				got, answer    []byte
				rs             *Stream
				eof, answerEOF bool
				heldS, heldC   [][]byte
			)
			for round := 0; !eof || !answerEOF; round++ {
				if round == 5000 {
					t.Fatalf("transfer stalled: request %d of %d bytes, answer %d of %d",
						len(got), len(request), len(answer), len(response))
				}
				heldS = carry(server, heldS, toServer.take())
				if rs == nil && len(server.acceptQ) > 0 {
					if rs, err = server.AcceptStream(); err != nil {
						t.Fatal(err)
					}
				}
				if rs != nil && !eof {
					if got, eof = readAvailable(rs, got); eof {
						if _, err := rs.Write(response); err != nil {
							t.Fatal(err)
						}
						rs.CloseWrite()
					}
				}
				heldC = carry(client, heldC, toClient.take())
				if !answerEOF {
					answer, answerEOF = readAvailable(s, answer)
				}
				clock.now = clock.now.Add(10 * time.Millisecond)
				if len(toServer.pkts) == 0 && len(heldS) == 0 {
					expirePTO(client)
				}
				if len(toClient.pkts) == 0 && len(heldC) == 0 {
					expirePTO(server)
				}
			}
			if !bytes.Equal(got, request) || !bytes.Equal(answer, response) {
				t.Fatalf("read back %d and %d bytes differing from the %d and %d written",
					len(got), len(answer), len(request), len(response))
			}
			if poisoned == 0 {
				t.Fatal("no send block was released during the transfer")
			}
		})
	}
}

// checkPending asserts the send buffer's invariants: blocks in offset order,
// not overlapping, each with unacked bytes, and pendLen the bytes from
// sendOffset to the end of the last one.
func checkPending(t *testing.T, s *Stream) {
	t.Helper()
	s.c.mu.Lock()
	defer s.c.mu.Unlock()
	end := s.sendOffset
	for i, b := range s.blocks {
		if b.off < end && i > 0 {
			t.Fatalf("block %d at offset %d overlaps its predecessor, which ends at %d", i, b.off, end)
		}
		if b.unacked <= 0 || b.unacked > len(b.buf) {
			t.Fatalf("block %d holds %d bytes, %d of them unacked", i, len(b.buf), b.unacked)
		}
		end = b.off + uint64(len(b.buf))
	}
	if int(end-s.sendOffset) != s.pendLen {
		t.Fatalf("pendLen = %d, blocks hold %d bytes past sendOffset", s.pendLen, end-s.sendOffset)
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
	if s.pendLen != 0 {
		t.Fatalf("send buffer not drained: pendLen %d", s.pendLen)
	}
}

// TestTakePendingAliasesOrCopies: a frame's bytes alias the block they lie
// in, and a run straddling blocks is one contiguous copy. Every block is
// pooled and counted in blocksOut: a write into an empty buffer gets the
// smallest packet-pool class that holds it; while bytes are pending, each
// new block doubles the newest one's capacity, rounded up to a class, and a
// block past the classes below netsim.BlockSize is a full pooled block.
// Acks release blocks in any order, and a byte acked twice panics.
func TestTakePendingAliasesOrCopies(t *testing.T) {
	client, _, _, _ := connPair(t, &stepClock{})
	s := newStream(client, 0)
	client.mu.Lock()
	defer client.mu.Unlock()
	caps := func() []int {
		var out []int
		for _, b := range s.blocks {
			out = append(out, cap(b.buf))
		}
		if client.blocksOut != len(s.blocks) {
			t.Fatalf("%d pooled blocks out, the stream holds %d", client.blocksOut, len(s.blocks))
		}
		return out
	}
	var written []byte
	for i, n := range []int{200, 100, 1500, 3000, 5000} {
		p := bytes.Repeat([]byte{byte('a' + i)}, n)
		s.appendPendingLocked(p)
		written = append(written, p...)
	}
	if got, want := caps(), []int{256, 1536, 4096, 16384}; !slices.Equal(got, want) {
		t.Fatalf("block capacities %v, want %v", got, want)
	}
	first := s.blocks[0].buf
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

	// Nothing is pending: a small write gets the smallest class that holds
	// it, and a large one backs up behind it in full pooled blocks.
	s.appendPendingLocked(make([]byte, 100))
	s.appendPendingLocked(make([]byte, 100<<10))
	const B = netsim.BlockSize
	if got, want := caps(), []int{256, 1536, 4096, 16384, 256, B, B, B, B}; !slices.Equal(got, want) {
		t.Fatalf("block capacities %v, want %v", got, want)
	}
	total := int(s.sendOffset) + s.pendLen
	s.takePendingLocked(s.pendLen)
	mid := len(written) + 256 + B + 10 // inside the second full block
	s.ackedLocked(uint64(mid), total-mid)
	if got, want := caps(), []int{256, 1536, 4096, 16384, 256, B, B}; !slices.Equal(got, want) {
		t.Fatalf("after acking the tail, block capacities %v, want %v", got, want)
	}
	s.ackedLocked(0, mid)
	if len(s.blocks) != 0 || client.blocksOut != 0 {
		t.Fatalf("all acked: %d blocks left, %d pooled out", len(s.blocks), client.blocksOut)
	}

	s.appendPendingLocked(make([]byte, 100))
	s.takePendingLocked(100)
	s.ackedLocked(uint64(total), 60)
	defer func() {
		if recover() == nil {
			t.Error("acking bytes twice did not panic")
		}
	}()
	s.ackedLocked(uint64(total), 60)
}

// TestFrameSizeMatchesEncoding: every frame kind's computed size equals the
// length of its encoding, across varint width boundaries, and parsing the
// encoding gives the frame back.
func TestFrameSizeMatchesEncoding(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	edges := []uint64{0, 1, 127, 128, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<63 - 1, 1 << 63, ^uint64(0)}
	v := func() uint64 {
		if rng.Intn(2) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return rng.Uint64() >> rng.Intn(64)
	}
	seen := make(map[byte]bool)
	var sc frameScratch
	for i := 0; i < 2000; i++ {
		var ranges []ackRange
		for n := rng.Intn(40); n > 0; n-- {
			lo := v()
			ranges = append(ranges, ackRange{lo: lo, hi: lo + v()%1000})
		}
		frames := []frame{
			{kind: ftAck, data: appendAckRanges(nil, ranges)},
			{kind: ftStream, id: v(), val: v(), fin: rng.Intn(2) == 0, data: make([]byte, rng.Intn(300))},
			{kind: ftMaxStreamData, id: v(), val: v()},
			{kind: ftClose, val: v(), data: make([]byte, rng.Intn(200))},
			{kind: ftPing},
			{kind: ftHandshakeDone},
		}
		for _, f := range frames {
			seen[f.kind] = true
			enc := f.append(nil)
			if got, want := f.size(), len(enc); got != want {
				t.Fatalf("kind 0x%02x size() = %d, encoding is %d bytes (%+v)", f.kind, got, want, f)
			}
			out, err := parseFrames(enc, &sc)
			if err != nil || len(out) != 1 {
				t.Fatalf("kind 0x%02x: parsed %d frames, err %v", f.kind, len(out), err)
			}
			got := out[0]
			if f.kind == ftAck {
				if !slices.Equal(sc.acks[got.id:got.val], ranges) {
					t.Fatalf("ack ranges %v, want %v", sc.acks[got.id:got.val], ranges)
				}
				got.id, got.val = 0, 0 // the scratch indices of the decoded ranges
			}
			if !sameFrame(got, f) {
				t.Fatalf("kind 0x%02x parsed as %+v, want %+v", f.kind, got, f)
			}
		}
	}
	if len(seen) != 6 {
		t.Fatalf("covered %d frame kinds, want all 6", len(seen))
	}
}

// oneRTTChunk is one packet's frame budget less stream overhead.
const oneRTTChunk = 1200 - 32

// writeRound returns a warmed op: size bytes of stream data written on a
// client connection, their packets carried to a server connection and the
// server's acks back, over in-memory pconns: seal, open, reassembly into the
// stream, and the ack round. The server reads the bytes each round, so its
// receive buffer is reused.
func writeRound(tb testing.TB, size int) func() {
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(tb, clock)
	s, err := client.OpenStream()
	if err != nil {
		tb.Fatal(err)
	}
	data := make([]byte, size)
	sink := make([]byte, size)
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
		for got := 0; got < size; {
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

// BenchmarkOneRTTPacket times writeRound's op for one full-size packet's
// worth of stream data. TestOneRTTPacketAllocs holds its allocation budget
// of none: the sender's history keeps its array when a round trip empties
// it, the send block the write is copied into is a packet pool lease, and
// the stream frame is a value held inline in the retransmission record.
func BenchmarkOneRTTPacket(b *testing.B) {
	round := writeRound(b, oneRTTChunk)
	b.SetBytes(oneRTTChunk)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		round()
	}
}

// TestOneRTTPacketAllocs: BenchmarkOneRTTPacket's op allocates nothing: a
// per-packet payload, nonce, AAD, frame, frame-list, send-block or history
// allocation creeping back fails it.
func TestOneRTTPacketAllocs(t *testing.T) {
	round := writeRound(t, oneRTTChunk)
	if n := testing.AllocsPerRun(100, round); n > 0 {
		t.Errorf("one 1-RTT packet round: %v allocs/op, want 0", n)
	}
}

// TestSmallWriteAllocs: a warm 4 KiB write, its packets and their acks
// allocate nothing. The write's send block is a packet pool lease, back in
// the pool once acked, and the sender's history keeps its array when every
// round trip empties it; a block allocated per write, or a history that
// drops its array when idle and regrows it to the round's four packets,
// fails this.
func TestSmallWriteAllocs(t *testing.T) {
	round := writeRound(t, 4096)
	if n := testing.AllocsPerRun(100, round); n > 0 {
		t.Errorf("one 4 KiB write round: %v allocs/op, want 0", n)
	}
}

// windowRound writes n full-size packets' worth of stream data on client,
// then sends them, delivers them to server, reads them there and carries
// every ack and window update back until both sides are quiet. It returns
// the allocations of that exchange, the write excluded, and the number of
// send blocks the write filled.
func windowRound(tb testing.TB, client, server *Conn, toServer, toClient *capturePconn, n int) (allocs uint64, blocks int) {
	s := client.streams[0]
	client.established = false // hold packetization while writing
	if _, err := s.Write(make([]byte, n*oneRTTChunk)); err != nil {
		tb.Fatal(err)
	}
	blocks = len(s.blocks)
	sink := make([]byte, 64<<10)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	client.mu.Lock()
	client.established = true
	client.packetizeLocked()
	client.mu.Unlock()
	for rs := (*Stream)(nil); len(toServer.pkts)+len(toClient.pkts) > 0; {
		for _, p := range toServer.take() {
			hdr, _, _ := parseHeader(p)
			server.handleOneRTT(hdr, &snet.Datagram{Payload: p})
			toServer.recycle(p)
		}
		if rs == nil {
			rs = server.streams[0]
		}
		for {
			server.mu.Lock()
			ready := rs.recvOff < len(rs.recvBuf)
			server.mu.Unlock()
			if !ready {
				break
			}
			rs.Read(sink)
		}
		for _, p := range toClient.take() {
			hdr, _, _ := parseHeader(p)
			client.handleOneRTT(hdr, &snet.Datagram{Payload: p})
			toClient.recycle(p)
		}
	}
	runtime.ReadMemStats(&ms)
	if len(client.sent) != 0 {
		tb.Fatalf("%d packets still in flight after the exchange", len(client.sent))
	}
	return ms.Mallocs - before, blocks
}

// TestWindowAllocsFlat: a warm connection sending, and getting acked, a
// window of 256 full-size packets allocates no more than one sending a
// window of 16 but for what follows the bytes: one copy per extra send
// block (a frame whose bytes straddle two blocks is copied into one run).
// The history keeps its array, sized by the largest window, when it
// empties, so no window regrows it. No frame, record or scratch allocation
// may come per packet.
func TestWindowAllocsFlat(t *testing.T) {
	if unsafe.Sizeof(sentPacket{}) > 96 {
		t.Errorf("sentPacket is %d bytes, want <= 96", unsafe.Sizeof(sentPacket{}))
	}
	clock := &stepClock{now: time.Date(2022, 10, 10, 0, 0, 0, 0, time.UTC)}
	client, server, toServer, toClient := connPair(t, clock)
	if _, err := client.OpenStream(); err != nil {
		t.Fatal(err)
	}
	for range 4 { // warm: cwnd, receive buffer, scratch and pconn slices
		windowRound(t, client, server, toServer, toClient, 256)
		windowRound(t, client, server, toServer, toClient, 16)
	}
	// The least of three rounds each: a round in which the receiver's window
	// update falls allocates that update's queue slot and history array.
	var small, large uint64
	var smallBlocks, largeBlocks int
	for i := range 3 {
		s, sb := windowRound(t, client, server, toServer, toClient, 16)
		l, lb := windowRound(t, client, server, toServer, toClient, 256)
		if i == 0 || s < small {
			small, smallBlocks = s, sb
		}
		if i == 0 || l < large {
			large, largeBlocks = l, lb
		}
	}
	if want := small + uint64(largeBlocks-smallBlocks); large > want {
		t.Errorf("a 256-packet window allocates %d times, a 16-packet window %d: want at most %d",
			large, small, want)
	}
}
