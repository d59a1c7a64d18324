package squic

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// Packet types.
const (
	ptInitial = 0x01 // client hello: plaintext, carries client ephemeral key
	ptHello   = 0x02 // server hello: plaintext, carries server key + signature
	ptOneRTT  = 0x03 // protected application packet
)

// headerLen is the fixed packet header: type(1) + connID(8) + pktnum(8).
const headerLen = 17

// aeadOverhead is the GCM tag size.
const aeadOverhead = 16

// Frame types inside OneRTT packets.
const (
	ftPadding       = 0x00
	ftPing          = 0x01
	ftAck           = 0x02
	ftStream        = 0x04
	ftMaxStreamData = 0x05
	ftClose         = 0x07
	ftHandshakeDone = 0x08
)

// wire errors
var (
	errTruncatedPacket = errors.New("squic: truncated packet")
	errUnknownFrame    = errors.New("squic: unknown frame type")
)

// header is the plaintext packet header.
type header struct {
	ptype  byte
	connID uint64
	pktNum uint64
}

func (h header) append(buf []byte) []byte {
	buf = append(buf, h.ptype)
	buf = binary.BigEndian.AppendUint64(buf, h.connID)
	buf = binary.BigEndian.AppendUint64(buf, h.pktNum)
	return buf
}

func parseHeader(buf []byte) (header, []byte, error) {
	if len(buf) < headerLen {
		return header{}, nil, errTruncatedPacket
	}
	return header{
		ptype:  buf[0],
		connID: binary.BigEndian.Uint64(buf[1:9]),
		pktNum: binary.BigEndian.Uint64(buf[9:17]),
	}, buf[headerLen:], nil
}

// frame is the interface of all OneRTT frames.
type frame interface {
	append(buf []byte) []byte
	// size is the encoded length, len(f.append(nil)), computed without
	// encoding.
	size() int
	// retransmittable reports whether loss of this frame requires resending.
	retransmittable() bool
}

// ackRange is a closed interval of acknowledged packet numbers.
type ackRange struct{ lo, hi uint64 }

// ackFrame acknowledges received packet numbers.
type ackFrame struct {
	ranges []ackRange // ascending, non-overlapping
}

func (f *ackFrame) retransmittable() bool { return false }

func (f *ackFrame) size() int {
	n := 1 + uvarintLen(uint64(len(f.ranges)))
	for _, r := range f.ranges {
		n += uvarintLen(r.lo) + uvarintLen(r.hi-r.lo)
	}
	return n
}

func (f *ackFrame) append(buf []byte) []byte {
	buf = append(buf, ftAck)
	buf = binary.AppendUvarint(buf, uint64(len(f.ranges)))
	for _, r := range f.ranges {
		buf = binary.AppendUvarint(buf, r.lo)
		buf = binary.AppendUvarint(buf, r.hi-r.lo)
	}
	return buf
}

// streamFrame carries application data.
type streamFrame struct {
	id     uint64
	offset uint64
	fin    bool
	data   []byte
}

func (f *streamFrame) retransmittable() bool { return true }

func (f *streamFrame) size() int {
	n := len(f.data)
	return 2 + uvarintLen(f.id) + uvarintLen(f.offset) + uvarintLen(uint64(n)) + n
}

func (f *streamFrame) append(buf []byte) []byte {
	buf = append(buf, ftStream)
	flags := byte(0)
	if f.fin {
		flags = 1
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, f.id)
	buf = binary.AppendUvarint(buf, f.offset)
	buf = binary.AppendUvarint(buf, uint64(len(f.data)))
	buf = append(buf, f.data...)
	return buf
}

// splitStreamFrame cuts f into a head that encodes within budget bytes and
// a tail carrying the remainder (and the FIN, if any). A requeued stream
// frame can exceed the CURRENT path's per-packet budget when the connection
// was re-pathed under it — sent whole, the datagram would exceed the new
// path's MTU and be dropped by the first link, turning every retransmission
// into the same black hole. nil,nil means no split is possible (budget too
// small for even one data byte) or needed (f already fits).
func splitStreamFrame(f *streamFrame, budget int) (head, tail *streamFrame) {
	overhead := f.size() - len(f.data)
	// Leave headroom for the tail's offset varint growing and the head's
	// length varint; the head is guaranteed to encode within budget.
	n := budget - overhead - 4
	if n <= 0 || n >= len(f.data) {
		return nil, nil
	}
	head = &streamFrame{id: f.id, offset: f.offset, data: f.data[:n]}
	tail = &streamFrame{id: f.id, offset: f.offset + uint64(n), fin: f.fin, data: f.data[n:]}
	return head, tail
}

// maxStreamDataFrame raises the peer's send limit on one stream.
type maxStreamDataFrame struct {
	id  uint64
	max uint64
}

func (f *maxStreamDataFrame) retransmittable() bool { return true }

func (f *maxStreamDataFrame) size() int { return 1 + uvarintLen(f.id) + uvarintLen(f.max) }

func (f *maxStreamDataFrame) append(buf []byte) []byte {
	buf = append(buf, ftMaxStreamData)
	buf = binary.AppendUvarint(buf, f.id)
	buf = binary.AppendUvarint(buf, f.max)
	return buf
}

// closeFrame terminates the connection.
type closeFrame struct {
	code   uint64
	reason string
}

func (f *closeFrame) retransmittable() bool { return false }

func (f *closeFrame) size() int {
	return 1 + uvarintLen(f.code) + uvarintLen(uint64(len(f.reason))) + len(f.reason)
}

func (f *closeFrame) append(buf []byte) []byte {
	buf = append(buf, ftClose)
	buf = binary.AppendUvarint(buf, f.code)
	buf = binary.AppendUvarint(buf, uint64(len(f.reason)))
	buf = append(buf, f.reason...)
	return buf
}

// pingFrame elicits an ACK.
type pingFrame struct{}

func (pingFrame) retransmittable() bool    { return true }
func (pingFrame) size() int                { return 1 }
func (pingFrame) append(buf []byte) []byte { return append(buf, ftPing) }

// handshakeDoneFrame confirms the handshake to the client.
type handshakeDoneFrame struct{}

func (handshakeDoneFrame) retransmittable() bool    { return true }
func (handshakeDoneFrame) size() int                { return 1 }
func (handshakeDoneFrame) append(buf []byte) []byte { return append(buf, ftHandshakeDone) }

// frameScratch is the reusable decode target of parseFrames: the frame list
// and the stream and ack frames it points into. A connection keeps one and
// reuses it for every packet under its lock, so decoding a packet allocates
// nothing once the scratch has grown to the packet's shape.
type frameScratch struct {
	frames  []frame
	streams []streamFrame
	acks    []ackFrame
}

// parseFrames decodes the frame sequence of a decrypted OneRTT payload into
// sc. The returned frames point into sc and are valid until the next
// parseFrames with the same scratch. Stream frame data aliases buf, which on
// the receive path is the leased wire buffer decrypted in place: it is valid
// only until the packet's handler returns, so the stream copies the bytes it
// keeps (recvBuf, out-of-order chunks) and no frame may outlive the call.
func parseFrames(buf []byte, sc *frameScratch) ([]frame, error) {
	out := sc.frames[:0]
	sc.streams = sc.streams[:0]
	sc.acks = sc.acks[:0]
	for len(buf) > 0 {
		ft := buf[0]
		buf = buf[1:]
		switch ft {
		case ftPadding:
			// skip
		case ftPing:
			out = append(out, pingFrame{})
		case ftHandshakeDone:
			out = append(out, handshakeDoneFrame{})
		case ftAck:
			n, rest, err := readUvarint(buf)
			if err != nil {
				return nil, err
			}
			buf = rest
			if n > 1024 {
				return nil, fmt.Errorf("squic: ack with %d ranges", n)
			}
			f := sc.nextAck()
			for i := uint64(0); i < n; i++ {
				lo, rest, err := readUvarint(buf)
				if err != nil {
					return nil, err
				}
				span, rest2, err := readUvarint(rest)
				if err != nil {
					return nil, err
				}
				buf = rest2
				f.ranges = append(f.ranges, ackRange{lo: lo, hi: lo + span})
			}
			out = append(out, f)
		case ftStream:
			if len(buf) < 1 {
				return nil, errTruncatedPacket
			}
			fin := buf[0]&1 != 0
			buf = buf[1:]
			id, rest, err := readUvarint(buf)
			if err != nil {
				return nil, err
			}
			offset, rest2, err := readUvarint(rest)
			if err != nil {
				return nil, err
			}
			length, rest3, err := readUvarint(rest2)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest3)) < length {
				return nil, errTruncatedPacket
			}
			sc.streams = append(sc.streams, streamFrame{id: id, offset: offset, fin: fin, data: rest3[:length:length]})
			buf = rest3[length:]
			out = append(out, &sc.streams[len(sc.streams)-1])
		case ftMaxStreamData:
			id, rest, err := readUvarint(buf)
			if err != nil {
				return nil, err
			}
			max, rest2, err := readUvarint(rest)
			if err != nil {
				return nil, err
			}
			buf = rest2
			out = append(out, &maxStreamDataFrame{id: id, max: max})
		case ftClose:
			code, rest, err := readUvarint(buf)
			if err != nil {
				return nil, err
			}
			rl, rest2, err := readUvarint(rest)
			if err != nil {
				return nil, err
			}
			if uint64(len(rest2)) < rl {
				return nil, errTruncatedPacket
			}
			out = append(out, &closeFrame{code: code, reason: string(rest2[:rl])})
			buf = rest2[rl:]
		default:
			return nil, fmt.Errorf("%w 0x%02x", errUnknownFrame, ft)
		}
	}
	sc.frames = out
	return out, nil
}

// nextAck returns the scratch's next ack frame, its ranges emptied but their
// backing array kept.
func (sc *frameScratch) nextAck() *ackFrame {
	if len(sc.acks) < cap(sc.acks) {
		sc.acks = sc.acks[:len(sc.acks)+1]
	} else {
		sc.acks = append(sc.acks, ackFrame{})
	}
	f := &sc.acks[len(sc.acks)-1]
	f.ranges = f.ranges[:0]
	return f
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(buf)
	if n <= 0 {
		return 0, nil, errTruncatedPacket
	}
	return v, buf[n:], nil
}

// uvarintLen is the length of binary.AppendUvarint's encoding of x: one
// byte per started 7 bits, at least one.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// initialPayload encodes the Initial packet body.
func initialPayload(clientPub []byte, serverName string) []byte {
	buf := make([]byte, 0, 32+1+len(serverName))
	buf = append(buf, clientPub...)
	buf = append(buf, byte(len(serverName)))
	buf = append(buf, serverName...)
	return buf
}

func parseInitialPayload(buf []byte) (clientPub []byte, serverName string, err error) {
	if len(buf) < 33 {
		return nil, "", errTruncatedPacket
	}
	clientPub = buf[:32]
	n := int(buf[32])
	if len(buf) < 33+n {
		return nil, "", errTruncatedPacket
	}
	return clientPub, string(buf[33 : 33+n]), nil
}

// helloPayload encodes the server Hello body.
func helloPayload(serverPub, sig []byte) []byte {
	buf := make([]byte, 0, 32+2+len(sig))
	buf = append(buf, serverPub...)
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(sig)))
	buf = append(buf, sig...)
	return buf
}

func parseHelloPayload(buf []byte) (serverPub, sig []byte, err error) {
	if len(buf) < 34 {
		return nil, nil, errTruncatedPacket
	}
	serverPub = buf[:32]
	n := int(binary.BigEndian.Uint16(buf[32:34]))
	if len(buf) < 34+n {
		return nil, nil, errTruncatedPacket
	}
	return serverPub, buf[34 : 34+n], nil
}
