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

// frame is one OneRTT frame, held by value: queued, txFrames and the sent
// history each hold their own copy, never a pointer, so a frame has exactly
// one owner by construction and building one allocates nothing. Fields by
// kind:
//
//   - ftStream: id, val = offset, fin, data = payload (aliasing the send
//     block, or on receive the decrypted wire buffer);
//   - ftMaxStreamData: id, val = the new limit;
//   - ftClose: val = error code, data = reason;
//   - ftAck: data = the encoded range list (see appendAckRanges). Ranges
//     are never retransmitted, so they stay in the connection's scratch
//     (ackOut on send; on receive, rx.acks[id:val]) and out of the value;
//   - ftPing, ftHandshakeDone: no fields.
type frame struct {
	kind byte
	fin  bool
	id   uint64
	val  uint64
	data []byte
}

// retransmittable reports whether loss of the frame requires resending it.
func (f frame) retransmittable() bool {
	switch f.kind {
	case ftStream, ftMaxStreamData, ftPing, ftHandshakeDone:
		return true
	}
	return false
}

// size is the encoded length, len(f.append(nil)), computed without encoding.
func (f frame) size() int {
	n := len(f.data)
	switch f.kind {
	case ftStream:
		return 2 + uvarintLen(f.id) + uvarintLen(f.val) + uvarintLen(uint64(n)) + n
	case ftMaxStreamData:
		return 1 + uvarintLen(f.id) + uvarintLen(f.val)
	case ftClose:
		return 1 + uvarintLen(f.val) + uvarintLen(uint64(n)) + n
	}
	return 1 + n // ack; ping and handshake done carry no data
}

func (f frame) append(buf []byte) []byte {
	buf = append(buf, f.kind)
	switch f.kind {
	case ftStream:
		flags := byte(0)
		if f.fin {
			flags = 1
		}
		buf = append(buf, flags)
		buf = binary.AppendUvarint(buf, f.id)
		buf = binary.AppendUvarint(buf, f.val)
		buf = binary.AppendUvarint(buf, uint64(len(f.data)))
	case ftMaxStreamData:
		buf = binary.AppendUvarint(buf, f.id)
		return binary.AppendUvarint(buf, f.val)
	case ftClose:
		buf = binary.AppendUvarint(buf, f.val)
		buf = binary.AppendUvarint(buf, uint64(len(f.data)))
	}
	return append(buf, f.data...)
}

// ackRange is a closed interval of acknowledged packet numbers.
type ackRange struct{ lo, hi uint64 }

// appendAckRanges appends the body of an ack frame for rs (ascending,
// non-overlapping): the range count, then each range's low end and span.
func appendAckRanges(buf []byte, rs []ackRange) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for _, r := range rs {
		buf = binary.AppendUvarint(buf, r.lo)
		buf = binary.AppendUvarint(buf, r.hi-r.lo)
	}
	return buf
}

// splitStreamFrame cuts stream frame f into a head that encodes within
// budget bytes and a tail carrying the remainder (and the FIN, if any). A
// requeued stream frame can exceed the CURRENT path's per-packet budget when
// the connection was re-pathed under it — sent whole, the datagram would
// exceed the new path's MTU and be dropped by the first link, turning every
// retransmission into the same black hole. ok is false when no split is
// possible (budget too small for even one data byte) or needed (f already
// fits).
func splitStreamFrame(f frame, budget int) (head, tail frame, ok bool) {
	overhead := f.size() - len(f.data)
	// Leave headroom for the tail's offset varint growing and the head's
	// length varint; the head is guaranteed to encode within budget.
	n := budget - overhead - 4
	if n <= 0 || n >= len(f.data) {
		return frame{}, frame{}, false
	}
	head, tail = f, f
	head.fin, head.data = false, f.data[:n]
	tail.val, tail.data = f.val+uint64(n), f.data[n:]
	return head, tail, true
}

// frameScratch is the reusable decode target of parseFrames: the frame list
// and the ranges of its ack frames. A connection keeps one and reuses it for
// every packet under its lock, so decoding a packet allocates nothing once
// the scratch has grown to the packet's shape.
type frameScratch struct {
	frames []frame
	acks   []ackRange
}

// parseFrames decodes the frame sequence of a decrypted OneRTT payload into
// sc. The returned frames and the ack ranges they index are valid until the
// next parseFrames with the same scratch. Stream frame data aliases buf,
// which on the receive path is the leased wire buffer decrypted in place: it
// is valid only until the packet's handler returns, so the stream copies the
// bytes it keeps (recvBuf, out-of-order chunks) and no frame may outlive the
// call.
func parseFrames(buf []byte, sc *frameScratch) ([]frame, error) {
	out := sc.frames[:0]
	sc.acks = sc.acks[:0]
	for len(buf) > 0 {
		ft := buf[0]
		buf = buf[1:]
		switch ft {
		case ftPadding:
			// skip
		case ftPing, ftHandshakeDone:
			out = append(out, frame{kind: ft})
		case ftAck:
			body := buf
			n, rest, err := readUvarint(buf)
			if err != nil {
				return nil, err
			}
			buf = rest
			if n > 1024 {
				return nil, fmt.Errorf("squic: ack with %d ranges", n)
			}
			first := len(sc.acks)
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
				sc.acks = append(sc.acks, ackRange{lo: lo, hi: lo + span})
			}
			out = append(out, frame{kind: ftAck, id: uint64(first), val: uint64(len(sc.acks)),
				data: body[:len(body)-len(buf)]})
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
			out = append(out, frame{kind: ftStream, id: id, val: offset, fin: fin, data: rest3[:length:length]})
			buf = rest3[length:]
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
			out = append(out, frame{kind: ftMaxStreamData, id: id, val: max})
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
			out = append(out, frame{kind: ftClose, val: code, data: rest2[:rl:rl]})
			buf = rest2[rl:]
		default:
			return nil, fmt.Errorf("%w 0x%02x", errUnknownFrame, ft)
		}
	}
	sc.frames = out
	return out, nil
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
