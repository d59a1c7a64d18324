package squic

import (
	"bytes"
	"testing"
)

// appendFrames re-encodes a parsed frame sequence.
func appendFrames(frames []frame) []byte {
	var buf []byte
	for _, f := range frames {
		buf = f.append(buf)
	}
	return buf
}

// FuzzParsePacket checks the squic wire decoders — header plus the OneRTT
// frame parser — for panic-freedom on arbitrary input, and that accepted
// frame sequences are stable under re-encoding: parse → append → parse →
// append must reproduce the same bytes. (The first re-encode may differ from
// the input: padding is consumed without being represented, and varints are
// re-encoded minimally.)
func FuzzParsePacket(f *testing.F) {
	seed := appendFrames([]frame{
		&ackFrame{ranges: []ackRange{{lo: 1, hi: 3}, {lo: 7, hi: 7}}},
		&streamFrame{id: 4, offset: 512, fin: true, data: []byte("hello squic")},
		&maxStreamDataFrame{id: 4, max: 1 << 20},
		pingFrame{},
		handshakeDoneFrame{},
		&closeFrame{code: 2, reason: "done"},
	})
	hdr := header{ptype: ptOneRTT, connID: 0xdeadbeef, pktNum: 42}
	f.Add(hdr.append(nil))
	f.Add(append(hdr.append(nil), seed...))
	f.Add(seed)
	f.Add([]byte{ftPadding, ftPadding, ftPing})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, rest, err := parseHeader(data); err == nil {
			// The header must round-trip byte-for-byte.
			if got := h.append(nil); !bytes.Equal(got, data[:headerLen]) {
				t.Fatalf("header round trip diverged: %x != %x", got, data[:headerLen])
			}
			_ = rest
		}
		frames, err := parseFrames(data, &frameScratch{})
		if err != nil {
			return
		}
		enc1 := appendFrames(frames)
		frames2, err := parseFrames(enc1, &frameScratch{})
		if err != nil {
			t.Fatalf("parseFrames rejected its own re-encoding: %v", err)
		}
		enc2 := appendFrames(frames2)
		if !bytes.Equal(enc1, enc2) {
			t.Fatalf("re-encoding not stable:\n  first  %x\n  second %x", enc1, enc2)
		}
	})
}
