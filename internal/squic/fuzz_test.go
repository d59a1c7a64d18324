package squic

import (
	"bytes"
	"slices"
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

// sameFrame reports whether a and b are the same frame value: equal fields
// and equal data bytes.
func sameFrame(a, b frame) bool {
	return a.kind == b.kind && a.fin == b.fin && a.id == b.id && a.val == b.val && bytes.Equal(a.data, b.data)
}

// FuzzParsePacket checks the squic wire decoders — header plus the OneRTT
// frame parser — for panic-freedom on arbitrary input, and that accepted
// frame sequences are stable under re-encoding: parse → append → parse →
// append must reproduce the same bytes, and the second parse the same frame
// values, each of which encodes in exactly size() bytes. (The first
// re-encode may differ from the input: padding is consumed without being
// represented, and varints are re-encoded minimally.)
func FuzzParsePacket(f *testing.F) {
	kinds := []frame{
		{kind: ftAck, data: appendAckRanges(nil, []ackRange{{lo: 1, hi: 3}, {lo: 7, hi: 7}})},
		{kind: ftStream, id: 4, val: 512, fin: true, data: []byte("hello squic")},
		{kind: ftMaxStreamData, id: 4, val: 1 << 20},
		{kind: ftPing},
		{kind: ftHandshakeDone},
		{kind: ftClose, val: 2, data: []byte("done")},
	}
	seed := appendFrames(kinds)
	hdr := header{ptype: ptOneRTT, connID: 0xdeadbeef, pktNum: 42}
	f.Add(hdr.append(nil))
	f.Add(append(hdr.append(nil), seed...))
	f.Add(seed)
	for _, k := range kinds {
		f.Add(k.append(nil))
	}
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
		if !slices.EqualFunc(frames, frames2, sameFrame) {
			t.Fatalf("re-parse changed the frame values:\n  first  %+v\n  second %+v", frames, frames2)
		}
		for _, f := range frames2 {
			if got, want := f.size(), len(f.append(nil)); got != want {
				t.Fatalf("kind 0x%02x size() = %d, encoding is %d bytes", f.kind, got, want)
			}
		}
	})
}
