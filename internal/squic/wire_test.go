package squic

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	in := []frame{
		pingFrame{},
		handshakeDoneFrame{},
		&ackFrame{ranges: []ackRange{{lo: 1, hi: 4}, {lo: 9, hi: 9}}},
		&streamFrame{id: 4, offset: 1000, fin: true, data: []byte("hello")},
		&streamFrame{id: 1, offset: 0, data: []byte{}},
		&maxStreamDataFrame{id: 8, max: 1 << 30},
		&closeFrame{code: 7, reason: "bye"},
	}
	var buf []byte
	for _, f := range in {
		buf = f.append(buf)
	}
	out, err := parseFrames(buf)
	if err != nil {
		t.Fatal(err)
	}
	// The empty non-fin stream frame is kept by the parser; counts match.
	if len(out) != len(in) {
		t.Fatalf("parsed %d frames, want %d", len(out), len(in))
	}
	ack := out[2].(*ackFrame)
	if len(ack.ranges) != 2 || ack.ranges[0] != (ackRange{1, 4}) {
		t.Fatalf("ack ranges %+v", ack.ranges)
	}
	sf := out[3].(*streamFrame)
	if sf.id != 4 || sf.offset != 1000 || !sf.fin || !bytes.Equal(sf.data, []byte("hello")) {
		t.Fatalf("stream frame %+v", sf)
	}
	cf := out[6].(*closeFrame)
	if cf.code != 7 || cf.reason != "bye" {
		t.Fatalf("close frame %+v", cf)
	}
}

func TestParseFramesJunkNeverPanics(t *testing.T) {
	f := func(junk []byte) bool {
		_, _ = parseFrames(junk)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHeaderRoundTrip(t *testing.T) {
	h := header{ptype: ptOneRTT, connID: 0xdeadbeef, pktNum: 42}
	buf := h.append(nil)
	got, rest, err := parseHeader(append(buf, 0xAA))
	if err != nil {
		t.Fatal(err)
	}
	if got != h || len(rest) != 1 {
		t.Fatalf("got %+v rest %d", got, len(rest))
	}
	if _, _, err := parseHeader(buf[:10]); err == nil {
		t.Fatal("short header accepted")
	}
}

func TestRangeSet(t *testing.T) {
	var rs rangeSet
	for _, pn := range []uint64{5, 1, 2, 3, 10, 4} {
		rs.add(pn)
	}
	got := rs.ranges()
	want := []ackRange{{1, 5}, {10, 10}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("ranges %+v, want %+v", got, want)
	}
	if !rs.contains(3) || rs.contains(6) || !rs.contains(10) {
		t.Fatal("contains wrong")
	}
	rs.add(3) // duplicate is a no-op
	if len(rs.ranges()) != 2 {
		t.Fatal("duplicate add changed ranges")
	}
}

// naiveRanges computes the sorted disjoint ranges of a set of packet
// numbers by scanning every candidate.
func naiveRanges(set map[uint64]bool, limit uint64) []ackRange {
	var out []ackRange
	for pn := uint64(0); pn < limit; pn++ {
		if !set[pn] {
			continue
		}
		if n := len(out); n > 0 && out[n-1].hi+1 == pn {
			out[n-1].hi = pn
		} else {
			out = append(out, ackRange{lo: pn, hi: pn})
		}
	}
	return out
}

// TestRangeSetPropertyMatchesNaive checks the range set against a naive
// reference after every add, for in-order, reordered and duplicate-heavy
// packet-number streams: contains, the sorted disjoint ranges, and the
// 32-range cap of ranges() (the most recent 32).
func TestRangeSetPropertyMatchesNaive(t *testing.T) {
	const limit = 600
	rng := rand.New(rand.NewSource(11))
	inOrder := make([]uint64, 0, limit)
	for pn := uint64(0); pn < limit; pn++ {
		if rng.Intn(5) != 0 { // gaps, so several ranges exist
			inOrder = append(inOrder, pn)
		}
	}
	reordered := slices.Clone(inOrder)
	for i := range reordered { // local reordering within a window of 8
		j := min(len(reordered)-1, i+rng.Intn(8))
		reordered[i], reordered[j] = reordered[j], reordered[i]
	}
	duplicates := make([]uint64, 2000)
	for i := range duplicates {
		duplicates[i] = uint64(rng.Intn(200))
	}
	for name, stream := range map[string][]uint64{
		"in-order":   inOrder,
		"reordered":  reordered,
		"duplicates": duplicates,
	} {
		var rs rangeSet
		naive := make(map[uint64]bool)
		for i, pn := range stream {
			rs.add(pn)
			naive[pn] = true
			want := naiveRanges(naive, limit)
			if !slices.Equal(rs.rs, want) {
				t.Fatalf("%s: after add #%d (%d): ranges %v, want %v", name, i, pn, rs.rs, want)
			}
			capped := want[max(0, len(want)-32):]
			if got := rs.ranges(); !slices.Equal(got, capped) {
				t.Fatalf("%s: ranges() = %v, want the last 32 %v", name, got, capped)
			}
			for q := uint64(0); q < limit+8; q++ {
				if rs.contains(q) != naive[q] {
					t.Fatalf("%s: after add #%d: contains(%d) = %v, naive %v", name, i, q, rs.contains(q), naive[q])
				}
			}
		}
		if len(rs.rs) <= 32 && name != "duplicates" {
			t.Fatalf("%s: only %d ranges, the cap is not exercised", name, len(rs.rs))
		}
	}
}

func TestHandshakePayloads(t *testing.T) {
	pub := bytes.Repeat([]byte{7}, 32)
	ip := initialPayload(pub, "example.scion")
	gotPub, name, err := parseInitialPayload(ip)
	if err != nil || !bytes.Equal(gotPub, pub) || name != "example.scion" {
		t.Fatalf("initial round trip: %v %q", err, name)
	}
	if _, _, err := parseInitialPayload(ip[:20]); err == nil {
		t.Fatal("short initial accepted")
	}
	sig := bytes.Repeat([]byte{9}, 64)
	hp := helloPayload(pub, sig)
	gotPub2, gotSig, err := parseHelloPayload(hp)
	if err != nil || !bytes.Equal(gotPub2, pub) || !bytes.Equal(gotSig, sig) {
		t.Fatal("hello round trip failed")
	}
	if _, _, err := parseHelloPayload(hp[:33]); err == nil {
		t.Fatal("short hello accepted")
	}
}

func TestHKDFDeterministicAndDistinct(t *testing.T) {
	prk := hkdfExtract([]byte("salt"), []byte("ikm"))
	a := hkdfExpand(prk, "label-a", 16)
	b := hkdfExpand(prk, "label-a", 16)
	c := hkdfExpand(prk, "label-b", 16)
	if !bytes.Equal(a, b) {
		t.Fatal("expand not deterministic")
	}
	if bytes.Equal(a, c) {
		t.Fatal("distinct labels share keys")
	}
	long := hkdfExpand(prk, "x", 100)
	if len(long) != 100 {
		t.Fatalf("expand length %d", len(long))
	}
}

func TestDeriveKeysDirectionality(t *testing.T) {
	keys, err := deriveKeys([]byte("shared"), []byte("transcript"))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("secret")
	sealed := keys.clientSeal.Seal(nil, packetNonce(1), msg, nil)
	if _, err := keys.serverSeal.Open(nil, packetNonce(1), sealed, nil); err == nil {
		t.Fatal("server key opened client-sealed packet")
	}
	plain, err := keys.clientSeal.Open(nil, packetNonce(1), sealed, nil)
	if err != nil || !bytes.Equal(plain, msg) {
		t.Fatal("client seal round trip failed")
	}
}

func TestCertPool(t *testing.T) {
	id, err := NewIdentity("srv.example")
	if err != nil {
		t.Fatal(err)
	}
	pool := NewCertPool()
	pool.AddIdentity(id)
	tr := handshakeTranscript(1, []byte("c"), []byte("s"), "srv.example")
	sig := id.sign(tr)
	if err := pool.verify("srv.example", tr, sig); err != nil {
		t.Fatal(err)
	}
	if err := pool.verify("other.example", tr, sig); err == nil {
		t.Fatal("unknown server verified")
	}
	if err := pool.verify("srv.example", append(tr, 1), sig); err == nil {
		t.Fatal("tampered transcript verified")
	}
}
