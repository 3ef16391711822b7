package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/idr"
)

// raceEnabled reports whether the test binary was built with -race
// (race_test.go sets it).
var raceEnabled bool

func mustMarshal(t *testing.T, m Message) []byte {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m, err)
	}
	return b
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b, err := Marshal(m)
	if err != nil {
		t.Fatalf("Marshal(%v): %v", m, err)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	return out
}

func TestKeepaliveRoundTrip(t *testing.T) {
	m := roundTrip(t, Keepalive{})
	if m.Type() != MsgKeepalive {
		t.Fatalf("type = %v", m.Type())
	}
	b, _ := Marshal(Keepalive{})
	if len(b) != HeaderLen {
		t.Fatalf("keepalive length = %d, want %d", len(b), HeaderLen)
	}
}

func TestOpenRoundTrip2Byte(t *testing.T) {
	in := Open{
		AS:           64500,
		HoldTimeSecs: 90,
		ID:           idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1")),
	}
	out := roundTrip(t, in).(Open)
	if out.AS != in.AS || out.HoldTimeSecs != in.HoldTimeSecs || out.ID != in.ID {
		t.Fatalf("round trip: %+v -> %+v", in, out)
	}
}

func TestOpenRoundTrip4Byte(t *testing.T) {
	in := Open{
		AS:           400000, // needs 4 octets
		HoldTimeSecs: 180,
		ID:           idr.RouterIDFromAddr(netip.MustParseAddr("10.9.8.7")),
	}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// The 2-octet field must carry AS_TRANS.
	if got := uint16(b[HeaderLen+1])<<8 | uint16(b[HeaderLen+2]); got != ASTrans {
		t.Fatalf("wire My-AS = %d, want AS_TRANS", got)
	}
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if out.(Open).AS != 400000 {
		t.Fatalf("decoded AS = %v", out.(Open).AS)
	}
}

// openBytes is the wire OPEN a speaker of AS 64500 sends when it
// advertises more than this package does: an unknown optional
// parameter type, then one capabilities parameter packing
// Route-Refresh, Four-Octet-AS and an unknown code together.
var openBytes = func() []byte {
	params := []byte{
		9, 2, 0xAB, 0xCD, // unknown parameter type 9
		2, 12, 2, 0, CapFourOctetAS, 4, 0, 0, 0xFB, 0xF4, 70, 2, 1, 2,
	}
	body := append([]byte{Version, 0xFB, 0xF4, 0, 90, 172, 16, 0, 1, byte(len(params))}, params...)
	return frame(MsgOpen, body)
}()

// frame puts a header in front of body.
func frame(typ MsgType, body []byte) []byte {
	b := bytes.Repeat([]byte{0xFF}, MarkerLen)
	b = append(b, byte((HeaderLen+len(body))>>8), byte(HeaderLen+len(body)), byte(typ))
	return append(b, body...)
}

// TestOpenExtraCapabilities decodes an OPEN from a speaker that
// advertises capabilities this package does not: they are skipped, the
// Four-Octet-AS one among them is read, and the OPEN re-encodes to the
// one body this package writes.
func TestOpenExtraCapabilities(t *testing.T) {
	m, err := Unmarshal(openBytes)
	if err != nil {
		t.Fatal(err)
	}
	want := Open{AS: 64500, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1"))}
	if m != want {
		t.Fatalf("decoded %+v, want %+v", m, want)
	}
	if b := mustMarshal(t, m); bytes.Equal(b, openBytes) || !bytes.Equal(b, mustMarshal(t, want)) {
		t.Fatalf("re-encoded as %x", b)
	}
	bad := slices.Clone(openBytes)
	bad[HeaderLen+10+4+5] = 3 // the Four-Octet-AS capability's length
	if _, err := Unmarshal(bad); err == nil {
		t.Fatal("a Four-Octet-AS capability of 3 bytes decoded")
	}
}

// TestOpenBytes pins what an OPEN looks like on the wire, for an ASN
// that fits the 2-octet field and one that needs AS_TRANS.
func TestOpenBytes(t *testing.T) {
	id := idr.RouterIDFromAddr(netip.MustParseAddr("10.9.8.7"))
	marker := bytes.Repeat([]byte{0xFF}, MarkerLen)
	for _, tc := range []struct {
		as   idr.ASN
		body []byte
	}{
		{64500, []byte{4, 0xFB, 0xF4, 0, 180, 10, 9, 8, 7, 8, 2, 6, 65, 4, 0, 0, 0xFB, 0xF4}},
		{400000, []byte{4, 0x5B, 0xA0, 0, 180, 10, 9, 8, 7, 8, 2, 6, 65, 4, 0, 0x06, 0x1A, 0x80}},
	} {
		want := append(append(slices.Clone(marker), 0, 37, 1), tc.body...)
		if got := mustMarshal(t, Open{AS: tc.as, HoldTimeSecs: 180, ID: id}); !bytes.Equal(got, want) {
			t.Errorf("AS %v: OPEN is %x, want %x", tc.as, got, want)
		}
	}
}

// TestOpenAppendAllocatesNothing pins the OPEN path: into a buffer with
// room an OPEN is written in place, and into one without it costs the
// frame and nothing else.
func TestOpenAppendAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's build allocates in slices.Grow")
	}
	var m Message = Open{AS: 400000, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.MustParseAddr("10.9.8.7"))}
	buf := make([]byte, 1, 64)
	if got := testing.AllocsPerRun(100, func() { _, _ = Append(buf, m) }); got != 0 {
		t.Errorf("Append of an OPEN into a buffer with room allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _, _ = Marshal(m) }); got != 1 {
		t.Errorf("Marshal of an OPEN allocates %v times, want 1", got)
	}
}

func TestOpenBadHoldTime(t *testing.T) {
	if _, err := Marshal(Open{AS: 1, HoldTimeSecs: 2}); err == nil {
		t.Fatal("hold time 2 should fail to marshal")
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	in := Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}}
	out := roundTrip(t, in).(Notification)
	if out.Code != in.Code || out.Subcode != in.Subcode || !bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip: %+v -> %+v", in, out)
	}
	if out.Error() == "" || out.String() == "" {
		t.Fatal("Notification should render")
	}
}

func med(v uint32) *uint32 { return &v }

// fullUpdate and seqUpdate are also seeds of FuzzWireRoundTrip (see
// corpus).
var fullUpdate = Update{
	Withdrawn: []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("192.168.4.0/30"),
	},
	Attrs: PathAttrs{
		Origin:    OriginEGP,
		ASPath:    NewASPath(65001, 65002, 400000),
		NextHop:   netip.MustParseAddr("100.64.0.1"),
		MED:       med(77),
		LocalPref: med(200),
	},
	NLRI: []netip.Prefix{netip.MustParsePrefix("10.2.3.0/24")},
}

func TestUpdateRoundTripFull(t *testing.T) {
	in := fullUpdate
	out := roundTrip(t, in).(Update)
	if len(out.Withdrawn) != 2 || out.Withdrawn[0] != in.Withdrawn[0] || out.Withdrawn[1] != in.Withdrawn[1] {
		t.Fatalf("withdrawn = %v", out.Withdrawn)
	}
	if len(out.NLRI) != 1 || out.NLRI[0] != in.NLRI[0] {
		t.Fatalf("nlri = %v", out.NLRI)
	}
	if !out.Attrs.Equal(in.Attrs) {
		t.Fatalf("attrs: %s != %s", out.Attrs, in.Attrs)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	in := Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	out := roundTrip(t, in).(Update)
	if len(out.Withdrawn) != 1 || len(out.NLRI) != 0 {
		t.Fatalf("round trip: %+v", out)
	}
}

func TestUpdateEmptyPathOriginated(t *testing.T) {
	// A locally-originated route announced before eBGP prepending has
	// an empty AS_PATH, which must round-trip.
	in := Update{
		Attrs: PathAttrs{
			Origin:  OriginIGP,
			NextHop: netip.MustParseAddr("100.64.0.2"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
	out := roundTrip(t, in).(Update)
	if len(out.Attrs.ASPath) != 0 {
		t.Fatalf("path = %v", out.Attrs.ASPath)
	}
}

var seqUpdate = Update{
	Attrs: PathAttrs{
		Origin:  OriginIncomplete,
		ASPath:  NewASPath(1, 2, 7, 8, 9),
		NextHop: netip.MustParseAddr("1.2.3.4"),
	},
	NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
}

// TestUpdateASSetRefused: an AS_PATH with an AS_SET segment, leading,
// trailing or alone, is a Malformed AS_PATH (3/11).
func TestUpdateASSetRefused(t *testing.T) {
	for name, b := range map[string][]byte{
		"trailing set": pathUpdate(segment(asSequence, 1, 2), segment(1, 7, 8, 9)),
		"leading set":  pathUpdate(segment(1, 7), segment(asSequence, 1, 2)),
		"set alone":    pathUpdate(segment(1, 7, 8)),
	} {
		_, err := Unmarshal(b)
		var de *DecodeError
		if !errors.As(err, &de) || de.Code != NotifUpdateMessageError || de.Subcode != 11 {
			t.Errorf("%s: decoded with error %v, want Malformed AS_PATH", name, err)
		}
	}
}

// TestUpdateSequencesJoin: consecutive AS_SEQUENCE segments decode as
// one path, which encodes as one segment.
func TestUpdateSequencesJoin(t *testing.T) {
	m, err := Unmarshal(pathUpdate(segment(asSequence, 1, 2), segment(asSequence, 3), segment(asSequence, 4, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.(Update).Attrs.ASPath; !got.Equal(NewASPath(1, 2, 3, 4, 5)) {
		t.Fatalf("path = %v, want 1 2 3 4 5", got)
	}
	if b := mustMarshal(t, m); !bytes.Equal(b, pathUpdate(segment(asSequence, 1, 2, 3, 4, 5))) {
		t.Fatalf("re-encoded as %x, want one segment", b)
	}
}

// TestLongPathRoundTrip: a path of more than 255 ASNs goes out as full
// AS_SEQUENCE segments and a remainder, and comes back whole.
func TestLongPathRoundTrip(t *testing.T) {
	for _, n := range []int{254, 255, 256, 510, 511} {
		in := Update{Attrs: PathAttrs{ASPath: longPath(n), NextHop: seqUpdate.Attrs.NextHop}, NLRI: seqUpdate.NLRI}
		b := mustMarshal(t, in)
		var segs [][]byte
		for p := in.Attrs.ASPath; len(p) > 0; p = p[min(len(p), 255):] {
			segs = append(segs, segment(asSequence, p[:min(len(p), 255)]...))
		}
		if want := pathUpdate(segs...); !bytes.Equal(b, want) {
			t.Errorf("%d ASNs encode as %x, want %d segments: %x", n, b, len(segs), want)
		}
		out := roundTrip(t, in).(Update)
		if !out.Attrs.ASPath.Equal(in.Attrs.ASPath) {
			t.Errorf("%d ASNs come back as %d", n, len(out.Attrs.ASPath))
		}
	}
}

// TestUnmarshalUpdateReusesPrefixesNotAttrs pins what a receiver that
// decodes every UPDATE into one Update may rely on: the prefix lists
// are overwritten in the storage they had (one allocation for a
// session's lifetime), the attribute slices are new every time (the
// last message's stay intact for whoever installed them), and an
// announcement-free UPDATE after an announcing one leaves no NLRI
// behind.
func TestUnmarshalUpdateReusesPrefixesNotAttrs(t *testing.T) {
	first, second := mustMarshal(t, fullUpdate), mustMarshal(t, seqUpdate)
	var u Update
	if err := UnmarshalUpdate(first, &u); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(u, fullUpdate) {
		t.Fatalf("decoded %+v, want %+v", u, fullUpdate)
	}
	nlri, kept := &u.NLRI[0], u.Attrs
	if err := UnmarshalUpdate(second, &u); err != nil {
		t.Fatal(err)
	}
	if !sameMessage(u, seqUpdate) || len(u.Withdrawn) != 0 {
		t.Fatalf("decoded %+v into a used Update, want %+v", u, seqUpdate)
	}
	if &u.NLRI[0] != nlri {
		t.Error("the second decode did not reuse the NLRI storage of the first")
	}
	if !kept.Equal(fullUpdate.Attrs) {
		t.Errorf("the second decode changed the first's attributes to %v", kept)
	}
	plain := mustMarshal(t, Update{Attrs: PathAttrs{ASPath: NewASPath(1, 2, 3), NextHop: fullUpdate.Attrs.NextHop}, NLRI: seqUpdate.NLRI})
	if got := testing.AllocsPerRun(100, func() { _ = UnmarshalUpdate(plain, &u) }); got != 1 {
		t.Errorf("a decode into a used Update allocates %v times, want 1: the AS path", got)
	}
	withdraw := mustMarshal(t, Update{Withdrawn: fullUpdate.Withdrawn})
	if err := UnmarshalUpdate(withdraw, &u); err != nil || len(u.NLRI) != 0 || !slices.Equal(u.Withdrawn, fullUpdate.Withdrawn) {
		t.Fatalf("withdrawal decoded into a used Update as %+v (%v)", u, err)
	}
	if err := UnmarshalUpdate(mustMarshal(t, Keepalive{}), &u); err == nil {
		t.Error("UnmarshalUpdate accepted a KEEPALIVE")
	}
	if PeekType(first) != MsgUpdate || PeekType(first[:HeaderLen-1]) != 0 {
		t.Errorf("PeekType = %v on an UPDATE, %v on a truncated header", PeekType(first), PeekType(first[:HeaderLen-1]))
	}
}

func TestUpdateMissingMandatoryAttr(t *testing.T) {
	// NLRI without NEXT_HOP must be rejected on decode.
	in := Update{
		Attrs: PathAttrs{Origin: OriginIGP, NextHop: netip.MustParseAddr("1.1.1.1")},
		NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
	}
	b, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	// Surgically remove the NEXT_HOP attribute (flags 0x40, type 3,
	// len 4, value 4): find it and splice it out, fixing lengths.
	attrStart := HeaderLen + 2 + 0 + 2
	body := b[attrStart:]
	idx := bytes.Index(body, []byte{flagTransitive, AttrNextHop, 4})
	if idx < 0 {
		t.Fatal("could not locate NEXT_HOP bytes")
	}
	cut := append([]byte(nil), b[:attrStart+idx]...)
	cut = append(cut, b[attrStart+idx+7:]...)
	// Fix total length and attribute length.
	cut[MarkerLen] = byte(len(cut) >> 8)
	cut[MarkerLen+1] = byte(len(cut))
	alenOff := HeaderLen + 2
	alen := int(cut[alenOff])<<8 | int(cut[alenOff+1])
	alen -= 7
	cut[alenOff] = byte(alen >> 8)
	cut[alenOff+1] = byte(alen)
	_, err = Unmarshal(cut)
	var de *DecodeError
	if !errors.As(err, &de) || de.Code != NotifUpdateMessageError {
		t.Fatalf("want update decode error, got %v", err)
	}
}

func TestUnmarshalHeaderErrors(t *testing.T) {
	good, _ := Marshal(Keepalive{})

	short := good[:10]
	if _, err := Unmarshal(short); err == nil {
		t.Fatal("short message should fail")
	}

	badMarker := append([]byte(nil), good...)
	badMarker[0] = 0
	if _, err := Unmarshal(badMarker); err == nil {
		t.Fatal("bad marker should fail")
	}

	badLen := append([]byte(nil), good...)
	badLen[MarkerLen] = 0xFF
	badLen[MarkerLen+1] = 0xFF
	if _, err := Unmarshal(badLen); err == nil {
		t.Fatal("bad length should fail")
	}

	badType := append([]byte(nil), good...)
	badType[MarkerLen+2] = 9
	if _, err := Unmarshal(badType); err == nil {
		t.Fatal("unknown type should fail")
	}

	withBody := append([]byte(nil), good...)
	withBody = append(withBody, 1)
	withBody[MarkerLen+1] = byte(len(withBody))
	if _, err := Unmarshal(withBody); err == nil {
		t.Fatal("keepalive with body should fail")
	}
}

func TestUnmarshalPrefixValidation(t *testing.T) {
	// Prefix with host bits set beyond the mask must be rejected.
	u := Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}}
	b, err := Marshal(u)
	if err != nil {
		t.Fatal(err)
	}
	// The withdrawn encoding is [8, 10]; corrupt the length to 4 so
	// the 10 in the address has host bits set (10 & 0xF0 != 10... it
	// is actually 10 = 0b00001010, /4 keeps top 4 bits = 0).
	b[HeaderLen+2] = 4
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("host bits beyond mask should fail")
	}
	// Prefix length > 32.
	b[HeaderLen+2] = 33
	if _, err := Unmarshal(b); err == nil {
		t.Fatal("prefix length 33 should fail")
	}
}

func TestMarshalRejectsIPv6(t *testing.T) {
	u := Update{NLRI: []netip.Prefix{netip.MustParsePrefix("2001:db8::/32")},
		Attrs: PathAttrs{Origin: OriginIGP, NextHop: netip.MustParseAddr("1.1.1.1")}}
	if _, err := Marshal(u); err == nil {
		t.Fatal("IPv6 NLRI should fail (IPv4 unicast only)")
	}
	u2 := Update{NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		Attrs: PathAttrs{Origin: OriginIGP, NextHop: netip.MustParseAddr("::1")}}
	if _, err := Marshal(u2); err == nil {
		t.Fatal("IPv6 next hop should fail")
	}
}

func randPrefix(rng *rand.Rand) netip.Prefix {
	bits := rng.Intn(33)
	var b4 [4]byte
	rng.Read(b4[:])
	return netip.PrefixFrom(netip.AddrFrom4(b4), bits).Masked()
}

// Property: any well-formed Update round-trips byte-exactly through
// Marshal + Unmarshal.
func TestPropertyUpdateRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 300; i++ {
		var u Update
		for n := rng.Intn(4); n > 0; n-- {
			u.Withdrawn = append(u.Withdrawn, randPrefix(rng))
		}
		for n := rng.Intn(4); n > 0; n-- {
			u.NLRI = append(u.NLRI, randPrefix(rng))
		}
		if len(u.NLRI) > 0 {
			var path ASPath
			for a := []int{0, 1, 3, 255, 256, 600}[rng.Intn(6)]; a > 0; a-- {
				path = append(path, idr.ASN(rng.Uint32()))
			}
			var nh [4]byte
			rng.Read(nh[:])
			u.Attrs = PathAttrs{
				Origin:  Origin(rng.Intn(3)),
				ASPath:  path,
				NextHop: netip.AddrFrom4(nh),
			}
			if rng.Intn(2) == 0 {
				u.Attrs.MED = med(rng.Uint32())
			}
			if rng.Intn(2) == 0 {
				u.Attrs.LocalPref = med(rng.Uint32())
			}
		}
		b, err := Marshal(u)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("case %d: unmarshal: %v", i, err)
		}
		b2, err := Marshal(got)
		if err != nil {
			t.Fatalf("case %d: re-marshal: %v", i, err)
		}
		if !bytes.Equal(b, b2) {
			t.Fatalf("case %d: round trip not byte-stable", i)
		}
	}
}

// Property: Unmarshal never panics on arbitrary input.
func TestPropertyUnmarshalNoPanic(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Unmarshal panicked")
			}
		}()
		_, _ = Unmarshal(data)
		// Also try with a valid header stapled on.
		framed := make([]byte, 0, HeaderLen+len(data))
		for i := 0; i < MarkerLen; i++ {
			framed = append(framed, 0xFF)
		}
		total := HeaderLen + len(data)
		if total > MaxMsgLen {
			return true
		}
		framed = append(framed, byte(total>>8), byte(total), byte(MsgUpdate))
		framed = append(framed, data...)
		_, _ = Unmarshal(framed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestASPathHelpers(t *testing.T) {
	p := NewASPath(1, 2, 3)
	if len(p) != 3 || !p.Contains(2) || p.Contains(9) {
		t.Fatal("basic helpers wrong")
	}
	p2 := p.Prepend(9)
	if len(p2) != 4 || !p.Equal(NewASPath(1, 2, 3)) {
		t.Fatal("Prepend must not mutate")
	}
	first, ok := p2.First()
	if !ok || first != 9 {
		t.Fatalf("First = %v", first)
	}
	origin, ok := p2.Origin()
	if !ok || origin != 3 {
		t.Fatalf("Origin = %v", origin)
	}
	var empty ASPath
	if _, ok := empty.First(); ok {
		t.Fatal("empty path First should be false")
	}
	if _, ok := empty.Origin(); ok {
		t.Fatal("empty path Origin should be false")
	}
	if got := empty.Prepend(5); !got.Equal(NewASPath(5)) {
		t.Fatalf("Prepend onto the empty path = %v", got)
	}
	if NewASPath() != nil || empty.Clone() != nil {
		t.Fatal("an empty NewASPath or a clone of nil is not nil")
	}
	if p2.String() != "9 1 2 3" {
		t.Fatalf("String = %q", p2.String())
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("clone should be equal")
	}
	if p.Equal(p2) {
		t.Fatal("different paths equal")
	}
}

func TestAttrsCloneIndependence(t *testing.T) {
	v := uint32(5)
	a := PathAttrs{ASPath: NewASPath(1, 2), MED: &v, LocalPref: med(6)}
	c := a.Clone()
	*c.MED = 9
	*c.LocalPref = 9
	c.ASPath[0] = 99
	if *a.MED != 5 || *a.LocalPref != 6 || a.ASPath[0] != 1 {
		t.Fatal("Clone shares memory with original")
	}
}

func TestTypeStrings(t *testing.T) {
	if MsgOpen.String() != "OPEN" || MsgType(9).String() == "" {
		t.Fatal("MsgType.String wrong")
	}
	if OriginIGP.String() != "IGP" || Origin(9).String() == "" {
		t.Fatal("Origin.String wrong")
	}
}

// withAttrs returns u's encoding with extra appended to its attribute
// block, lengths fixed up.
func withAttrs(u Update, extra ...byte) []byte {
	b, err := Marshal(u)
	if err != nil {
		panic(err)
	}
	at := HeaderLen + 2 + int(binary.BigEndian.Uint16(b[HeaderLen:]))
	alen := int(binary.BigEndian.Uint16(b[at:]))
	end := at + 2 + alen
	alen += len(extra)
	return frame(MsgUpdate, slices.Concat(b[HeaderLen:at], []byte{byte(alen >> 8), byte(alen)}, b[at+2:end], extra, b[end:]))
}

// unstoredAttrs are the attributes a conforming speaker may send and
// this package decodes without keeping: ATOMIC_AGGREGATE (well-known),
// AGGREGATOR and COMMUNITIES (optional transitive).
var unstoredAttrs = []byte{
	flagTransitive, AttrAtomicAggregate, 0,
	flagOptional | flagTransitive, 7, 8, 0, 6, 0x1A, 0x80, 172, 16, 0, 9,
	flagOptional | flagTransitive, 8, 8, 0xFD, 0xE9, 0, 7, 0xFF, 0xFF, 0xFF, 0x01,
}

// TestUnstoredAttributesSkipped decodes an UPDATE carrying attributes
// this package does not keep: it means what the same UPDATE without
// them means, and re-encodes without them; ATOMIC_AGGREGATE stays
// well-known, so its length and uniqueness are still checked.
func TestUnstoredAttributesSkipped(t *testing.T) {
	m, err := Unmarshal(withAttrs(seqUpdate, unstoredAttrs...))
	if err != nil {
		t.Fatal(err)
	}
	if !sameMessage(m, seqUpdate) {
		t.Fatalf("decoded %+v, want %+v", m, seqUpdate)
	}
	if b := mustMarshal(t, m); !bytes.Equal(b, mustMarshal(t, seqUpdate)) {
		t.Fatalf("re-encoded as %x", b)
	}
	for name, extra := range map[string][]byte{
		"long ATOMIC_AGGREGATE":      {flagTransitive, AttrAtomicAggregate, 1, 0},
		"duplicate ATOMIC_AGGREGATE": {flagTransitive, AttrAtomicAggregate, 0, flagTransitive, AttrAtomicAggregate, 0},
		"well-known COMMUNITIES":     {flagTransitive, 8, 4, 0, 0, 0, 1},
		"truncated AGGREGATOR":       {flagOptional | flagTransitive, 7, 8, 0, 6},
	} {
		if _, err := Unmarshal(withAttrs(seqUpdate, extra...)); err == nil {
			t.Errorf("%s decoded", name)
		}
	}
}
