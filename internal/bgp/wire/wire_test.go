package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/idr"
)

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

func TestOpenExtraCapabilities(t *testing.T) {
	in := Open{
		AS:           1,
		HoldTimeSecs: 30,
		Capabilities: []Capability{
			{Code: CapRouteRefresh, Value: nil},
			{Code: CapFourOctetAS, Value: []byte{9, 9, 9, 9}}, // dropped: implicit
		},
	}
	out := roundTrip(t, in).(Open)
	if len(out.Capabilities) != 1 || out.Capabilities[0].Code != CapRouteRefresh {
		t.Fatalf("capabilities = %+v", out.Capabilities)
	}
	if out.AS != 1 {
		t.Fatalf("AS = %v (user-provided four-octet cap must not override)", out.AS)
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

// fullUpdate, asSetUpdate and aggregatorUpdate are also seeds of
// FuzzWireRoundTrip (see corpus).
var fullUpdate = Update{
	Withdrawn: []netip.Prefix{
		netip.MustParsePrefix("10.1.0.0/16"),
		netip.MustParsePrefix("192.168.4.0/30"),
	},
	Attrs: PathAttrs{
		Origin:          OriginEGP,
		ASPath:          NewASPath(65001, 65002, 400000),
		NextHop:         netip.MustParseAddr("100.64.0.1"),
		MED:             med(77),
		LocalPref:       med(200),
		AtomicAggregate: true,
		Communities:     []Community{NewCommunity(65001, 7), CommunityNoExport},
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
	if out.Attrs.ASPath.Length() != 0 {
		t.Fatalf("path = %v", out.Attrs.ASPath)
	}
}

var asSetUpdate = Update{
	Attrs: PathAttrs{
		Origin: OriginIncomplete,
		ASPath: ASPath{
			{Type: ASSequence, ASNs: []idr.ASN{1, 2}},
			{Type: ASSet, ASNs: []idr.ASN{7, 8, 9}},
		},
		NextHop: netip.MustParseAddr("1.2.3.4"),
	},
	NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
}

func TestUpdateASSetRoundTrip(t *testing.T) {
	in := asSetUpdate
	out := roundTrip(t, in).(Update)
	if !out.Attrs.ASPath.Equal(in.Attrs.ASPath) {
		t.Fatalf("as path = %v", out.Attrs.ASPath)
	}
	if out.Attrs.ASPath.Length() != 3 { // 2 + 1 for the set
		t.Fatalf("path length = %d", out.Attrs.ASPath.Length())
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
	first, second := mustMarshal(t, fullUpdate), mustMarshal(t, asSetUpdate)
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
	if !sameMessage(u, asSetUpdate) || len(u.Withdrawn) != 0 {
		t.Fatalf("decoded %+v into a used Update, want %+v", u, asSetUpdate)
	}
	if &u.NLRI[0] != nlri {
		t.Error("the second decode did not reuse the NLRI storage of the first")
	}
	if !kept.Equal(fullUpdate.Attrs) {
		t.Errorf("the second decode changed the first's attributes to %v", kept)
	}
	plain := mustMarshal(t, Update{Attrs: PathAttrs{ASPath: NewASPath(1, 2, 3), NextHop: fullUpdate.Attrs.NextHop}, NLRI: asSetUpdate.NLRI})
	if got := testing.AllocsPerRun(100, func() { _ = UnmarshalUpdate(plain, &u) }); got != 2 {
		t.Errorf("a decode into a used Update allocates %v times, want 2: the AS path's segment and its ASNs", got)
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
			for s := rng.Intn(3); s > 0; s-- {
				seg := Segment{Type: ASSequence}
				if rng.Intn(4) == 0 {
					seg.Type = ASSet
				}
				for a := 1 + rng.Intn(4); a > 0; a-- {
					seg.ASNs = append(seg.ASNs, idr.ASN(rng.Uint32()))
				}
				path = append(path, seg)
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
			for c := rng.Intn(3); c > 0; c-- {
				u.Attrs.Communities = append(u.Attrs.Communities, Community(rng.Uint32()))
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
	if p.Length() != 3 || !p.Contains(2) || p.Contains(9) {
		t.Fatal("basic helpers wrong")
	}
	p2 := p.Prepend(9)
	if p2.Length() != 4 || p.Length() != 3 {
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
	// Prepend onto a leading AS_SET starts a new sequence.
	setPath := ASPath{{Type: ASSet, ASNs: []idr.ASN{5}}}
	p3 := setPath.Prepend(1)
	if len(p3) != 2 || p3[0].Type != ASSequence {
		t.Fatalf("Prepend onto set = %v", p3)
	}
	if NewASPath().Length() != 0 {
		t.Fatal("empty NewASPath")
	}
	if p.String() == "" || p3.String() == "" {
		t.Fatal("String should render")
	}
	if !p.Equal(p.Clone()) {
		t.Fatal("clone should be equal")
	}
	if p.Equal(p2) {
		t.Fatal("different paths equal")
	}
}

func TestCommunityHelpers(t *testing.T) {
	c := NewCommunity(65001, 40)
	a, v := c.Halves()
	if a != 65001 || v != 40 {
		t.Fatalf("halves = %d:%d", a, v)
	}
	if c.String() != "65001:40" {
		t.Fatalf("String = %q", c.String())
	}
	attrs := PathAttrs{}
	attrs2 := attrs.AddCommunity(c)
	if !attrs2.HasCommunity(c) || attrs.HasCommunity(c) {
		t.Fatal("AddCommunity must copy")
	}
	if attrs3 := attrs2.AddCommunity(c); len(attrs3.Communities) != 1 {
		t.Fatal("duplicate community added")
	}
}

func TestAttrsCloneIndependence(t *testing.T) {
	v := uint32(5)
	a := PathAttrs{ASPath: NewASPath(1, 2), MED: &v, Communities: []Community{1}}
	c := a.Clone()
	*c.MED = 9
	c.Communities[0] = 2
	c.ASPath[0].ASNs[0] = 99
	if *a.MED != 5 || a.Communities[0] != 1 || a.ASPath[0].ASNs[0] != 1 {
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

var aggregatorUpdate = Update{
	Attrs: PathAttrs{
		Origin:  OriginIGP,
		ASPath:  NewASPath(1),
		NextHop: netip.MustParseAddr("1.2.3.4"),
		Aggregator: &Aggregator{
			AS: 400000,
			ID: netip.MustParseAddr("172.16.0.9"),
		},
	},
	NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
}

func TestAggregatorRoundTrip(t *testing.T) {
	in := aggregatorUpdate
	out := roundTrip(t, in).(Update)
	if out.Attrs.Aggregator == nil || *out.Attrs.Aggregator != *in.Attrs.Aggregator {
		t.Fatalf("aggregator = %+v", out.Attrs.Aggregator)
	}
	if !out.Attrs.Equal(in.Attrs) {
		t.Fatal("Equal should cover Aggregator")
	}
	// Clone independence.
	c := in.Attrs.Clone()
	c.Aggregator.AS = 1
	if in.Attrs.Aggregator.AS != 400000 {
		t.Fatal("Clone shares Aggregator")
	}
	// Equal detects differences.
	other := in.Attrs.Clone()
	other.Aggregator.AS = 5
	if other.Equal(in.Attrs) {
		t.Fatal("Equal missed Aggregator difference")
	}
	// IPv6 aggregator ID rejected.
	bad := in
	bad.Attrs = in.Attrs.Clone()
	bad.Attrs.Aggregator.ID = netip.MustParseAddr("::1")
	if _, err := Marshal(bad); err == nil {
		t.Fatal("IPv6 aggregator should fail")
	}
}
