package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net/netip"
	"slices"
	"testing"

	"repro/internal/idr"
)

// longPath is the AS path 1, 2, ..., n.
func longPath(n int) ASPath {
	path := make(ASPath, n)
	for i := range path {
		path[i] = idr.ASN(i + 1)
	}
	return path
}

// segment is one raw AS_PATH segment: its type octet, its count and
// its ASNs, as another speaker may send it.
func segment(typ uint8, asns ...idr.ASN) []byte {
	b := []byte{typ, byte(len(asns))}
	for _, asn := range asns {
		b = binary.BigEndian.AppendUint32(b, uint32(asn))
	}
	return b
}

// pathUpdate is an UPDATE announcing 10.0.0.0/8 via 1.2.3.4 whose
// AS_PATH value is the given raw segments, in the bytes this package
// would write for the same path.
func pathUpdate(segs ...[]byte) []byte {
	value := slices.Concat(segs...)
	header := []byte{flagTransitive, AttrASPath, byte(len(value))}
	if len(value) > 0xFF {
		header = []byte{flagTransitive | flagExtLen, AttrASPath, byte(len(value) >> 8), byte(len(value))}
	}
	attrs := slices.Concat(
		[]byte{flagTransitive, AttrOrigin, 1, byte(OriginIGP)},
		header, value,
		[]byte{flagTransitive, AttrNextHop, 4, 1, 2, 3, 4})
	return frame(MsgUpdate, slices.Concat([]byte{0, 0, byte(len(attrs) >> 8), byte(len(attrs))}, attrs, []byte{8, 10}))
}

// corpus is one message of every kind and shape the tests in
// wire_test.go round-trip, plus a NOTIFICATION that outgrows the
// encoder's size estimate and UPDATEs with paths of one, two and three
// segments, all optional attributes set on the longest.
func corpus() []Message {
	nh := netip.MustParseAddr("100.64.0.1")
	return []Message{
		Keepalive{},
		Open{AS: 64500, HoldTimeSecs: 90, ID: idr.RouterIDFromAddr(netip.MustParseAddr("172.16.0.1"))},
		Open{AS: 400000, HoldTimeSecs: 180, ID: idr.RouterIDFromAddr(netip.MustParseAddr("10.9.8.7"))},
		Notification{Code: NotifCease, Subcode: 2, Data: []byte{1, 2, 3}},
		Notification{Code: NotifHoldTimerExpired},
		Notification{Code: NotifUpdateMessageError, Subcode: 11, Data: bytes.Repeat([]byte{0xAB}, 40)},
		fullUpdate,
		Update{Withdrawn: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}},
		Update{Attrs: PathAttrs{NextHop: nh}, NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")}},
		seqUpdate,
		Update{Attrs: PathAttrs{ASPath: longPath(300), NextHop: nh}, NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")}},
		Update{
			Attrs: PathAttrs{ASPath: longPath(511), NextHop: nh, MED: med(1), LocalPref: med(2)},
			NLRI:  []netip.Prefix{netip.MustParsePrefix("10.0.0.0/8")},
		},
	}
}

// TestCorpusOutgrowsEstimate keeps the corpus honest about what it is
// for: it must hold a message whose encoding regrows the buffer Append
// sized up front, or the length fix-up after a regrowth goes untested.
// An UPDATE's estimate counts every header it writes, so no UPDATE may
// outgrow it.
func TestCorpusOutgrowsEstimate(t *testing.T) {
	outgrown := 0
	for _, m := range corpus() {
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("Marshal(%v): %v", m, err)
		}
		estimate := estimateBody(m)
		if u, ok := m.(Update); ok {
			if estimate = estimateUpdate(&u); len(b) > HeaderLen+estimate {
				t.Errorf("%v encodes to %d bytes, more than its estimate of %d", m, len(b), HeaderLen+estimate)
			}
		}
		if len(b) > HeaderLen+estimate {
			outgrown++
		}
	}
	if outgrown == 0 {
		t.Fatal("no corpus message outgrows its estimate, want the long NOTIFICATION at least")
	}
}

// sameMessage reports whether two decoded messages mean the same: field
// by field, except that an UPDATE's attributes count only when it
// announces something (they are not encoded otherwise).
func sameMessage(a, b Message) bool {
	switch a := a.(type) {
	case Keepalive:
		_, ok := b.(Keepalive)
		return ok
	case Open:
		b, ok := b.(Open)
		return ok && a == b
	case Notification:
		b, ok := b.(Notification)
		return ok && a.Code == b.Code && a.Subcode == b.Subcode && bytes.Equal(a.Data, b.Data)
	case Update:
		b, ok := b.(Update)
		return ok && slices.Equal(a.Withdrawn, b.Withdrawn) && slices.Equal(a.NLRI, b.NLRI) &&
			(len(a.NLRI) == 0 || a.Attrs.Equal(b.Attrs))
	}
	return false
}

// FuzzWireRoundTrip is the guard on the encoder: whatever Unmarshal
// accepts, Marshal turns into bytes that decode to the same message and
// re-encode to themselves (a fixed point after one normalising pass),
// and Append onto bytes already in a buffer yields those bytes followed
// by exactly Marshal's — both into a buffer with no room, which must be
// left alone, and into one with room to spare. The entry points that
// Marshal and Unmarshal wrap are held to them on the way: UnmarshalUpdate
// into an Update full of another message's leftovers accepts, rejects
// and decodes exactly as Unmarshal does, DecodeOpen returns the OPEN
// Unmarshal boxes or fails with the same NOTIFICATION code and
// subcode, and AppendUpdate writes Marshal's bytes.
func FuzzWireRoundTrip(f *testing.F) {
	for _, m := range corpus() {
		b, err := Marshal(m)
		if err != nil {
			f.Fatalf("Marshal(%v): %v", m, err)
		}
		f.Add(b)
	}
	// What other speakers send and this package skips, joins or
	// refuses: unstored attributes, two AS_SEQUENCE segments (one
	// segment once re-encoded), and an AS_SET (Malformed AS_PATH).
	f.Add(openBytes)
	f.Add(withAttrs(fullUpdate, unstoredAttrs...))
	f.Add(pathUpdate(segment(asSequence, 1, 2), segment(asSequence, 3)))
	f.Add(pathUpdate(segment(asSequence, 1, 2), segment(1, 7, 8, 9)))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		reused := fullUpdate
		reused.Withdrawn, reused.NLRI = slices.Clone(fullUpdate.Withdrawn), slices.Clone(fullUpdate.NLRI)
		switch err2 := UnmarshalUpdate(data, &reused); {
		case PeekType(data) != MsgUpdate:
			if err2 == nil {
				t.Fatalf("UnmarshalUpdate accepted %x, a %v", data, PeekType(data))
			}
		case (err == nil) != (err2 == nil) || err != nil && err.Error() != err2.Error():
			t.Fatalf("%x: Unmarshal says %v, UnmarshalUpdate %v", data, err, err2)
		case err == nil:
			if u := m.(Update); !sameMessage(u, reused) || !u.Attrs.Equal(reused.Attrs) {
				t.Fatalf("%x decodes to %+v, into a used Update as %+v", data, u, reused)
			}
			direct, err := AppendUpdate(nil, &reused)
			if boxed, err2 := Marshal(m); (err == nil) != (err2 == nil) || !bytes.Equal(direct, boxed) {
				t.Fatalf("%+v: AppendUpdate gives %x (%v), Marshal %x (%v)", reused, direct, err, boxed, err2)
			}
		}
		switch o, err3 := DecodeOpen(data); {
		case PeekType(data) != MsgOpen:
			if err3 == nil {
				t.Fatalf("DecodeOpen accepted %x, a %v", data, PeekType(data))
			}
		case err == nil:
			if err3 != nil || m != Message(o) {
				t.Fatalf("%x: Unmarshal gives %+v, DecodeOpen %+v (%v)", data, m, o, err3)
			}
		default:
			var de, de3 *DecodeError
			if !errors.As(err, &de) || !errors.As(err3, &de3) || de.Code != de3.Code || de.Subcode != de3.Subcode {
				t.Fatalf("%x: Unmarshal says %v, DecodeOpen %v", data, err, err3)
			}
		}
		if err != nil {
			return
		}
		b, err := Marshal(m)
		if err != nil {
			t.Fatalf("accepted %x as %+v, which does not encode: %v", data, m, err)
		}
		m2, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%+v encodes to %x, which does not decode: %v", m, b, err)
		}
		if !sameMessage(m, m2) {
			t.Fatalf("%x decodes to %+v, re-encodes to %x, decodes to %+v", data, m, b, m2)
		}
		if b2, err := Marshal(m2); err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("not a fixed point: %x re-encodes to %x (%v)", b, b2, err)
		}

		header := []byte{1, 2, 3}
		want := append(slices.Clone(header), b...)
		full := header[:3:3]
		if got, err := Append(full, m); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Append onto %x: %x (%v), want %x", header, got, err, want)
		}
		if !bytes.Equal(full, []byte{1, 2, 3}) {
			t.Fatalf("Append onto a full buffer wrote into it: %x", full)
		}
		roomy := append(make([]byte, 0, 2*MaxMsgLen), header...) // room for any estimate
		got, err := Append(roomy, m)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Append into spare room: %x (%v), want %x", got, err, want)
		}
		if &got[0] != &roomy[0] {
			t.Fatal("Append moved out of a buffer that had room for its estimate")
		}
	})
}
