package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"slices"
)

// Marshal encodes one BGP message, header included, into a buffer of
// its own.
func Marshal(m Message) ([]byte, error) { return Append(nil, m) }

// Append encodes one BGP message, header included, onto dst and
// returns the extended slice, as append does: the bytes already in dst
// are kept in front (a link header, say) and the message's length field
// counts from where the message starts. dst is grown once, up front, to
// an estimate of the encoding, so a message costs one allocation when
// dst has no room for the estimate and none when it has; the body goes
// in directly after the header and the length is fixed up afterwards,
// with no intermediate withdrawn/attribute/NLRI slices. On error dst
// is returned as it came.
func Append(dst []byte, m Message) ([]byte, error) {
	switch v := m.(type) {
	case Update:
		return AppendUpdate(dst, &v)
	case *Update:
		return AppendUpdate(dst, v)
	}
	out := appendHeader(dst, estimateBody(m))
	var err error
	switch v := m.(type) {
	case Open:
		out, err = appendOpen(out, v)
	case *Open:
		out, err = appendOpen(out, *v)
	case Keepalive, *Keepalive:
	case Notification:
		out, err = appendNotification(out, v)
	case *Notification:
		out, err = appendNotification(out, *v)
	default:
		return dst, fmt.Errorf("wire: unknown message type %T", m)
	}
	if err != nil {
		return dst, err
	}
	return finishMessage(dst, out, m.Type())
}

// AppendUpdate is Append for an UPDATE the caller holds by pointer: it
// only reads u, so the message need not be boxed into a Message (or
// copied) to be sent.
func AppendUpdate(dst []byte, u *Update) ([]byte, error) {
	out, err := appendUpdate(appendHeader(dst, estimateUpdate(u)), u)
	if err != nil {
		return dst, err
	}
	return finishMessage(dst, out, MsgUpdate)
}

// appendHeader grows dst by a header and room for a body of about the
// given size — an undershoot only costs an append reallocation — and
// returns it extended by the header, marker filled in.
func appendHeader(dst []byte, body int) []byte {
	start := len(dst)
	out := slices.Grow(dst, HeaderLen+body)[:start+HeaderLen]
	for i := start; i < start+MarkerLen; i++ {
		out[i] = 0xFF
	}
	return out
}

// ErrTooLong marks a message that does not fit in MaxMsgLen bytes. A
// sender splits an UPDATE that fails with it (RFC 4271 §9.2).
var ErrTooLong = errors.New("wire: message too long")

// finishMessage fills in the length and type of the message that out
// carries after dst's bytes.
func finishMessage(dst, out []byte, typ MsgType) ([]byte, error) {
	start := len(dst)
	if len(out)-start > MaxMsgLen {
		return dst, fmt.Errorf("%w: length %d exceeds %d", ErrTooLong, len(out)-start, MaxMsgLen)
	}
	binary.BigEndian.PutUint16(out[start+MarkerLen:], uint16(len(out)-start))
	out[start+MarkerLen+2] = byte(typ)
	return out, nil
}

// estimateBody and estimateUpdate size the initial buffer so typical
// messages marshal without regrowth.
func estimateBody(m Message) int {
	switch m.(type) {
	case Open, *Open:
		return openLen
	default:
		return 16
	}
}

// estimateUpdate never undershoots: 32 bytes cover every attribute
// header, value and the first AS_PATH segment header, to which each
// further segment adds its own.
func estimateUpdate(u *Update) int {
	n := 4 + 5*(len(u.Withdrawn)+len(u.NLRI))
	if len(u.NLRI) > 0 {
		p := len(u.Attrs.ASPath)
		n += 32 + 4*p + 2*((p-1)/maxSegment)
	}
	return n
}

// openLen is the length of every OPEN body this package writes: the
// fixed fields, then one optional parameter holding the Four-Octet-AS
// capability.
const openLen = 10 + 8

func appendOpen(out []byte, o Open) ([]byte, error) {
	if o.HoldTimeSecs != 0 && o.HoldTimeSecs < 3 {
		return nil, fmt.Errorf("wire: open hold time %d (must be 0 or >= 3)", o.HoldTimeSecs)
	}
	myAS := ASTrans
	if o.AS <= 0xFFFF {
		myAS = uint16(o.AS)
	}
	out = append(out, Version)
	out = binary.BigEndian.AppendUint16(out, myAS)
	out = binary.BigEndian.AppendUint16(out, o.HoldTimeSecs)
	out = append(out, o.ID[:]...)
	// 8 bytes of optional parameters: one of type 2 (capabilities), 6
	// long, holding the Four-Octet-AS capability, 4 long: the real ASN
	// (RFC 6793).
	out = append(out, 8, 2, 6, CapFourOctetAS, 4)
	return binary.BigEndian.AppendUint32(out, uint32(o.AS)), nil
}

func appendNotification(out []byte, n Notification) ([]byte, error) {
	out = append(out, n.Code, n.Subcode)
	return append(out, n.Data...), nil
}

func appendUpdate(out []byte, u *Update) ([]byte, error) {
	wlenAt := len(out)
	out = append(out, 0, 0)
	out, err := appendPrefixes(out, u.Withdrawn)
	if err != nil {
		return nil, fmt.Errorf("wire: withdrawn routes: %w", err)
	}
	binary.BigEndian.PutUint16(out[wlenAt:], uint16(len(out)-wlenAt-2))
	alenAt := len(out)
	out = append(out, 0, 0)
	if len(u.NLRI) > 0 {
		out, err = appendAttrs(out, &u.Attrs)
		if err != nil {
			return nil, err
		}
	}
	binary.BigEndian.PutUint16(out[alenAt:], uint16(len(out)-alenAt-2))
	out, err = appendPrefixes(out, u.NLRI)
	if err != nil {
		return nil, fmt.Errorf("wire: nlri: %w", err)
	}
	return out, nil
}

func appendPrefixes(out []byte, ps []netip.Prefix) ([]byte, error) {
	for _, p := range ps {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("prefix %v is not IPv4", p)
		}
		if p.Bits() < 0 {
			return nil, fmt.Errorf("prefix %v has invalid length", p)
		}
		out = append(out, byte(p.Bits()))
		b4 := p.Addr().As4()
		out = append(out, b4[:(p.Bits()+7)/8]...)
	}
	return out, nil
}

// appendAttrHeader writes one path-attribute header for a value of
// vlen bytes; the caller appends the value bytes in place afterwards.
func appendAttrHeader(out []byte, flags, typ uint8, vlen int) ([]byte, error) {
	if vlen > 0xFFFF {
		return nil, fmt.Errorf("wire: attribute %d too long (%d)", typ, vlen)
	}
	if vlen > 0xFF {
		flags |= flagExtLen
		out = append(out, flags, typ)
		return binary.BigEndian.AppendUint16(out, uint16(vlen)), nil
	}
	return append(out, flags, typ, byte(vlen)), nil
}

func appendAttrs(out []byte, a *PathAttrs) ([]byte, error) {
	var err error

	// ORIGIN: well-known mandatory.
	if a.Origin > OriginIncomplete {
		return nil, fmt.Errorf("wire: invalid origin %d", a.Origin)
	}
	out, err = appendAttrHeader(out, flagTransitive, AttrOrigin, 1)
	if err != nil {
		return nil, err
	}
	out = append(out, byte(a.Origin))

	// AS_PATH: well-known mandatory; 4-octet ASNs (RFC 6793 encoding
	// on a session with the Four-Octet-AS capability), in as few
	// AS_SEQUENCE segments as the 255-ASN limit allows.
	segs := (len(a.ASPath) + maxSegment - 1) / maxSegment
	out, err = appendAttrHeader(out, flagTransitive, AttrASPath, 2*segs+4*len(a.ASPath))
	if err != nil {
		return nil, err
	}
	for p := a.ASPath; len(p) > 0; {
		seg := p[:min(len(p), maxSegment)]
		p = p[len(seg):]
		out = append(out, asSequence, byte(len(seg)))
		for _, asn := range seg {
			out = binary.BigEndian.AppendUint32(out, uint32(asn))
		}
	}

	// NEXT_HOP: well-known mandatory.
	if !a.NextHop.Is4() {
		return nil, fmt.Errorf("wire: next hop %v is not IPv4", a.NextHop)
	}
	out, err = appendAttrHeader(out, flagTransitive, AttrNextHop, 4)
	if err != nil {
		return nil, err
	}
	nh := a.NextHop.As4()
	out = append(out, nh[:]...)

	if a.MED != nil {
		out, err = appendAttrHeader(out, flagOptional, AttrMED, 4)
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint32(out, *a.MED)
	}
	if a.LocalPref != nil {
		out, err = appendAttrHeader(out, flagTransitive, AttrLocalPref, 4)
		if err != nil {
			return nil, err
		}
		out = binary.BigEndian.AppendUint32(out, *a.LocalPref)
	}
	return out, nil
}
