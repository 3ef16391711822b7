package wire

import (
	"encoding/binary"
	"fmt"
	"net/netip"

	"repro/internal/idr"
)

// DecodeError describes a malformed message and carries the
// NOTIFICATION code/subcode a conforming speaker must send in response
// (RFC 4271 §6).
type DecodeError struct {
	Code    uint8
	Subcode uint8
	Reason  string
}

// Error implements error.
func (e *DecodeError) Error() string {
	return fmt.Sprintf("wire: %s (notify %d/%d)", e.Reason, e.Code, e.Subcode)
}

func decodeErr(code, subcode uint8, format string, args ...any) *DecodeError {
	return &DecodeError{Code: code, Subcode: subcode, Reason: fmt.Sprintf(format, args...)}
}

// Unmarshal decodes one complete BGP message (header included).
func Unmarshal(b []byte) (Message, error) {
	typ, body, err := splitHeader(b)
	if err != nil {
		return nil, err
	}
	switch typ {
	case MsgOpen:
		o, err := unmarshalOpen(body)
		if err != nil {
			return nil, err
		}
		return o, nil
	case MsgUpdate:
		var u Update
		if err := unmarshalUpdate(body, &u); err != nil {
			return nil, err
		}
		return u, nil
	case MsgKeepalive:
		if len(body) != 0 {
			return nil, decodeErr(NotifMessageHeaderError, 2, "keepalive with %d-byte body", len(body))
		}
		return Keepalive{}, nil
	case MsgNotification:
		if len(body) < 2 {
			return nil, decodeErr(NotifMessageHeaderError, 2, "notification body %d bytes", len(body))
		}
		return Notification{Code: body[0], Subcode: body[1], Data: append([]byte(nil), body[2:]...)}, nil
	default:
		return nil, decodeErr(NotifMessageHeaderError, 3, "unknown message type %d", typ)
	}
}

// UnmarshalUpdate is Unmarshal for a message whose type octet says
// UPDATE (see PeekType) and a caller that has somewhere to put one: it
// decodes into *u, so nothing is boxed into a Message. The Withdrawn
// and NLRI slices u came with are overwritten and reused where they
// have the capacity — a receiver that decodes every UPDATE into the
// same Update allocates for prefixes once — while the attribute set is
// built afresh each time and is never written again, so it may be kept.
// On error *u holds nothing meaningful.
func UnmarshalUpdate(b []byte, u *Update) error {
	typ, body, err := splitHeader(b)
	if err != nil {
		return err
	}
	if typ != MsgUpdate {
		return fmt.Errorf("wire: UnmarshalUpdate of a %v", typ)
	}
	return unmarshalUpdate(body, u)
}

// DecodeOpen is Unmarshal for a message whose type octet says OPEN
// (see PeekType): the same checks and the same errors, with the OPEN
// returned as a value instead of boxed into a Message.
func DecodeOpen(b []byte) (Open, error) {
	typ, body, err := splitHeader(b)
	if err != nil {
		return Open{}, err
	}
	if typ != MsgOpen {
		return Open{}, fmt.Errorf("wire: DecodeOpen of a %v", typ)
	}
	return unmarshalOpen(body)
}

// PeekType returns the type octet of a framed message, 0 when b is too
// short to have one. Nothing else about b is checked.
func PeekType(b []byte) MsgType {
	if len(b) < HeaderLen {
		return 0
	}
	return MsgType(b[MarkerLen+2])
}

// splitHeader checks a message's header and returns its type and body.
func splitHeader(b []byte) (MsgType, []byte, error) {
	if len(b) < HeaderLen {
		return 0, nil, decodeErr(NotifMessageHeaderError, 2, "short message: %d bytes", len(b))
	}
	for i := 0; i < MarkerLen; i++ {
		if b[i] != 0xFF {
			return 0, nil, decodeErr(NotifMessageHeaderError, 1, "marker byte %d is %#x", i, b[i])
		}
	}
	length := int(binary.BigEndian.Uint16(b[MarkerLen:]))
	if length < HeaderLen || length > MaxMsgLen || length != len(b) {
		return 0, nil, decodeErr(NotifMessageHeaderError, 2, "bad length %d for %d-byte buffer", length, len(b))
	}
	return MsgType(b[MarkerLen+2]), b[HeaderLen:], nil
}

func unmarshalOpen(body []byte) (Open, error) {
	if len(body) < 10 {
		return Open{}, decodeErr(NotifOpenMessageError, 0, "open body %d bytes", len(body))
	}
	if body[0] != Version {
		return Open{}, decodeErr(NotifOpenMessageError, 1, "unsupported version %d", body[0])
	}
	o := Open{
		AS:           idr.ASN(binary.BigEndian.Uint16(body[1:])),
		HoldTimeSecs: binary.BigEndian.Uint16(body[3:]),
	}
	if o.HoldTimeSecs != 0 && o.HoldTimeSecs < 3 {
		return Open{}, decodeErr(NotifOpenMessageError, 6, "hold time %d", o.HoldTimeSecs)
	}
	copy(o.ID[:], body[5:9])
	optLen := int(body[9])
	opt := body[10:]
	if len(opt) != optLen {
		return Open{}, decodeErr(NotifOpenMessageError, 0, "optional parameters: have %d bytes, header says %d", len(opt), optLen)
	}
	for len(opt) > 0 {
		if len(opt) < 2 {
			return Open{}, decodeErr(NotifOpenMessageError, 0, "truncated optional parameter")
		}
		ptype, plen := opt[0], int(opt[1])
		if len(opt) < 2+plen {
			return Open{}, decodeErr(NotifOpenMessageError, 0, "optional parameter overruns message")
		}
		pval := opt[2 : 2+plen]
		opt = opt[2+plen:]
		if ptype != 2 {
			continue // unknown parameter types are skipped
		}
		// Capabilities parameter: a sequence of TLVs.
		for len(pval) > 0 {
			if len(pval) < 2 {
				return Open{}, decodeErr(NotifOpenMessageError, 0, "truncated capability")
			}
			code, clen := pval[0], int(pval[1])
			if len(pval) < 2+clen {
				return Open{}, decodeErr(NotifOpenMessageError, 0, "capability overruns parameter")
			}
			val := pval[2 : 2+clen]
			pval = pval[2+clen:]
			if code != CapFourOctetAS {
				continue // other capabilities are skipped
			}
			if clen != 4 {
				return Open{}, decodeErr(NotifOpenMessageError, 0, "four-octet-AS capability length %d", clen)
			}
			o.AS = idr.ASN(binary.BigEndian.Uint32(val))
		}
	}
	return o, nil
}

func unmarshalUpdate(body []byte, u *Update) error {
	if len(body) < 4 {
		return decodeErr(NotifUpdateMessageError, 1, "update body %d bytes", len(body))
	}
	wlen := int(binary.BigEndian.Uint16(body))
	if len(body) < 2+wlen+2 {
		return decodeErr(NotifUpdateMessageError, 1, "withdrawn length %d overruns message", wlen)
	}
	var err error
	u.Withdrawn, err = unmarshalPrefixes(u.Withdrawn[:0], body[2:2+wlen])
	if err != nil {
		return decodeErr(NotifUpdateMessageError, 10, "withdrawn routes: %v", err)
	}
	rest := body[2+wlen:]
	alen := int(binary.BigEndian.Uint16(rest))
	if len(rest) < 2+alen {
		return decodeErr(NotifUpdateMessageError, 1, "attribute length %d overruns message", alen)
	}
	attrs, err := unmarshalAttrs(rest[2 : 2+alen])
	if err != nil {
		return err
	}
	u.Attrs = attrs.PathAttrs
	u.NLRI, err = unmarshalPrefixes(u.NLRI[:0], rest[2+alen:])
	if err != nil {
		return decodeErr(NotifUpdateMessageError, 10, "nlri: %v", err)
	}
	if len(u.NLRI) > 0 {
		// Mandatory attribute checks (RFC 4271 §6.3).
		if !attrs.seen.has(AttrOrigin) {
			return decodeErr(NotifUpdateMessageError, 3, "missing ORIGIN")
		}
		if !attrs.seen.has(AttrASPath) {
			return decodeErr(NotifUpdateMessageError, 3, "missing AS_PATH")
		}
		if !attrs.seen.has(AttrNextHop) {
			return decodeErr(NotifUpdateMessageError, 3, "missing NEXT_HOP")
		}
	}
	return nil
}

// unmarshalPrefixes appends the prefixes encoded in b to out. A field
// with no prefix in it leaves out as it came, nil included.
func unmarshalPrefixes(out []netip.Prefix, b []byte) ([]netip.Prefix, error) {
	for len(b) > 0 {
		bits := int(b[0])
		if bits > 32 {
			return nil, fmt.Errorf("prefix length %d > 32", bits)
		}
		nbytes := (bits + 7) / 8
		if len(b) < 1+nbytes {
			return nil, fmt.Errorf("prefix field truncated")
		}
		var b4 [4]byte
		copy(b4[:], b[1:1+nbytes])
		p := netip.PrefixFrom(netip.AddrFrom4(b4), bits)
		// Reject garbage bits beyond the prefix length: require
		// canonical encoding so equal prefixes compare equal.
		if p.Masked() != p {
			return nil, fmt.Errorf("prefix %v has host bits set", p)
		}
		out = append(out, p)
		b = b[1+nbytes:]
	}
	return out, nil
}

// attrSet is a set of attribute type codes, one bit each.
type attrSet [4]uint64

func (s *attrSet) has(typ uint8) bool { return s[typ>>6]&(1<<(typ&63)) != 0 }
func (s *attrSet) add(typ uint8)      { s[typ>>6] |= 1 << (typ & 63) }

// decodedAttrs is a decoded attribute block and the type codes that
// occurred in it, recognized or not (an empty block has none).
type decodedAttrs struct {
	PathAttrs
	seen attrSet
}

func unmarshalAttrs(b []byte) (decodedAttrs, error) {
	var a decodedAttrs
	for len(b) > 0 {
		if len(b) < 3 {
			return a, decodeErr(NotifUpdateMessageError, 1, "truncated attribute header")
		}
		flags, typ := b[0], b[1]
		var vlen, hdr int
		if flags&flagExtLen != 0 {
			if len(b) < 4 {
				return a, decodeErr(NotifUpdateMessageError, 1, "truncated extended attribute header")
			}
			vlen = int(binary.BigEndian.Uint16(b[2:]))
			hdr = 4
		} else {
			vlen = int(b[2])
			hdr = 3
		}
		if len(b) < hdr+vlen {
			return a, decodeErr(NotifUpdateMessageError, 5, "attribute %d overruns message", typ)
		}
		val := b[hdr : hdr+vlen]
		b = b[hdr+vlen:]
		if a.seen.has(typ) {
			return a, decodeErr(NotifUpdateMessageError, 1, "duplicate attribute %d", typ)
		}
		a.seen.add(typ)
		switch typ {
		case AttrOrigin:
			if vlen != 1 || val[0] > uint8(OriginIncomplete) {
				return a, decodeErr(NotifUpdateMessageError, 6, "bad ORIGIN")
			}
			a.Origin = Origin(val[0])
		case AttrASPath:
			path, err := unmarshalASPath(val)
			if err != nil {
				return a, decodeErr(NotifUpdateMessageError, 11, "AS_PATH: %v", err)
			}
			a.ASPath = path
		case AttrNextHop:
			if vlen != 4 {
				return a, decodeErr(NotifUpdateMessageError, 8, "NEXT_HOP length %d", vlen)
			}
			var b4 [4]byte
			copy(b4[:], val)
			a.NextHop = netip.AddrFrom4(b4)
		case AttrMED:
			if vlen != 4 {
				return a, decodeErr(NotifUpdateMessageError, 5, "MED length %d", vlen)
			}
			v := binary.BigEndian.Uint32(val)
			a.MED = &v
		case AttrLocalPref:
			if vlen != 4 {
				return a, decodeErr(NotifUpdateMessageError, 5, "LOCAL_PREF length %d", vlen)
			}
			v := binary.BigEndian.Uint32(val)
			a.LocalPref = &v
		case AttrAtomicAggregate:
			// Well-known, so recognized and length-checked, but
			// nothing here reads it and it is not kept.
			if vlen != 0 {
				return a, decodeErr(NotifUpdateMessageError, 5, "ATOMIC_AGGREGATE length %d", vlen)
			}
		default:
			// Unrecognized optional attributes are tolerated
			// (transit behaviour is out of scope); unrecognized
			// well-known attributes are an error.
			if flags&flagOptional == 0 {
				return a, decodeErr(NotifUpdateMessageError, 2, "unrecognized well-known attribute %d", typ)
			}
		}
	}
	return a, nil
}

// unmarshalASPath checks every segment of an AS_PATH value before it
// decodes any, so the path is one allocation of its full length, its
// consecutive AS_SEQUENCE segments joined. An AS_SET is refused.
func unmarshalASPath(b []byte) (ASPath, error) {
	n := 0
	for rest := b; len(rest) > 0; {
		if len(rest) < 2 {
			return nil, fmt.Errorf("truncated segment header")
		}
		k := int(rest[1])
		switch {
		case rest[0] != asSequence:
			return nil, fmt.Errorf("segment type %d (only AS_SEQUENCE is accepted)", rest[0])
		case k == 0:
			return nil, fmt.Errorf("empty segment")
		case len(rest) < 2+4*k:
			return nil, fmt.Errorf("segment overruns attribute")
		}
		n += k
		rest = rest[2+4*k:]
	}
	if n == 0 {
		return nil, nil
	}
	path := make(ASPath, 0, n)
	for len(b) > 0 {
		k := int(b[1])
		for i := range k {
			path = append(path, idr.ASN(binary.BigEndian.Uint32(b[2+4*i:])))
		}
		b = b[2+4*k:]
	}
	return path, nil
}
