package wire

import (
	"fmt"
	"net/netip"
	"slices"
	"strconv"

	"repro/internal/idr"
)

// Attribute type codes (RFC 4271 §5.1).
const (
	AttrOrigin          uint8 = 1
	AttrASPath          uint8 = 2
	AttrNextHop         uint8 = 3
	AttrMED             uint8 = 4
	AttrLocalPref       uint8 = 5
	AttrAtomicAggregate uint8 = 6
)

// AS_PATH segments (RFC 4271 §4.3): the one type this package reads
// and writes (AS_SET is 1), and the most ASNs a segment holds.
const (
	asSequence uint8 = 2
	maxSegment       = 255
)

// Attribute flag bits.
const (
	flagOptional   uint8 = 0x80
	flagTransitive uint8 = 0x40
	flagPartial    uint8 = 0x20
	flagExtLen     uint8 = 0x10
)

// Origin is the ORIGIN attribute value.
type Origin uint8

// Origin values (RFC 4271 §5.1.1).
const (
	OriginIGP        Origin = 0
	OriginEGP        Origin = 1
	OriginIncomplete Origin = 2
)

// String names the origin.
func (o Origin) String() string {
	switch o {
	case OriginIGP:
		return "IGP"
	case OriginEGP:
		return "EGP"
	case OriginIncomplete:
		return "incomplete"
	default:
		return fmt.Sprintf("Origin(%d)", uint8(o))
	}
}

// ASPath is an AS_PATH: the ASes a route crossed, nearest first. It
// is one AS_SEQUENCE however many segments carried it — the decoder
// joins consecutive sequences and refuses an AS_SET, which nothing here
// sends, and the encoder splits the path into segments of at most 255
// ASNs (RFC 4271 §4.3) — so its decision-process length is len.
type ASPath []idr.ASN

// NewASPath returns a path over a copy of the given ASNs (empty input
// yields an empty path, as originated routes carry).
func NewASPath(asns ...idr.ASN) ASPath {
	if len(asns) == 0 {
		return nil
	}
	return append(ASPath(nil), asns...)
}

// Contains reports whether asn appears anywhere in the path — the BGP
// loop-detection test (RFC 4271 §9.1.2).
func (p ASPath) Contains(asn idr.ASN) bool { return slices.Contains(p, asn) }

// Prepend returns a new path with asn in front, in one allocation; the
// result shares nothing with p.
func (p ASPath) Prepend(asn idr.ASN) ASPath {
	out := make(ASPath, 1+len(p))
	out[0] = asn
	copy(out[1:], p)
	return out
}

// First returns the leftmost AS on the path (the neighbor that sent
// it), or (0, false) for an empty path.
func (p ASPath) First() (idr.ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[0], true
}

// Origin returns the rightmost AS on the path (the originator), or
// (0, false) for an empty path.
func (p ASPath) Origin() (idr.ASN, bool) {
	if len(p) == 0 {
		return 0, false
	}
	return p[len(p)-1], true
}

// Clone copies the path; a nil path stays nil.
func (p ASPath) Clone() ASPath { return slices.Clone(p) }

// Equal reports whether two paths hold the same ASes in the same order.
func (p ASPath) Equal(o ASPath) bool { return slices.Equal(p, o) }

// String renders the path in the conventional "1 2 3" form.
func (p ASPath) String() string { return string(p.AppendText(nil)) }

// AppendText appends the String form of the path to b.
func (p ASPath) AppendText(b []byte) []byte {
	for i, a := range p {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, uint64(a), 10)
	}
	return b
}

// PathAttrs is the decoded attribute set of one UPDATE.
type PathAttrs struct {
	// Origin is the mandatory ORIGIN attribute.
	Origin Origin
	// ASPath is the mandatory AS_PATH attribute (empty when locally
	// originated and not yet sent over eBGP).
	ASPath ASPath
	// NextHop is the mandatory NEXT_HOP attribute.
	NextHop netip.Addr
	// MED is the optional MULTI_EXIT_DISC attribute.
	MED *uint32
	// LocalPref is the LOCAL_PREF attribute (iBGP/internal only; not
	// emitted on eBGP sessions).
	LocalPref *uint32
}

// Clone deep-copies the attribute set.
func (a PathAttrs) Clone() PathAttrs {
	out := a
	out.ASPath = a.ASPath.Clone()
	if a.MED != nil {
		v := *a.MED
		out.MED = &v
	}
	if a.LocalPref != nil {
		v := *a.LocalPref
		out.LocalPref = &v
	}
	return out
}

// Equal reports semantic equality of two attribute sets.
func (a PathAttrs) Equal(b PathAttrs) bool {
	if a.Origin != b.Origin || a.NextHop != b.NextHop {
		return false
	}
	if !a.ASPath.Equal(b.ASPath) {
		return false
	}
	if (a.MED == nil) != (b.MED == nil) || (a.MED != nil && *a.MED != *b.MED) {
		return false
	}
	if (a.LocalPref == nil) != (b.LocalPref == nil) || (a.LocalPref != nil && *a.LocalPref != *b.LocalPref) {
		return false
	}
	return true
}

// String renders the attributes for logs.
func (a PathAttrs) String() string { return string(a.AppendText(nil)) }

// AppendText appends the String form of the attributes to b; it
// allocates only when b has no room (or the origin is out of range).
func (a PathAttrs) AppendText(b []byte) []byte {
	b = append(append(b, "origin="...), a.Origin.String()...)
	b = a.ASPath.AppendText(append(b, " path=["...))
	b = append(b, "] nh="...)
	if a.NextHop.IsValid() {
		b = a.NextHop.AppendTo(b)
	} else {
		b = append(b, "invalid IP"...) // what netip.Addr's String says
	}
	if a.MED != nil {
		b = strconv.AppendUint(append(b, " med="...), uint64(*a.MED), 10)
	}
	if a.LocalPref != nil {
		b = strconv.AppendUint(append(b, " lp="...), uint64(*a.LocalPref), 10)
	}
	return b
}
