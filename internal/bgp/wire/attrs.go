package wire

import (
	"fmt"
	"net/netip"
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

// SegType is the AS_PATH segment type.
type SegType uint8

// AS_PATH segment types (RFC 4271 §4.3).
const (
	ASSet      SegType = 1
	ASSequence SegType = 2
)

// Segment is one AS_PATH segment.
type Segment struct {
	Type SegType
	ASNs []idr.ASN
}

// ASPath is an ordered list of AS_PATH segments.
type ASPath []Segment

// NewASPath returns a single-sequence path over the given ASNs (empty
// input yields an empty path, as originated routes carry).
func NewASPath(asns ...idr.ASN) ASPath {
	if len(asns) == 0 {
		return nil
	}
	return ASPath{{Type: ASSequence, ASNs: append([]idr.ASN(nil), asns...)}}
}

// Length is the decision-process AS-path length: each AS in a sequence
// counts 1, each AS_SET counts 1 in total (RFC 4271 §9.1.2.2).
func (p ASPath) Length() int {
	n := 0
	for _, s := range p {
		switch s.Type {
		case ASSet:
			if len(s.ASNs) > 0 {
				n++
			}
		default:
			n += len(s.ASNs)
		}
	}
	return n
}

// Contains reports whether asn appears anywhere in the path — the BGP
// loop-detection test (RFC 4271 §9.1.2).
func (p ASPath) Contains(asn idr.ASN) bool {
	for _, s := range p {
		for _, a := range s.ASNs {
			if a == asn {
				return true
			}
		}
	}
	return false
}

// Prepend returns a new path with asn prepended, merging into a
// leading AS_SEQUENCE when one exists (creating it otherwise). The
// result shares nothing with p and is built without a throw-away copy:
// one segment slice and one ASN slice per segment.
func (p ASPath) Prepend(asn idr.ASN) ASPath {
	head, rest := []idr.ASN(nil), p
	if len(p) > 0 && p[0].Type == ASSequence {
		head, rest = p[0].ASNs, p[1:]
	}
	first := make([]idr.ASN, 1+len(head))
	first[0] = asn
	copy(first[1:], head)
	out := make(ASPath, 1+len(rest))
	out[0] = Segment{Type: ASSequence, ASNs: first}
	for i, s := range rest {
		out[1+i] = Segment{Type: s.Type, ASNs: append([]idr.ASN(nil), s.ASNs...)}
	}
	return out
}

// First returns the leftmost AS on the path (the neighbor that sent
// it), or (0, false) for an empty path.
func (p ASPath) First() (idr.ASN, bool) {
	for _, s := range p {
		if len(s.ASNs) > 0 {
			return s.ASNs[0], true
		}
	}
	return 0, false
}

// Origin returns the rightmost AS on the path (the originator), or
// (0, false) for an empty path.
func (p ASPath) Origin() (idr.ASN, bool) {
	for i := len(p) - 1; i >= 0; i-- {
		if n := len(p[i].ASNs); n > 0 {
			return p[i].ASNs[n-1], true
		}
	}
	return 0, false
}

// Clone deep-copies the path.
func (p ASPath) Clone() ASPath {
	if p == nil {
		return nil
	}
	out := make(ASPath, len(p))
	for i, s := range p {
		out[i] = Segment{Type: s.Type, ASNs: append([]idr.ASN(nil), s.ASNs...)}
	}
	return out
}

// Equal reports deep equality of two paths.
func (p ASPath) Equal(o ASPath) bool {
	if len(p) != len(o) {
		return false
	}
	for i := range p {
		if p[i].Type != o[i].Type || len(p[i].ASNs) != len(o[i].ASNs) {
			return false
		}
		for j := range p[i].ASNs {
			if p[i].ASNs[j] != o[i].ASNs[j] {
				return false
			}
		}
	}
	return true
}

// String renders the path in the conventional "1 2 {3,4}" form.
func (p ASPath) String() string { return string(p.AppendText(nil)) }

// AppendText appends the String form of the path to b.
func (p ASPath) AppendText(b []byte) []byte {
	for i, s := range p {
		if i > 0 {
			b = append(b, ' ')
		}
		sep := byte(' ')
		if s.Type == ASSet {
			b, sep = append(b, '{'), ','
		}
		for j, a := range s.ASNs {
			if j > 0 {
				b = append(b, sep)
			}
			b = strconv.AppendUint(b, uint64(a), 10)
		}
		if s.Type == ASSet {
			b = append(b, '}')
		}
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
