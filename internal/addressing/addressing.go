// Package addressing implements the framework's automatic configuration
// management for IP resources (paper §2: "the framework should take
// care of configuration management such as IP prefixes"). Given a set
// of ASes and links it deterministically assigns:
//
//   - one origin /24 per AS (the prefix the AS may announce),
//   - one router ID per AS,
//   - one /30 transfer network per inter-AS link with one address per
//     endpoint, computed from the link's number rather than stored.
//
// The plan is pure data: the emulator and BGP layers consume it.
package addressing

import (
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/idr"
)

// Plan is a complete address assignment for one experiment. It keeps
// per-AS state only: a link's transfer network is a function of the
// link's number (TransferNet), so the plan holds no link table.
type Plan struct {
	origin   map[idr.ASN]netip.Prefix
	routerID map[idr.ASN]idr.RouterID
}

// LinkNet is the /30 transfer network of one inter-AS link. The
// lower-numbered AS holds its first usable address, the other AS the
// second.
type LinkNet struct {
	Prefix netip.Prefix
	lo, hi idr.ASN
}

// Addr returns the interface address of asn on this link.
func (l LinkNet) Addr(asn idr.ASN) (netip.Addr, bool) {
	switch asn {
	case l.lo:
		return l.Prefix.Addr().Next(), true
	case l.hi:
		return l.Prefix.Addr().Next().Next(), true
	}
	return netip.Addr{}, false
}

const (
	maxASN       = 0xFFFF // the 10.x.y.0/24 scheme addresses 16-bit ASNs
	maxLinks     = 1 << 20
	transferBase = uint32(100)<<24 | uint32(64)<<16 // 100.64.0.0
)

// NewPlan allocates addresses for the given ASes. ASNs above 65535 are
// rejected: the deterministic scheme packs the ASN into the second and
// third octets.
func NewPlan(asns []idr.ASN) (*Plan, error) {
	p := &Plan{
		origin:   make(map[idr.ASN]netip.Prefix, len(asns)),
		routerID: make(map[idr.ASN]idr.RouterID, len(asns)),
	}
	sorted := append([]idr.ASN(nil), asns...)
	slices.Sort(sorted)
	for i, a := range sorted {
		if i > 0 && sorted[i-1] == a {
			return nil, fmt.Errorf("addressing: duplicate ASN %v", a)
		}
		if a == 0 || a > maxASN {
			return nil, fmt.Errorf("addressing: ASN %v outside supported range 1..%d", a, maxASN)
		}
		hi, lo := byte(a>>8), byte(a&0xFF)
		p.origin[a] = netip.PrefixFrom(netip.AddrFrom4([4]byte{10, hi, lo, 0}), 24)
		p.routerID[a] = idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, hi, lo}))
	}
	return p, nil
}

// OriginPrefix returns the /24 an AS originates.
func (p *Plan) OriginPrefix(asn idr.ASN) (netip.Prefix, error) {
	pre, ok := p.origin[asn]
	if !ok {
		return netip.Prefix{}, fmt.Errorf("addressing: unknown ASN %v", asn)
	}
	return pre, nil
}

// RouterID returns the BGP identifier of an AS's router.
func (p *Plan) RouterID(asn idr.ASN) (idr.RouterID, error) {
	id, ok := p.routerID[asn]
	if !ok {
		return idr.RouterID{}, fmt.Errorf("addressing: unknown ASN %v", asn)
	}
	return id, nil
}

// TransferNet returns the /30 transfer network of link i, the i-th
// /30 of 100.64.0.0/10 (the shared-address space), between ASes a and
// b. It is a pure function of its arguments: the same link number
// always yields the same network, whichever way round a and b are
// given.
func (p *Plan) TransferNet(i int, a, b idr.ASN) (LinkNet, error) {
	if a == b {
		return LinkNet{}, fmt.Errorf("addressing: link endpoints equal (%v)", a)
	}
	for _, asn := range [2]idr.ASN{a, b} {
		if _, ok := p.origin[asn]; !ok {
			return LinkNet{}, fmt.Errorf("addressing: unknown ASN %v", asn)
		}
	}
	if i < 0 || i >= maxLinks {
		return LinkNet{}, fmt.Errorf("addressing: link number %d outside 0..%d", i, maxLinks-1)
	}
	net := transferBase + uint32(i)*4
	prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{byte(net >> 24), byte(net >> 16), byte(net >> 8), byte(net)}), 30)
	if b < a {
		a, b = b, a
	}
	return LinkNet{Prefix: prefix, lo: a, hi: b}, nil
}

// HostAddr returns the i-th host address (1-based) inside an AS's
// origin prefix, used when attaching monitoring hosts (paper §3: "it is
// also possible to add hosts with IP addresses within a particular
// prefix").
func (p *Plan) HostAddr(asn idr.ASN, i int) (netip.Addr, error) {
	pre, err := p.OriginPrefix(asn)
	if err != nil {
		return netip.Addr{}, err
	}
	if i < 1 || i > 254 {
		return netip.Addr{}, fmt.Errorf("addressing: host index %d outside 1..254", i)
	}
	b4 := pre.Addr().As4()
	b4[3] = byte(i)
	return netip.AddrFrom4(b4), nil
}
