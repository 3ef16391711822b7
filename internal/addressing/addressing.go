// Package addressing implements the framework's automatic configuration
// management for IP resources (paper §2: "the framework should take
// care of configuration management such as IP prefixes"). Given a set
// of ASes and links it deterministically assigns:
//
//   - one origin /24 per AS (the prefix the AS may announce),
//   - one router ID per AS,
//   - one /30 transfer network per inter-AS link with one address per
//     endpoint.
//
// The plan is pure data: the emulator and BGP layers consume it.
package addressing

import (
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/idr"
)

// Plan is a complete address assignment for one experiment.
type Plan struct {
	origin   map[idr.ASN]netip.Prefix
	routerID map[idr.ASN]idr.RouterID
	links    map[[2]idr.ASN]LinkNet
	nextLink uint32
}

// LinkNet is the /30 transfer network of one inter-AS link.
type LinkNet struct {
	Prefix netip.Prefix
	// AddrOf maps each endpoint AS to its interface address.
	addrs map[idr.ASN]netip.Addr
}

// Addr returns the interface address of asn on this link.
func (l LinkNet) Addr(asn idr.ASN) (netip.Addr, bool) {
	a, ok := l.addrs[asn]
	return a, ok
}

const (
	maxASN   = 0xFFFF // the 10.x.y.0/24 scheme addresses 16-bit ASNs
	maxLinks = 1 << 20
)

// NewPlan allocates addresses for the given ASes. Links are added with
// AddLink. ASNs above 65535 are rejected: the deterministic scheme
// packs the ASN into the second and third octets.
func NewPlan(asns []idr.ASN) (*Plan, error) {
	p := &Plan{
		origin:   make(map[idr.ASN]netip.Prefix, len(asns)),
		routerID: make(map[idr.ASN]idr.RouterID, len(asns)),
		links:    make(map[[2]idr.ASN]LinkNet),
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

// ASNs returns all planned ASes in ascending order.
func (p *Plan) ASNs() []idr.ASN {
	out := make([]idr.ASN, 0, len(p.origin))
	for a := range p.origin {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

func linkKey(a, b idr.ASN) [2]idr.ASN {
	if b < a {
		a, b = b, a
	}
	return [2]idr.ASN{a, b}
}

// AddLink allocates the next /30 transfer network from 100.64.0.0/10
// (the shared-address space) for the link a-b. The lower-numbered AS
// gets the first usable address. Adding the same link twice returns
// the existing allocation.
func (p *Plan) AddLink(a, b idr.ASN) (LinkNet, error) {
	if a == b {
		return LinkNet{}, fmt.Errorf("addressing: link endpoints equal (%v)", a)
	}
	if _, ok := p.origin[a]; !ok {
		return LinkNet{}, fmt.Errorf("addressing: unknown ASN %v", a)
	}
	if _, ok := p.origin[b]; !ok {
		return LinkNet{}, fmt.Errorf("addressing: unknown ASN %v", b)
	}
	key := linkKey(a, b)
	if ln, ok := p.links[key]; ok {
		return ln, nil
	}
	if p.nextLink >= maxLinks {
		return LinkNet{}, fmt.Errorf("addressing: out of /30 transfer networks")
	}
	base := uint32(100)<<24 | uint32(64)<<16 // 100.64.0.0
	net := base + p.nextLink*4
	p.nextLink++
	var b4 [4]byte
	b4[0] = byte(net >> 24)
	b4[1] = byte(net >> 16)
	b4[2] = byte(net >> 8)
	b4[3] = byte(net)
	prefix := netip.PrefixFrom(netip.AddrFrom4(b4), 30)
	lo, hi := key[0], key[1]
	addr1 := addrPlus(b4, 1)
	addr2 := addrPlus(b4, 2)
	ln := LinkNet{
		Prefix: prefix,
		addrs:  map[idr.ASN]netip.Addr{lo: addr1, hi: addr2},
	}
	p.links[key] = ln
	return ln, nil
}

func addrPlus(base [4]byte, n byte) netip.Addr {
	base[3] += n
	return netip.AddrFrom4(base)
}

// Link returns the allocation for link a-b, if present.
func (p *Plan) Link(a, b idr.ASN) (LinkNet, bool) {
	ln, ok := p.links[linkKey(a, b)]
	return ln, ok
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
