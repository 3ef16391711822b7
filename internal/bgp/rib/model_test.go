package rib

import (
	"net/netip"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

// fuzzPools are the fixed identifier pools the fuzz driver draws from:
// a few peers and prefixes are enough to exercise candidate-index
// churn, MED tie-breaks and nested longest-prefix matches.
var fuzzPeers = []PeerKey{"as2:0", "as3:0", "as4:1", "as5:0"}

var fuzzPrefixes = []netip.Prefix{
	netip.MustParsePrefix("10.0.1.0/24"),
	netip.MustParsePrefix("10.0.2.0/24"),
	netip.MustParsePrefix("10.0.2.0/25"),
	netip.MustParsePrefix("10.1.0.0/16"),
	netip.MustParsePrefix("10.0.0.0/8"),
	netip.MustParsePrefix("192.168.7.0/24"),
	netip.MustParsePrefix("2001:db8::/32"),
	netip.MustParsePrefix("2001:db8:1::/48"),
}

// fuzzRoute derives a deterministic route for (peer, prefix, variant).
func fuzzRoute(pi int, prefix netip.Prefix, variant uint8) *Route {
	peer := fuzzPeers[pi]
	asn := idr.ASN(2 + pi)
	pathLen := 1 + int(variant%3)
	asns := make([]idr.ASN, pathLen)
	for i := range asns {
		asns[i] = idr.ASN(int(asn) + i)
	}
	r := &Route{
		Prefix:  prefix,
		Peer:    peer,
		PeerASN: asn,
		PeerID:  idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(asn)})),
		Attrs: wire.PathAttrs{
			Origin:  wire.Origin(variant % 3),
			ASPath:  wire.NewASPath(asns...),
			NextHop: netip.AddrFrom4([4]byte{100, 64, 0, byte(asn)}),
		},
	}
	if variant&8 != 0 {
		v := uint32(100 + variant%4*50)
		r.Attrs.LocalPref = &v
	}
	if variant&16 != 0 {
		v := uint32(variant % 7)
		r.Attrs.MED = &v
	}
	return r
}

// ribOps is the mutating surface the fuzz stream drives, implemented
// by both Table and the oracle.
type ribOps interface {
	SetAdjIn(*Route) Change
	WithdrawAdjIn(PeerKey, netip.Prefix) Change
	DropPeer(PeerKey) []Change
	Originate(netip.Prefix, wire.PathAttrs) Change
	WithdrawLocal(netip.Prefix) Change
}

// applyOp drives one decoded operation and returns the resulting
// changes.
func applyOp(t ribOps, code, pi, qi int, variant uint8) []Change {
	prefix := fuzzPrefixes[qi]
	switch code {
	case 0, 1:
		return []Change{t.SetAdjIn(fuzzRoute(pi, prefix, variant))}
	case 2:
		return []Change{t.WithdrawAdjIn(fuzzPeers[pi], prefix)}
	case 3:
		return t.DropPeer(fuzzPeers[pi])
	case 4:
		attrs := wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath()}
		return []Change{t.Originate(prefix, attrs)}
	default:
		return []Change{t.WithdrawLocal(prefix)}
	}
}

// oracle is the brute-force reference RIB: one flat list of routes
// (local ones carry the empty peer key), no index and no stored
// Loc-RIB. Every best route is found by rescanning the list with
// Better in peer-key order, every lookup is a linear longest-prefix
// match, and views sort with idr.PrefixLess — nothing is shared with
// Table beyond Better itself.
type oracle struct{ routes []*Route }

func (o *oracle) best(p netip.Prefix) *Route {
	var best *Route
	sort.SliceStable(o.routes, func(i, j int) bool { return o.routes[i].Peer < o.routes[j].Peer })
	for _, r := range o.routes {
		if r.Prefix == p && Better(r, best) {
			best = r
		}
	}
	return best
}

// replace swaps the peer's route for p with r (nil removes it) and
// reports the Loc-RIB transition that caused.
func (o *oracle) replace(peer PeerKey, p netip.Prefix, r *Route) Change {
	old := o.best(p)
	o.routes = slices.DeleteFunc(o.routes, func(x *Route) bool { return x.Peer == peer && x.Prefix == p })
	if r != nil {
		o.routes = append(o.routes, r)
	}
	return Change{Prefix: p, Old: old, New: o.best(p)}
}

func (o *oracle) SetAdjIn(r *Route) Change { return o.replace(r.Peer, r.Prefix, r) }

func (o *oracle) WithdrawAdjIn(peer PeerKey, p netip.Prefix) Change { return o.replace(peer, p, nil) }

func (o *oracle) Originate(p netip.Prefix, attrs wire.PathAttrs) Change {
	return o.replace("", p, &Route{Prefix: p, Attrs: attrs, Local: true})
}

func (o *oracle) WithdrawLocal(p netip.Prefix) Change { return o.replace("", p, nil) }

func (o *oracle) DropPeer(peer PeerKey) []Change {
	var out []Change
	for _, p := range o.prefixes(func(r *Route) bool { return r.Peer == peer }) {
		if c := o.replace(peer, p, nil); c.Changed() {
			out = append(out, c)
		}
	}
	return out
}

func anyRoute(*Route) bool { return true }

// prefixes returns, sorted and de-duplicated, the prefixes of the
// routes keep accepts.
func (o *oracle) prefixes(keep func(*Route) bool) []netip.Prefix {
	out := []netip.Prefix{}
	for _, r := range o.routes {
		if keep(r) && !slices.Contains(out, r.Prefix) {
			out = append(out, r.Prefix)
		}
	}
	sort.Slice(out, func(i, j int) bool { return idr.PrefixLess(out[i], out[j]) })
	return out
}

func (o *oracle) bestRoutes() []*Route {
	out := []*Route{}
	for _, p := range o.prefixes(anyRoute) {
		out = append(out, o.best(p))
	}
	return out
}

func (o *oracle) lookup(addr netip.Addr) *Route {
	var hit *Route
	for _, r := range o.bestRoutes() {
		if r.Prefix.Contains(addr) && (hit == nil || r.Prefix.Bits() > hit.Prefix.Bits()) {
			hit = r
		}
	}
	return hit
}

// compareViews asserts every observable view of the table agrees with
// the oracle — Loc-RIB, enumerations, per-peer Adj-RIB-In, and
// longest-match lookups inside and around every pool prefix — and
// that the entries hold together: each by-length bucket entry is its
// prefix's entry and has a best route, and the buckets hold exactly the
// prefixes with one.
func compareViews(t *testing.T, o *oracle, tbl *Table) {
	t.Helper()
	if got, want := tbl.BestRoutes(), o.bestRoutes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("BestRoutes = %v, oracle %v", got, want)
	}
	buckets, withBest := 0, 0
	for bits, m := range tbl.byLen {
		buckets += len(m)
		for p, e := range m {
			if p.Bits() != bits || tbl.entries[p] != e || e.prefix != p || e.best == nil {
				t.Fatalf("byLen[%d][%v] = %+v, the table's entry is %+v", bits, p, e, tbl.entries[p])
			}
		}
	}
	for p, e := range tbl.entries {
		if e.prefix != p {
			t.Fatalf("entries[%v] holds the entry of %v", p, e.prefix)
		}
		if e.best != nil {
			withBest++
		}
		if got, want := e.best, o.best(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("entry %v best = %v, oracle %v", p, got, want)
		}
	}
	if buckets != withBest {
		t.Fatalf("by-length buckets hold %d entries, %d prefixes have a best route", buckets, withBest)
	}
	if got, want := tbl.Prefixes(), o.prefixes(anyRoute); !slices.Equal(got, want) {
		t.Fatalf("Prefixes = %v, oracle %v", got, want)
	}
	wantKeys := []PeerKey{}
	var wantRoutes []*Route
	for _, peer := range fuzzPeers { // the pool is in key order
		want := o.prefixes(func(r *Route) bool { return r.Peer == peer })
		if len(want) > 0 {
			wantKeys = append(wantKeys, peer)
		}
		if got := tbl.AdjInPrefixes(peer); !slices.Equal(got, want) {
			t.Fatalf("AdjInPrefixes(%s) = %v, oracle %v", peer, got, want)
		}
		for _, p := range fuzzPrefixes {
			var want *Route
			for _, r := range o.routes {
				if r.Peer == peer && r.Prefix == p {
					want = r
				}
			}
			if got, ok := tbl.AdjIn(peer, p); !reflect.DeepEqual(got, want) || ok != (want != nil) {
				t.Fatalf("AdjIn(%s, %v) = %v, %v; oracle %v", peer, p, got, ok, want)
			}
			if want != nil {
				wantRoutes = append(wantRoutes, want)
			}
		}
	}
	if got := tbl.AdjInPeerKeys(); !slices.Equal(got, wantKeys) {
		t.Fatalf("AdjInPeerKeys = %v, oracle %v", got, wantKeys)
	}
	sort.SliceStable(wantRoutes, func(i, j int) bool { // by prefix within each peer
		a, b := wantRoutes[i], wantRoutes[j]
		return a.Peer < b.Peer || a.Peer == b.Peer && idr.PrefixLess(a.Prefix, b.Prefix)
	})
	if got := tbl.AdjInRoutes(); !reflect.DeepEqual(got, wantRoutes) {
		t.Fatalf("AdjInRoutes = %v, oracle %v", got, wantRoutes)
	}
	for _, p := range fuzzPrefixes {
		for _, addr := range []netip.Addr{p.Addr(), p.Addr().Next()} {
			if got, _ := tbl.Lookup(addr); !reflect.DeepEqual(got, o.lookup(addr)) {
				t.Fatalf("Lookup(%v) = %v, oracle %v", addr, got, o.lookup(addr))
			}
		}
	}
}

// FuzzRIBModel drives a random UPDATE/withdraw/drop/originate stream
// through a Table and the oracle, asserting that every returned Change
// (DropPeer's whole sequence included) and, after every operation,
// every observable view agree.
func FuzzRIBModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 1, 8, 2, 0, 0, 0})
	f.Add([]byte{0, 0, 4, 24, 0, 1, 4, 16, 3, 0, 0, 0, 4, 0, 4, 0})
	f.Add([]byte{0, 2, 6, 9, 0, 3, 7, 25, 5, 0, 6, 0, 2, 2, 6, 0})
	// One peer installs every pool prefix, then drops: each by-length
	// bucket fills and must drain to empty.
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 3, 0, 0, 0, 4, 0, 0, 0, 5, 0, 0, 0, 6, 0, 0, 0, 7, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		o, tbl := &oracle{}, NewTable()
		for i := 0; i+3 < len(ops); i += 4 {
			code, pi, qi, variant := int(ops[i]%6), int(ops[i+1]%4), int(ops[i+2])%len(fuzzPrefixes), ops[i+3]
			want := applyOp(o, code, pi, qi, variant)
			if got := applyOp(tbl, code, pi, qi, variant); !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d: changes %+v, oracle %+v", i/4, got, want)
			}
			compareViews(t, o, tbl)
		}
	})
}
