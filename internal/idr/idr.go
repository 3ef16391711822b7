// Package idr holds the small vocabulary of inter-domain routing types
// shared by every other package: AS numbers, router identifiers and
// prefix helpers. It is a leaf package with no dependencies beyond the
// standard library.
package idr

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"net/netip"
	"slices"
)

// ASN is an Autonomous System number. The framework uses 4-byte AS
// numbers throughout (RFC 6793); values <= 65535 encode as classic
// 2-byte ASNs on the wire.
type ASN uint32

// String renders the ASN in the canonical "AS64500" form.
func (a ASN) String() string { return fmt.Sprintf("AS%d", uint32(a)) }

// RouterID is a BGP identifier (RFC 4271 §4.2), by convention the
// router's loopback IPv4 address.
type RouterID [4]byte

// RouterIDFromAddr converts an IPv4 address to a RouterID.
// It panics if addr is not IPv4; router IDs are assigned internally by
// the addressing plan, which only produces IPv4.
func RouterIDFromAddr(addr netip.Addr) RouterID {
	if !addr.Is4() {
		panic(fmt.Sprintf("idr: RouterID from non-IPv4 address %v", addr))
	}
	return RouterID(addr.As4())
}

// Addr returns the router ID as an IPv4 address.
func (r RouterID) Addr() netip.Addr { return netip.AddrFrom4(r) }

// Uint32 returns the router ID as a big-endian integer, the form used
// for BGP decision-process tie-breaking.
func (r RouterID) Uint32() uint32 { return binary.BigEndian.Uint32(r[:]) }

// String renders the router ID in dotted-quad form.
func (r RouterID) String() string { return r.Addr().String() }

// Less orders router IDs numerically (lowest wins BGP tie-breaks).
func (r RouterID) Less(o RouterID) bool { return r.Uint32() < o.Uint32() }

// MustPrefix parses a CIDR string, panicking on error. For use in tests
// and tables of literals only.
func MustPrefix(s string) netip.Prefix { return netip.MustParsePrefix(s) }

// PrefixLess is a total order over prefixes (by address, then length),
// used to keep RIB dumps and log output deterministic.
func PrefixLess(a, b netip.Prefix) bool { return ComparePrefix(a, b) < 0 }

// ComparePrefix is PrefixLess's order in the three-way form
// slices.SortFunc takes.
func ComparePrefix(a, b netip.Prefix) int {
	if c := a.Addr().Compare(b.Addr()); c != 0 {
		return c
	}
	return cmp.Compare(a.Bits(), b.Bits())
}

// SortedPrefixes returns m's keys in ComparePrefix order.
func SortedPrefixes[V any](m map[netip.Prefix]V) []netip.Prefix {
	return SortedKeysFunc(m, ComparePrefix)
}

// SortedKeys returns m's keys in ascending order, in a slice of the
// caller's own: the one way the simulation packages walk a map whose
// order could reach a result. A filter belongs after it, as
// slices.DeleteFunc on the sorted slice.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	out := make([]K, 0, len(m))
	//lint:maporder the keys are sorted before they leave this function
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

// SortedKeysFunc is SortedKeys in compare's order, which must not tie
// two distinct keys: tied keys would come out in map order.
func SortedKeysFunc[M ~map[K]V, K comparable, V any](m M, compare func(a, b K) int) []K {
	out := make([]K, 0, len(m))
	//lint:maporder the keys are sorted before they leave this function
	for k := range m {
		out = append(out, k)
	}
	slices.SortFunc(out, compare)
	return out
}
