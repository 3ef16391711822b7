// Package rib implements the three BGP routing information bases of
// RFC 4271 §3.2 — Adj-RIB-In, Loc-RIB and Adj-RIB-Out — plus the
// decision process (§9.1) that ties them together.
package rib

import (
	"fmt"
	"net/netip"
	"slices"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
)

// PeerKey uniquely identifies one BGP session on a router.
type PeerKey string

// DefaultLocalPref is the preference assumed when LOCAL_PREF is unset
// (RFC 4271 leaves this to policy; 100 is the universal default).
const DefaultLocalPref uint32 = 100

// Route is one path to a prefix as held in a RIB.
type Route struct {
	Prefix netip.Prefix
	Attrs  wire.PathAttrs
	// Peer identifies the session the route was learned from; empty
	// for locally-originated routes.
	Peer PeerKey
	// PeerASN is the neighbor AS of that session.
	PeerASN idr.ASN
	// PeerID is the neighbor's BGP identifier (decision tie-break).
	PeerID idr.RouterID
	// Local marks locally-originated routes, which always win the
	// decision process.
	Local bool

	// exported memoises ExportPath(exportASN). It is derived from
	// Attrs.ASPath, lives exactly as long as the route does, and is
	// never serialised or cloned.
	exportASN idr.ASN
	exported  wire.ASPath
}

// ExportPath returns the route's AS path with asn prepended: the path a
// speaker in AS asn advertises the route with. It is built on the first
// call and kept on the route, so every peer and every re-advertisement
// shares one immutable copy, and the copy is garbage when the route is
// — when its RIB entry is replaced or withdrawn. Attrs.ASPath must not
// change once a route has been exported (a RIB's attribute sets are
// immutable, see policy.Policy).
func (r *Route) ExportPath(asn idr.ASN) wire.ASPath {
	if r.exported == nil || r.exportASN != asn {
		r.exported, r.exportASN = r.Attrs.ASPath.Prepend(asn), asn
	}
	return r.exported
}

// LocalPref returns the route's effective LOCAL_PREF.
func (r *Route) LocalPref() uint32 {
	if r.Attrs.LocalPref != nil {
		return *r.Attrs.LocalPref
	}
	return DefaultLocalPref
}

// med returns the effective MULTI_EXIT_DISC (missing = 0, the
// missing-as-best convention).
func (r *Route) med() uint32 {
	if r.Attrs.MED != nil {
		return *r.Attrs.MED
	}
	return 0
}

// Clone deep-copies the route.
func (r *Route) Clone() *Route {
	if r == nil {
		return nil
	}
	out := *r
	out.Attrs = r.Attrs.Clone()
	out.exported = nil // the clone's attributes are its own to change
	return &out
}

// String renders the route for logs.
func (r *Route) String() string {
	if r == nil {
		return "<nil>"
	}
	src := string(r.Peer)
	if r.Local {
		src = "local"
	}
	return fmt.Sprintf("%v via %s [%s]", r.Prefix, src, r.Attrs.ASPath)
}

// Better reports whether a is preferred over b by the BGP decision
// process (RFC 4271 §9.1.2.2), with the framework's conventions:
//
//  0. a locally-originated route beats any learned route;
//  1. highest LOCAL_PREF;
//  2. shortest AS_PATH;
//  3. lowest ORIGIN (IGP < EGP < incomplete);
//  4. lowest MED, compared only between routes from the same
//     neighbor AS;
//  5. lowest peer BGP identifier;
//  6. lowest peer key (final deterministic tie-break for parallel
//     sessions to one router).
//
// All sessions in the framework are eBGP, so the eBGP-over-iBGP and
// IGP-cost steps do not apply. b may be nil (anything beats nothing).
func Better(a, b *Route) bool {
	if a == nil {
		return false
	}
	if b == nil {
		return true
	}
	if a.Local != b.Local {
		return a.Local
	}
	if la, lb := a.LocalPref(), b.LocalPref(); la != lb {
		return la > lb
	}
	if pa, pb := a.Attrs.ASPath.Length(), b.Attrs.ASPath.Length(); pa != pb {
		return pa < pb
	}
	if a.Attrs.Origin != b.Attrs.Origin {
		return a.Attrs.Origin < b.Attrs.Origin
	}
	if a.PeerASN == b.PeerASN {
		if ma, mb := a.med(), b.med(); ma != mb {
			return ma < mb
		}
	}
	if a.PeerID != b.PeerID {
		return a.PeerID.Less(b.PeerID)
	}
	return a.Peer < b.Peer
}

// Table is a router's complete RIB state: per-peer Adj-RIB-In, the
// locally originated routes, and the Loc-RIB (best routes). A table
// belongs to one router and, like the rest of that router's state, is
// not safe for concurrent use.
//
// Two indexes keep the hot paths off the maps: cands holds, per
// prefix, every Adj-RIB-In candidate sorted by peer key (maintained
// incrementally, so the decision process neither allocates nor sorts
// per UPDATE), and byLen buckets the Loc-RIB by prefix length so
// Lookup probes one masked prefix per populated length instead of
// scanning the whole Loc-RIB.
type Table struct {
	adjIn map[PeerKey]map[netip.Prefix]*Route
	local map[netip.Prefix]*Route
	best  map[netip.Prefix]*Route
	cands map[netip.Prefix][]*Route
	byLen [maxPrefixBits + 1]map[netip.Prefix]*Route
}

// maxPrefixBits is the longest prefix length Table can index (IPv6).
const maxPrefixBits = 128

// NewTable returns an empty RIB.
func NewTable() *Table {
	return &Table{
		adjIn: make(map[PeerKey]map[netip.Prefix]*Route),
		local: make(map[netip.Prefix]*Route),
		best:  make(map[netip.Prefix]*Route),
		cands: make(map[netip.Prefix][]*Route),
	}
}

// NewTableShards returns NewTable(); n is ignored.
//
// Deprecated: the table is no longer sharded. The only caller is the
// rib.decide_spread kernel in cmd/labbench/kernels.go, which was frozen
// when the shards were removed; the next benchmark PR switches it to
// NewTable and deletes this shim.
func NewTableShards(n int) *Table { return NewTable() }

// searchCands returns the position of peer in the candidate slice
// (sorted by peer key) and whether it is present. Open-coded so the
// steady-state decision path stays closure- and allocation-free.
func searchCands(s []*Route, peer PeerKey) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Peer < peer {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s) && s[lo].Peer == peer
}

// indexCand inserts or replaces r in the prefix's candidate slice.
func (t *Table) indexCand(r *Route) {
	s := t.cands[r.Prefix]
	i, ok := searchCands(s, r.Peer)
	if ok {
		s[i] = r
		return
	}
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = r
	t.cands[r.Prefix] = s
}

// unindexCand removes the peer's route from the prefix's candidates.
func (t *Table) unindexCand(peer PeerKey, prefix netip.Prefix) {
	s := t.cands[prefix]
	i, ok := searchCands(s, peer)
	if !ok {
		return
	}
	copy(s[i:], s[i+1:])
	s[len(s)-1] = nil
	// Keep the (possibly empty) slice so a withdraw/re-announce cycle
	// reuses its capacity instead of reallocating.
	t.cands[prefix] = s[:len(s)-1]
}

// setBest installs r as the Loc-RIB entry for prefix, maintaining the
// by-length lookup buckets; nil r removes the entry.
func (t *Table) setBest(prefix netip.Prefix, r *Route) {
	bits := prefix.Bits()
	if bits < 0 || bits > maxPrefixBits {
		panic(fmt.Sprintf("rib: invalid prefix %v", prefix))
	}
	if r == nil {
		delete(t.best, prefix)
		delete(t.byLen[bits], prefix)
		return
	}
	t.best[prefix] = r
	m := t.byLen[bits]
	if m == nil {
		m = make(map[netip.Prefix]*Route)
		t.byLen[bits] = m
	}
	m[prefix] = r
}

// Change describes one Loc-RIB transition for a prefix.
type Change struct {
	Prefix   netip.Prefix
	Old, New *Route // nil = no route
}

// Changed reports whether the transition is material (route added,
// removed, or replaced with different attributes/source).
func (c Change) Changed() bool {
	switch {
	case c.Old == nil && c.New == nil:
		return false
	case (c.Old == nil) != (c.New == nil):
		return true
	default:
		return c.Old.Peer != c.New.Peer || c.Old.Local != c.New.Local ||
			!c.Old.Attrs.Equal(c.New.Attrs)
	}
}

// SetAdjIn installs r into the Adj-RIB-In of r.Peer (implicit
// withdrawal of any previous route for the prefix from that peer) and
// re-runs the decision process for the prefix.
func (t *Table) SetAdjIn(r *Route) Change {
	if r.Peer == "" {
		panic("rib: SetAdjIn with empty peer key")
	}
	m := t.adjIn[r.Peer]
	if m == nil {
		m = make(map[netip.Prefix]*Route)
		t.adjIn[r.Peer] = m
	}
	m[r.Prefix] = r
	t.indexCand(r)
	return t.decide(r.Prefix)
}

// WithdrawAdjIn removes the peer's route for prefix and re-decides.
func (t *Table) WithdrawAdjIn(peer PeerKey, prefix netip.Prefix) Change {
	delete(t.adjIn[peer], prefix)
	t.unindexCand(peer, prefix)
	return t.decide(prefix)
}

// AdjIn returns the peer's current route for prefix, if any.
func (t *Table) AdjIn(peer PeerKey, prefix netip.Prefix) (*Route, bool) {
	r, ok := t.adjIn[peer][prefix]
	return r, ok
}

// AdjInPeerKeys returns every peer with a non-empty Adj-RIB-In,
// sorted — the deterministic enumeration order for dumps and
// snapshots.
func (t *Table) AdjInPeerKeys() []PeerKey {
	return slices.DeleteFunc(idr.SortedKeys(t.adjIn), func(k PeerKey) bool { return len(t.adjIn[k]) == 0 })
}

// AdjInPrefixes returns all prefixes present in the peer's Adj-RIB-In,
// sorted.
func (t *Table) AdjInPrefixes(peer PeerKey) []netip.Prefix {
	return idr.SortedPrefixes(t.adjIn[peer])
}

// DropPeer removes the peer's entire Adj-RIB-In (session failure) and
// re-decides every affected prefix in sorted order, returning the
// material changes.
func (t *Table) DropPeer(peer PeerKey) []Change {
	prefixes := idr.SortedPrefixes(t.adjIn[peer])
	delete(t.adjIn, peer)
	var out []Change
	for _, p := range prefixes {
		t.unindexCand(peer, p)
		if c := t.decide(p); c.Changed() {
			out = append(out, c)
		}
	}
	return out
}

// Originate installs a locally-originated route and re-decides.
func (t *Table) Originate(prefix netip.Prefix, attrs wire.PathAttrs) Change {
	t.local[prefix] = &Route{Prefix: prefix, Attrs: attrs, Local: true}
	return t.decide(prefix)
}

// WithdrawLocal removes a locally-originated route and re-decides.
func (t *Table) WithdrawLocal(prefix netip.Prefix) Change {
	delete(t.local, prefix)
	return t.decide(prefix)
}

// Best returns the Loc-RIB entry for prefix, if any.
func (t *Table) Best(prefix netip.Prefix) (*Route, bool) {
	r, ok := t.best[prefix]
	return r, ok
}

// BestRoutes returns the whole Loc-RIB, sorted by prefix.
func (t *Table) BestRoutes() []*Route {
	out := make([]*Route, 0, len(t.best))
	for _, p := range idr.SortedPrefixes(t.best) {
		out = append(out, t.best[p])
	}
	return out
}

// Prefixes returns every prefix known to any RIB, sorted.
func (t *Table) Prefixes() []netip.Prefix {
	learned := slices.DeleteFunc(idr.SortedPrefixes(t.cands), func(p netip.Prefix) bool {
		_, isLocal := t.local[p]
		return len(t.cands[p]) == 0 || isLocal
	})
	out := append(idr.SortedPrefixes(t.local), learned...)
	slices.SortFunc(out, idr.ComparePrefix)
	return out
}

// Lookup returns the Loc-RIB route whose prefix contains addr,
// preferring the longest match — the data-plane forwarding decision.
// It walks the by-length buckets from most to least specific, probing
// the single masked prefix that could contain addr at each populated
// length, so cost scales with the number of distinct prefix lengths
// rather than the Loc-RIB size.
func (t *Table) Lookup(addr netip.Addr) (*Route, bool) {
	for bits := addr.BitLen(); bits >= 0; bits-- {
		m := t.byLen[bits]
		if len(m) == 0 {
			continue
		}
		p, err := addr.Prefix(bits)
		if err != nil {
			continue
		}
		if r, ok := m[p]; ok {
			return r, true
		}
	}
	return nil, false
}

// decide re-runs the decision process for prefix by walking the
// prefix's candidate index — already sorted by peer key, so the
// iteration order (and therefore every MED tie-break) is deterministic
// and identical to the historical sorted-peers scan, without
// allocating or sorting per UPDATE.
func (t *Table) decide(prefix netip.Prefix) Change {
	old := t.best[prefix]
	var best *Route
	if lr, ok := t.local[prefix]; ok {
		best = lr
	}
	for _, r := range t.cands[prefix] {
		if Better(r, best) {
			best = r
		}
	}
	t.setBest(prefix, best)
	return Change{Prefix: prefix, Old: old, New: best}
}

// AdjOut tracks what has actually been advertised to each peer, so the
// update sender can emit minimal diffs and correct withdrawals.
type AdjOut struct {
	routes map[PeerKey]map[netip.Prefix]wire.PathAttrs
}

// NewAdjOut returns an empty Adj-RIB-Out.
func NewAdjOut() *AdjOut {
	return &AdjOut{routes: make(map[PeerKey]map[netip.Prefix]wire.PathAttrs)}
}

// Get returns the attributes last advertised to peer for prefix.
func (a *AdjOut) Get(peer PeerKey, prefix netip.Prefix) (wire.PathAttrs, bool) {
	attrs, ok := a.routes[peer][prefix]
	return attrs, ok
}

// Set records an advertisement.
func (a *AdjOut) Set(peer PeerKey, prefix netip.Prefix, attrs wire.PathAttrs) {
	m := a.routes[peer]
	if m == nil {
		m = make(map[netip.Prefix]wire.PathAttrs)
		a.routes[peer] = m
	}
	m[prefix] = attrs
}

// Delete records a withdrawal, reporting whether the prefix had been
// advertised.
func (a *AdjOut) Delete(peer PeerKey, prefix netip.Prefix) bool {
	m := a.routes[peer]
	if _, ok := m[prefix]; !ok {
		return false
	}
	delete(m, prefix)
	return true
}

// DropPeer forgets everything advertised to peer (session reset),
// returning the previously advertised prefixes, sorted.
func (a *AdjOut) DropPeer(peer PeerKey) []netip.Prefix {
	out := idr.SortedPrefixes(a.routes[peer])
	delete(a.routes, peer)
	return out
}

// Peers returns every peer with a non-empty Adj-RIB-Out, sorted —
// the deterministic enumeration order for snapshots.
func (a *AdjOut) Peers() []PeerKey {
	return slices.DeleteFunc(idr.SortedKeys(a.routes), func(k PeerKey) bool { return len(a.routes[k]) == 0 })
}

// Prefixes returns the prefixes currently advertised to peer, sorted.
func (a *AdjOut) Prefixes(peer PeerKey) []netip.Prefix {
	return idr.SortedPrefixes(a.routes[peer])
}
