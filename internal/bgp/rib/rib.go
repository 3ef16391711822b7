// Package rib implements the BGP routing information bases a speaker
// decides from — Adj-RIB-In and Loc-RIB (RFC 4271 §3.2) — and the
// decision process (§9.1) that ties them together. The Adj-RIB-Out is
// each session's export records (package bgp).
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
	if pa, pb := len(a.Attrs.ASPath), len(b.Attrs.ASPath); pa != pb {
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
// Everything the table holds for one prefix is one entry, so an UPDATE
// costs one map lookup: the entry's candidates are the Adj-RIB-In for
// the prefix, one route per peer kept sorted by peer key (the decision
// process neither allocates nor sorts per UPDATE), next to the local
// route and the Loc-RIB best. byLen buckets the entries that have a
// best route by prefix length, so Lookup probes one masked prefix per
// populated length instead of scanning the whole Loc-RIB; a bucket
// changes only when a prefix gains or loses its best route.
type Table struct {
	entries map[netip.Prefix]*entry
	byLen   [maxPrefixBits + 1]map[netip.Prefix]*entry
}

// entry is one prefix's state. An entry whose routes are all gone is
// kept, with its candidate slice's capacity, so a withdraw/re-announce
// cycle allocates nothing.
type entry struct {
	prefix netip.Prefix
	local  *Route   // locally originated route, if any
	best   *Route   // Loc-RIB route, if any
	cands  []*Route // Adj-RIB-In, sorted by peer key
}

// maxPrefixBits is the longest prefix length Table can index (IPv6).
const maxPrefixBits = 128

// NewTable returns an empty RIB.
func NewTable() *Table {
	return &Table{entries: make(map[netip.Prefix]*entry)}
}

// NewTableShards returns NewTable(); n is ignored.
//
// Deprecated: the table is no longer sharded. The only caller is the
// rib.decide_spread kernel in cmd/labbench/kernels.go, which was frozen
// when the shards were removed; the next benchmark PR switches it to
// NewTable and deletes this shim.
func NewTableShards(n int) *Table { return NewTable() }

// entryFor returns prefix's entry, made on first use.
func (t *Table) entryFor(prefix netip.Prefix) *entry {
	if e := t.entries[prefix]; e != nil {
		return e
	}
	if bits := prefix.Bits(); bits < 0 || bits > maxPrefixBits {
		panic(fmt.Sprintf("rib: invalid prefix %v", prefix))
	}
	e := &entry{prefix: prefix}
	t.entries[prefix] = e
	return e
}

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

// setCand inserts or replaces r among the entry's candidates.
func (e *entry) setCand(r *Route) {
	i, ok := searchCands(e.cands, r.Peer)
	if ok {
		e.cands[i] = r
		return
	}
	e.cands = slices.Insert(e.cands, i, r)
}

// has reports whether the peer has a route among the candidates.
func (e *entry) has(peer PeerKey) bool {
	_, ok := searchCands(e.cands, peer)
	return ok
}

// dropCand removes the peer's route from the entry's candidates,
// keeping the slice's capacity.
func (e *entry) dropCand(peer PeerKey) {
	if i, ok := searchCands(e.cands, peer); ok {
		e.cands = slices.Delete(e.cands, i, i+1)
	}
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
	e := t.entryFor(r.Prefix)
	e.setCand(r)
	return t.decide(e)
}

// WithdrawAdjIn removes the peer's route for prefix and re-decides.
func (t *Table) WithdrawAdjIn(peer PeerKey, prefix netip.Prefix) Change {
	e := t.entries[prefix]
	if e == nil {
		return Change{Prefix: prefix}
	}
	e.dropCand(peer)
	return t.decide(e)
}

// AdjIn returns the peer's current route for prefix, if any.
func (t *Table) AdjIn(peer PeerKey, prefix netip.Prefix) (*Route, bool) {
	e := t.entries[prefix]
	if e == nil {
		return nil, false
	}
	i, ok := searchCands(e.cands, peer)
	if !ok {
		return nil, false
	}
	return e.cands[i], true
}

// sortedEntries returns the entries keep accepts, sorted by prefix.
func (t *Table) sortedEntries(keep func(*entry) bool) []*entry {
	var out []*entry
	//lint:maporder the entries are sorted before they are returned
	for _, e := range t.entries {
		if keep(e) {
			out = append(out, e)
		}
	}
	slices.SortFunc(out, func(a, b *entry) int { return idr.ComparePrefix(a.prefix, b.prefix) })
	return out
}

// AdjInPeerKeys returns every peer with a non-empty Adj-RIB-In,
// sorted.
func (t *Table) AdjInPeerKeys() []PeerKey {
	keys := []PeerKey{}
	//lint:maporder the keys are sorted before they are returned
	for _, e := range t.entries {
		for _, r := range e.cands {
			keys = append(keys, r.Peer)
		}
	}
	slices.Sort(keys)
	return slices.Compact(keys)
}

// AdjInPrefixes returns all prefixes present in the peer's Adj-RIB-In,
// sorted.
func (t *Table) AdjInPrefixes(peer PeerKey) []netip.Prefix {
	out := []netip.Prefix{}
	for _, e := range t.sortedEntries(func(e *entry) bool { return e.has(peer) }) {
		out = append(out, e.prefix)
	}
	return out
}

// DropPeer removes the peer's entire Adj-RIB-In (session failure) and
// re-decides every affected prefix in sorted order, returning the
// material changes.
func (t *Table) DropPeer(peer PeerKey) []Change {
	var out []Change
	for _, e := range t.sortedEntries(func(e *entry) bool { return e.has(peer) }) {
		e.dropCand(peer)
		if c := t.decide(e); c.Changed() {
			out = append(out, c)
		}
	}
	return out
}

// Originate installs a locally-originated route and re-decides.
func (t *Table) Originate(prefix netip.Prefix, attrs wire.PathAttrs) Change {
	e := t.entryFor(prefix)
	e.local = &Route{Prefix: prefix, Attrs: attrs, Local: true}
	return t.decide(e)
}

// WithdrawLocal removes a locally-originated route and re-decides.
func (t *Table) WithdrawLocal(prefix netip.Prefix) Change {
	e := t.entries[prefix]
	if e == nil {
		return Change{Prefix: prefix}
	}
	e.local = nil
	return t.decide(e)
}

// Local returns the locally originated route for prefix, if any.
func (t *Table) Local(prefix netip.Prefix) (*Route, bool) {
	if e := t.entries[prefix]; e != nil && e.local != nil {
		return e.local, true
	}
	return nil, false
}

// HasLocal reports whether the table holds a locally originated route.
func (t *Table) HasLocal() bool {
	//lint:maporder any local route answers, so the walk may stop at the first
	for _, e := range t.entries {
		if e.local != nil {
			return true
		}
	}
	return false
}

// LocalRoutes returns the locally originated routes, sorted by prefix.
func (t *Table) LocalRoutes() []*Route {
	var out []*Route
	for _, e := range t.sortedEntries(func(e *entry) bool { return e.local != nil }) {
		out = append(out, e.local)
	}
	return out
}

// Best returns the Loc-RIB entry for prefix, if any.
func (t *Table) Best(prefix netip.Prefix) (*Route, bool) {
	if e := t.entries[prefix]; e != nil && e.best != nil {
		return e.best, true
	}
	return nil, false
}

// BestRoutes returns the whole Loc-RIB, sorted by prefix.
func (t *Table) BestRoutes() []*Route {
	n := 0
	for _, m := range t.byLen {
		n += len(m)
	}
	out := make([]*Route, 0, n)
	//lint:maporder the routes are sorted before they are returned
	for _, e := range t.entries {
		if e.best != nil {
			out = append(out, e.best)
		}
	}
	slices.SortFunc(out, func(a, b *Route) int { return idr.ComparePrefix(a.Prefix, b.Prefix) })
	return out
}

// Prefixes returns every prefix known to any RIB, sorted.
func (t *Table) Prefixes() []netip.Prefix {
	out := []netip.Prefix{}
	for _, e := range t.sortedEntries(func(e *entry) bool { return e.local != nil || len(e.cands) > 0 }) {
		out = append(out, e.prefix)
	}
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
		if e, ok := m[p]; ok {
			return e.best, true
		}
	}
	return nil, false
}

// decide re-runs the decision process for the entry by walking its
// candidates — already sorted by peer key, so the iteration order (and
// therefore every MED tie-break) is deterministic and identical to the
// historical sorted-peers scan — and moves the entry into or out of its
// by-length bucket when the prefix gains or loses its best route.
func (t *Table) decide(e *entry) Change {
	old, best := e.best, e.local
	for _, r := range e.cands {
		if Better(r, best) {
			best = r
		}
	}
	e.best = best
	if (old == nil) != (best == nil) {
		bucket := &t.byLen[e.prefix.Bits()]
		switch {
		case best == nil:
			delete(*bucket, e.prefix)
		case *bucket == nil:
			*bucket = map[netip.Prefix]*entry{e.prefix: e}
		default:
			(*bucket)[e.prefix] = e
		}
	}
	return Change{Prefix: e.prefix, Old: old, New: best}
}
