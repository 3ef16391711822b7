package core

import (
	"cmp"
	"math"
	"net/netip"
	"slices"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
)

// view is the switch graph in the dense form the route computation
// runs on: members by index (index order is ASN order), each member's
// up intra-cluster neighbours, the sub-clusters, and the external
// peerings in key order. It is derived from the controller's members,
// ports and sessions and nothing else, so every method that changes
// one of those drops it (invalidate) and the next recompute or
// PathFrom rebuilds it (graph); it is never serialized. From owner on
// it is the scratch of one prefix's computation, overwritten by each
// route call.
type view struct {
	// gen numbers the view among the controller's rebuilds; a route's
	// loop verdict is valid for the view it was computed in.
	gen     uint64
	asns    []idr.ASN
	members []*member
	index   map[idr.ASN]int32
	// nbrs[i] lists the members i has an up intra-cluster port to, in
	// index order; ports[i][j] is i's lowest-numbered such port toward
	// nbrs[i][j] (parallel links).
	nbrs  [][]int32
	ports [][]uint32
	// comp is each member's sub-cluster: its connected component over
	// up links — the paper's disjoint sub-clusters.
	comp []int32
	// sess lists the external peerings in key order, so each border's
	// sessions are one run; groups[g] is where border group g's run
	// starts. Their established flag is read live, so a session
	// flapping does not drop the view.
	sess   []*extSession
	groups []int

	// owner is the member originating the prefix, -1 for an external
	// prefix.
	owner int32
	// dist is each member's total cost to the destination (unreachable
	// when it has no route); next the downstream member on its best
	// path, -1 for the owner and for a border that exits directly —
	// through best[i], the cheapest usable external route at border i
	// (cost 0 when it has none).
	dist, next []int32
	best       []candidate
	// ann caches the announcement each border makes for the prefix; its
	// path storage outlives the prefix, reused by every build.
	ann  []announcement
	heap []uint64
	path []idr.ASN
}

// candidate is one usable egress for a prefix after the per-prefix AS
// topology graph transformation.
type candidate struct {
	key   SessKey
	attrs wire.PathAttrs
	cost  int32
}

// announcement is what one border tells its external neighbours about
// the prefix: the attributes (shared by the border's sessions — each
// session compares before it clones what it sends) and the session the
// route exits through (the zero key when it reaches the owner
// internally). The AS path lives in path, the border's own storage,
// so an unchanged announcement costs no allocation; it is valid until
// the border's next build.
type announcement struct {
	built, ok bool
	attrs     wire.PathAttrs
	exit      SessKey
	path      wire.ASPath
}

const unreachable = math.MaxInt32

// compareSessKey orders peerings by border, then port.
func compareSessKey(a, b SessKey) int {
	return cmp.Or(cmp.Compare(a.Border, b.Border), cmp.Compare(a.Port, b.Port))
}

// invalidate drops the view after a change to the members, their
// ports or port state, or the session set. The border records are
// indexed by the view's border groups, so it retires them too.
func (c *Controller) invalidate() {
	c.view = nil
	c.sessGen++
}

// graph returns the current view, rebuilding it when a change to the
// switch graph dropped it.
func (c *Controller) graph() *view {
	if c.view != nil {
		return c.view
	}
	asns := c.Members()
	n := len(asns)
	c.views++
	v := &view{
		gen:     c.views,
		asns:    asns,
		members: make([]*member, n),
		index:   make(map[idr.ASN]int32, n),
		nbrs:    make([][]int32, n),
		ports:   make([][]uint32, n),
		comp:    make([]int32, n),
		dist:    make([]int32, n),
		next:    make([]int32, n),
		best:    make([]candidate, n),
		ann:     make([]announcement, n),
	}
	for i, asn := range asns {
		v.members[i] = c.members[asn]
		v.index[asn] = int32(i)
	}
	var links []uint64 // neighbour index<<32 | port: sorts by neighbour, lowest port first
	for i, m := range v.members {
		links = links[:0]
		for _, port := range idr.SortedKeys(m.ports) {
			pi := m.ports[port]
			if nb, ok := v.index[pi.neighbor]; ok && pi.isMember && pi.up {
				links = append(links, uint64(nb)<<32|uint64(port))
			}
		}
		slices.Sort(links)
		for _, l := range links {
			nb, known := int32(l>>32), v.nbrs[i]
			if len(known) == 0 || known[len(known)-1] != nb { // else a parallel link on a higher port
				v.nbrs[i] = append(known, nb)
				v.ports[i] = append(v.ports[i], uint32(l))
			}
		}
	}
	for start := range v.comp {
		if v.comp[start] != 0 {
			continue
		}
		v.comp[start] = int32(start) + 1
		for queue := []int32{int32(start)}; len(queue) > 0; queue = queue[1:] {
			for _, nb := range v.nbrs[queue[0]] {
				if v.comp[nb] == 0 {
					v.comp[nb] = v.comp[start]
					queue = append(queue, nb)
				}
			}
		}
	}
	for _, key := range c.sessionKeys() {
		es := c.sessions[key]
		es.border = v.index[key.Border]
		if len(v.sess) == 0 || v.sess[len(v.sess)-1].border != es.border {
			v.groups = append(v.groups, len(v.sess))
		}
		v.sess = append(v.sess, es)
	}
	c.view = v
	return v
}

// reenters reports whether an external AS path crosses the legacy
// world back into the sub-cluster of the border it was learned at.
// Such an egress would loop; paths through members of *other*
// sub-clusters remain usable (that is how disjoint sub-clusters reach
// each other over the legacy Internet).
func (v *view) reenters(path wire.ASPath, border int32) bool {
	for _, asn := range path {
		if i, ok := v.index[asn]; ok && v.comp[i] == v.comp[border] {
			return true
		}
	}
	return false
}

// push adds a Dijkstra frontier entry. Entries order by (dist, index);
// a member is pushed only on a strict improvement, so no two entries
// compare equal and the pop order does not depend on the heap's shape.
func (v *view) push(dist, i int32) {
	h := append(v.heap, uint64(dist)<<32|uint64(i))
	for at := len(h) - 1; at > 0 && h[(at-1)/2] > h[at]; at = (at - 1) / 2 {
		h[(at-1)/2], h[at] = h[at], h[(at-1)/2]
	}
	v.heap = h
}

// pop removes the frontier's least entry.
func (v *view) pop() (dist, i int32) {
	h := v.heap
	top, n := h[0], len(h)-1
	h[0] = h[n]
	h = h[:n]
	for at, child := 0, 1; child < n; child = 2*at + 1 {
		if child+1 < n && h[child+1] < h[child] {
			child++
		}
		if h[at] <= h[child] {
			break
		}
		h[at], h[child] = h[child], h[at]
		at = child
	}
	v.heap = h
	return int32(top >> 32), int32(top)
}

// route computes every member's best path to prefix on its AS topology
// graph: either toward the owner member (cluster-originated) or toward
// the cheapest egress candidate. Intra-cluster hops cost 1; an egress
// costs 1 + external path length, making the total comparable to an
// AS-path length as BGP would see it.
func (c *Controller) route(v *view, prefix netip.Prefix) {
	for i := range v.dist {
		v.dist[i], v.next[i] = unreachable, -1
	}
	clear(v.best)
	for i := range v.ann {
		v.ann[i].built = false
	}
	v.heap = v.heap[:0]
	v.owner = -1
	if owner, ok := v.index[c.owned[prefix]]; ok { // no member is AS 0, the unowned case
		// Cluster-originated: the owner is the zero-cost destination.
		v.owner = owner
		v.dist[owner] = 0
		v.push(0, owner)
	}
	// External egresses are usable destinations too. For external
	// prefixes they are the only ones; for owned prefixes they give
	// members in *other* sub-clusters a way back to the owner over the
	// legacy world (design goal §2: an intra-cluster link failure must
	// not isolate the controlled ASes). Each border keeps its cheapest
	// usable route, the lowest port among equals.
	// The candidates are in key order, so a border's come lowest port
	// first and an equal cost later never displaces one.
	routes := c.extRoutes[prefix]
	for i := range routes {
		r := &routes[i]
		es := r.sess
		cur := &v.best[es.border]
		if cur.cost != 0 && r.cost >= cur.cost || !es.established {
			continue
		}
		if r.gen != v.gen {
			r.gen, r.loops = v.gen, v.reenters(r.attrs.ASPath, es.border)
		}
		if !r.loops {
			*cur = candidate{key: es.key, attrs: r.attrs, cost: r.cost}
		}
	}
	for b := range v.best {
		if cost := v.best[b].cost; cost != 0 && int32(b) != v.owner {
			v.dist[b] = cost
			v.push(cost, int32(b))
		}
	}
	for len(v.heap) > 0 {
		d, i := v.pop()
		if d != v.dist[i] {
			continue // superseded by a better entry
		}
		for _, nb := range v.nbrs[i] {
			if d+1 < v.dist[nb] {
				v.dist[nb] = d + 1
				v.next[nb] = i // a border seeded with its own exit goes via the neighbor now
				v.push(d+1, nb)
			}
		}
	}
}

// internalPath returns the member sequence from i to its egress or
// owner, inclusive, and that last member's index, following next
// pointers. ok is false when i has no route. The slice is scratch,
// valid until the next call.
func (v *view) internalPath(i int32) (path []idr.ASN, last int32, ok bool) {
	if v.dist[i] == unreachable {
		return nil, 0, false
	}
	path = append(v.path[:0], v.asns[i])
	for v.next[i] >= 0 {
		i = v.next[i]
		path = append(path, v.asns[i])
	}
	v.path = path
	return path, i, true
}

// recomputePrefix recompiles flow rules and external announcements for
// one prefix — the per-prefix half of the paper's route selection.
func (c *Controller) recomputePrefix(v *view, prefix netip.Prefix) {
	c.route(v, prefix)
	c.pushFlows(v, prefix)
	c.announce(v, prefix)
}

// PathFrom returns the AS-level path member m currently uses toward
// prefix: the internal member sequence to the egress or owner, plus
// the chosen external route's path. ok is false when m has no route.
// (Monitoring helper — the data plane uses the compiled flow rules.)
func (c *Controller) PathFrom(m idr.ASN, prefix netip.Prefix) (wire.ASPath, bool) {
	v := c.graph()
	i, isMember := v.index[m]
	if !isMember {
		return nil, false
	}
	c.route(v, prefix)
	internal, last, ok := v.internalPath(i)
	if !ok {
		return nil, false
	}
	// The path excludes the querying member itself, mirroring how a
	// BGP router's Loc-RIB path excludes its own ASN, and is what
	// hop-by-hop eBGP prepending would have built: the members in
	// front of the exit route's path.
	var external wire.ASPath
	if last != v.owner {
		external = v.best[last].attrs.ASPath
	}
	return slices.Concat(wire.ASPath(internal[1:]), external), true
}

// flowPriority is the fixed priority used for IDR flow entries.
const flowPriority = 100

// outPort returns the port member i forwards the routed prefix on: its
// egress port, or its lowest up port toward the next member. ok is
// false for the owner (the switch's local-prefix set delivers) and for
// a member with no route.
func (v *view) outPort(i int32) (port uint32, ok bool) {
	switch {
	case i == v.owner || v.dist[i] == unreachable:
	case v.next[i] < 0:
		return v.best[i].key.Port, true
	default:
		if j, found := slices.BinarySearch(v.nbrs[i], v.next[i]); found {
			return v.ports[i][j], true
		}
	}
	return 0, false
}

// pushFlows programs every member's flow entry for the prefix; a
// member with no out port gets a delete of any stale entry. Every
// member gets its FlowMod on every recompute, changed or not.
func (c *Controller) pushFlows(v *view, prefix netip.Prefix) {
	for i, m := range v.members {
		mod := ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
		if port, ok := v.outPort(int32(i)); ok {
			mod = ofp.FlowMod{Command: ofp.FlowAdd, Priority: flowPriority, Match: prefix, OutPort: port}
		}
		if c.sendControl(m, mod) == nil {
			c.stats.FlowModsSent++
		}
	}
}

// announce drives every external session's view of the prefix:
// announce the border's best cluster path or withdraw. The path is
// built once per border; what is left per session is the live
// established flag, split horizon (never announce back over the
// session the route exits through) and receiver-side loop prevention
// (the neighbor would reject a path containing itself anyway; skip the
// no-op announcement).
//
// A border whose announcement and sessions are as they were at the
// prefix's last pass would only repeat that pass's commands, each a
// no-op now; its record stands in for them, counters included.
func (c *Controller) announce(v *view, prefix netip.Prefix) {
	t := c.records[prefix]
	if len(t.borders) != len(v.groups) {
		// The groups changed with the view, which retired every record.
		t.borders = slices.Grow(t.borders[:0], len(v.groups))[:len(v.groups)]
	}
	for g, lo := range v.groups {
		hi := len(v.sess)
		if g+1 < len(v.groups) {
			hi = v.groups[g+1]
		}
		b, rec := v.sess[lo].border, &t.borders[g]
		if rec.gen == c.sessGen && v.unchanged(b, rec, t.next) {
			c.stats.AnnounceCommands += uint64(rec.announces)
			c.stats.WithdrawCommands += uint64(rec.withdraws)
			continue
		}
		a := v.announcement(b)
		*rec = v.record(b, c.sessGen)
		for _, es := range v.sess[lo:hi] {
			if !es.established {
				continue
			}
			var err error
			if a.allowedOn(es) {
				if err = es.announce(prefix, a.attrs); err == nil {
					c.stats.AnnounceCommands++
					rec.announces++
				}
			} else if err = es.withdraw(prefix); err == nil {
				c.stats.WithdrawCommands++
				rec.withdraws++
			}
			if err != nil {
				rec.gen = 0 // a failed command is retried next time
			}
		}
	}
	_, ext := c.extRoutes[prefix]
	if _, own := c.owned[prefix]; !ext && !own || len(v.groups) == 0 {
		delete(c.records, prefix)
		return
	}
	t.next = append(t.next[:0], v.next...)
	c.records[prefix] = t
}

// prefixRecord is the controller's last pass over a prefix's external
// sessions: the view's next pointers as they were, and a record per
// border group.
type prefixRecord struct {
	next    []int32
	borders []borderRecord
}

// borderRecord is one border's record: the announcement it made, and
// how many announce and withdraw commands its sessions took. The
// announcement is kept as what it is built from — the internal path,
// which the pass's next pointers hold, and the route at its end: the
// owner (exit is the zero key) or the exit route's key, origin and AS
// path, which nothing writes. gen is the controller's session
// generation at the pass, 0 when the record is void.
type borderRecord struct {
	gen                  uint64
	ok                   bool
	origin               wire.Origin
	exit                 SessKey
	path                 wire.ASPath
	announces, withdraws uint32
}

// record starts border b's record of the routed prefix at session
// generation gen, with no commands counted yet.
func (v *view) record(b int32, gen uint64) borderRecord {
	r := borderRecord{gen: gen}
	if _, last, ok := v.internalPath(b); ok && last != v.owner {
		exit := &v.best[last]
		r.ok, r.exit, r.origin, r.path = true, exit.key, exit.attrs.Origin, exit.attrs.ASPath
	} else {
		r.ok = ok
	}
	return r
}

// unchanged reports whether border b would make the announcement its
// record holds: the same internal path, as next pointers (prev is the
// record's pass's), ending at the same route. Nothing else of an
// announcement reaches a session (each sets its own NEXT_HOP; MED and
// LOCAL_PREF are never sent).
func (v *view) unchanged(b int32, r *borderRecord, prev []int32) bool {
	if v.dist[b] == unreachable || !r.ok {
		return v.dist[b] == unreachable && !r.ok
	}
	i := b
	for next := v.next[i]; next >= 0; next = v.next[i] {
		if prev[i] != next {
			return false
		}
		i = next
	}
	if prev[i] >= 0 {
		return false
	}
	if i == v.owner {
		return r.exit == SessKey{}
	}
	exit := &v.best[i]
	return r.exit == exit.key && r.origin == exit.attrs.Origin && samePath(r.path, exit.attrs.ASPath)
}

// samePath reports whether two AS paths are equal, first by identity:
// a candidate's path is its own and never written, so an unchanged
// exit route hands back the very slice its record holds.
func samePath(a, b wire.ASPath) bool {
	if len(a) > 0 && len(a) == len(b) && &a[0] == &b[0] {
		return true
	}
	return a.Equal(b)
}

// allowedOn reports whether the border's announcement may go out on
// one of its sessions: there is a route, the session is not the one it
// exits through, and the neighbour is not already on the path.
func (a *announcement) allowedOn(es *extSession) bool {
	return a.ok && a.exit != es.key && !a.attrs.ASPath.Contains(es.remote)
}

// announcement returns what border b announces for the routed prefix,
// building it on first use: the internal member sequence from b to the
// egress or owner, then the external route's path — the full internal
// AS sequence, keeping the cluster transparent to the legacy world,
// built in the border's storage.
func (v *view) announcement(b int32) *announcement {
	a := &v.ann[b]
	if a.built {
		return a
	}
	a.built, a.ok, a.exit, a.attrs = true, false, SessKey{}, wire.PathAttrs{}
	internal, last, ok := v.internalPath(b)
	if !ok {
		return a
	}
	a.ok = true
	a.path = append(a.path[:0], internal...)
	if last == v.owner {
		// Cluster-originated and internally reachable: the path is
		// just the internal member sequence.
		a.attrs = wire.PathAttrs{Origin: wire.OriginIGP, ASPath: a.path}
		return a
	}
	exit := &v.best[last]
	a.path = append(a.path, exit.attrs.ASPath...)
	a.exit = exit.key
	a.attrs = exit.attrs
	a.attrs.ASPath = a.path
	a.attrs.MED = nil
	a.attrs.LocalPref = nil
	return a
}
