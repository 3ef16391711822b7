package core

import (
	"container/heap"
	"net/netip"
	"sort"

	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/sdn/ofp"
)

// subClusters computes the connected components of the switch graph
// over links that are up — the paper's disjoint sub-clusters. The
// result maps each member to a component id.
func (c *Controller) subClusters() map[idr.ASN]int {
	comp := make(map[idr.ASN]int, len(c.members))
	id := 0
	for _, start := range c.Members() {
		if _, seen := comp[start]; seen {
			continue
		}
		id++
		queue := []idr.ASN{start}
		comp[start] = id
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, nb := range c.upMemberNeighbors(cur) {
				if _, seen := comp[nb]; !seen {
					comp[nb] = id
					queue = append(queue, nb)
				}
			}
		}
	}
	return comp
}

// upMemberNeighbors lists the members adjacent to asn over up
// intra-cluster links, sorted for determinism.
func (c *Controller) upMemberNeighbors(asn idr.ASN) []idr.ASN {
	m := c.members[asn]
	var out []idr.ASN
	for _, pi := range m.ports {
		if pi.isMember && pi.up {
			out = append(out, pi.neighbor)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// portToMember returns member asn's up port leading to the neighbor
// member, choosing the lowest-numbered when parallel links exist.
func (c *Controller) portToMember(asn, neighbor idr.ASN) (uint32, bool) {
	m := c.members[asn]
	best := uint32(0)
	found := false
	//lint:maporder min-reduction: the lowest matching port number wins whatever order the ports are visited in
	for port, pi := range m.ports {
		if pi.isMember && pi.up && pi.neighbor == neighbor {
			if !found || port < best {
				best = port
				found = true
			}
		}
	}
	return best, found
}

// candidate is one usable egress for a prefix after the per-prefix AS
// topology graph transformation.
type candidate struct {
	key   SessKey
	attrs wire.PathAttrs
	cost  int
}

// candidatesFor applies the AS-topology-graph transformation for one
// prefix: collect the external routes and drop every egress whose AS
// path would re-enter the egress border's own sub-cluster — those
// paths cross the legacy world back into this very component and would
// loop. Paths through members of *other* sub-clusters remain usable
// (that is how disjoint sub-clusters reach each other over the legacy
// Internet).
func (c *Controller) candidatesFor(prefix netip.Prefix, comp map[idr.ASN]int) []candidate {
	routes := c.extRoutes[prefix]
	if len(routes) == 0 {
		return nil
	}
	keys := make([]SessKey, 0, len(routes))
	for k := range routes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Border != keys[j].Border {
			return keys[i].Border < keys[j].Border
		}
		return keys[i].Port < keys[j].Port
	})
	var out []candidate
	for _, k := range keys {
		attrs := routes[k]
		if !c.sessions[k].established {
			continue
		}
		reenters := false
		//lint:maporder existence test: any visiting order reaches the same verdict
		for other := range c.members {
			if comp[other] == comp[k.Border] && attrs.ASPath.Contains(other) {
				reenters = true
				break
			}
		}
		if reenters {
			continue
		}
		out = append(out, candidate{key: k, attrs: attrs, cost: 1 + attrs.ASPath.Length()})
	}
	return out
}

// routingResult is the outcome of Dijkstra for one prefix.
type routingResult struct {
	// dist is each member's total cost to the destination (absent =
	// unreachable).
	dist map[idr.ASN]int
	// next is the downstream member on the best path (absent for the
	// egress border itself and for the owner member).
	next map[idr.ASN]idr.ASN
	// egress maps each border member that exits directly to its chosen
	// candidate.
	egress map[idr.ASN]candidate
	// owner is the destination member for cluster-originated prefixes
	// (zero otherwise).
	owner idr.ASN
}

// pqItem is a Dijkstra frontier entry.
type pqItem struct {
	asn  idr.ASN
	dist int
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].dist != p[j].dist {
		return p[i].dist < p[j].dist
	}
	return p[i].asn < p[j].asn
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any {
	old := *p
	n := len(old)
	it := old[n-1]
	*p = old[:n-1]
	return it
}

// dijkstra computes every member's best path to the destination of
// prefix on the AS topology graph: either toward the owner member
// (cluster-originated) or toward the cheapest egress candidate.
// Intra-cluster hops cost 1; an egress costs 1 + external path length,
// making the total comparable to an AS-path length as BGP would see it.
func (c *Controller) dijkstra(prefix netip.Prefix, comp map[idr.ASN]int) routingResult {
	res := routingResult{
		dist:   make(map[idr.ASN]int),
		next:   make(map[idr.ASN]idr.ASN),
		egress: make(map[idr.ASN]candidate),
	}
	var frontier pq
	if owner, ok := c.owned[prefix]; ok {
		// Cluster-originated: the owner is the zero-cost destination.
		res.owner = owner
		res.dist[owner] = 0
		heap.Push(&frontier, pqItem{asn: owner, dist: 0})
	}
	// External egresses are usable destinations too. For external
	// prefixes they are the only ones; for owned prefixes they give
	// members in *other* sub-clusters a way back to the owner over the
	// legacy world (design goal §2: an intra-cluster link failure must
	// not isolate the controlled ASes).
	best := make(map[idr.ASN]candidate)
	for _, cand := range c.candidatesFor(prefix, comp) {
		cur, ok := best[cand.key.Border]
		if !ok || cand.cost < cur.cost {
			best[cand.key.Border] = cand
		}
	}
	borders := make([]idr.ASN, 0, len(best))
	for b := range best {
		borders = append(borders, b)
	}
	sort.Slice(borders, func(i, j int) bool { return borders[i] < borders[j] })
	for _, b := range borders {
		cand := best[b]
		if cur, seeded := res.dist[b]; seeded && cur <= cand.cost {
			continue // the owner itself, or a better seed
		}
		res.dist[b] = cand.cost
		res.egress[b] = cand
		heap.Push(&frontier, pqItem{asn: b, dist: cand.cost})
	}
	settled := make(map[idr.ASN]bool)
	for frontier.Len() > 0 {
		it := heap.Pop(&frontier).(pqItem)
		if settled[it.asn] || it.dist != res.dist[it.asn] {
			continue
		}
		settled[it.asn] = true
		for _, nb := range c.upMemberNeighbors(it.asn) {
			nd := it.dist + 1
			cur, ok := res.dist[nb]
			if !ok || nd < cur {
				res.dist[nb] = nd
				res.next[nb] = it.asn
				delete(res.egress, nb) // better path is via a neighbor now
				heap.Push(&frontier, pqItem{asn: nb, dist: nd})
			}
		}
	}
	return res
}

// forwardingPath returns the member sequence from m to its egress (or
// owner), inclusive, following next pointers. ok is false when m has
// no route.
func (res *routingResult) forwardingPath(m idr.ASN) (path []idr.ASN, ok bool) {
	if _, reachable := res.dist[m]; !reachable {
		return nil, false
	}
	cur := m
	path = append(path, cur)
	for {
		nxt, more := res.next[cur]
		if !more {
			return path, true
		}
		cur = nxt
		path = append(path, cur)
		if len(path) > len(res.dist)+1 {
			// Defensive: next pointers must not cycle.
			return nil, false
		}
	}
}

// prependSequence prepends the member sequence onto an external path,
// merging into the leading AS_SEQUENCE segment when one exists so the
// result looks exactly like hop-by-hop eBGP prepending.
func prependSequence(members []idr.ASN, external wire.ASPath) wire.ASPath {
	out := external.Clone()
	for i := len(members) - 1; i >= 0; i-- {
		out = out.Prepend(members[i])
	}
	return out
}

// recomputePrefix recompiles flow rules and external announcements for
// one prefix — the per-prefix half of the paper's route selection.
func (c *Controller) recomputePrefix(prefix netip.Prefix) {
	comp := c.subClusters()
	res := c.dijkstra(prefix, comp)
	c.pushFlows(prefix, res)
	c.updateAnnouncements(prefix, res)
}

// PathFrom returns the AS-level path member m currently uses toward
// prefix: the internal member sequence to the egress or owner, plus
// the chosen external route's path. ok is false when m has no route.
// (Monitoring helper — the data plane uses the compiled flow rules.)
func (c *Controller) PathFrom(m idr.ASN, prefix netip.Prefix) (wire.ASPath, bool) {
	if _, isMember := c.members[m]; !isMember {
		return nil, false
	}
	comp := c.subClusters()
	res := c.dijkstra(prefix, comp)
	internal, ok := res.forwardingPath(m)
	if !ok {
		return nil, false
	}
	egressMember := internal[len(internal)-1]
	if res.owner != 0 && egressMember == res.owner {
		// Path excludes the querying member itself, mirroring how a
		// BGP router's Loc-RIB path excludes its own ASN.
		return wire.NewASPath(internal[1:]...), true
	}
	cand, isEgress := res.egress[egressMember]
	if !isEgress {
		return nil, false
	}
	return prependSequence(internal[1:], cand.attrs.ASPath), true
}

// flowPriority is the fixed priority used for IDR flow entries.
const flowPriority = 100

// pushFlows programs every member's flow entry for prefix.
func (c *Controller) pushFlows(prefix netip.Prefix, res routingResult) {
	for _, asn := range c.Members() {
		m := c.members[asn]
		var mod ofp.FlowMod
		switch {
		case asn == res.owner && res.owner != 0:
			// The owner delivers locally; the switch's local-prefix
			// set handles it. Remove any stale transit entry.
			mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
		case res.egress[asn].key != SessKey{}:
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: res.egress[asn].key.Port,
			}
		default:
			nxt, ok := res.next[asn]
			if !ok {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			port, havePort := c.portToMember(asn, nxt)
			if !havePort {
				mod = ofp.FlowMod{Command: ofp.FlowDelete, Match: prefix}
				break
			}
			mod = ofp.FlowMod{
				Command: ofp.FlowAdd, Priority: flowPriority,
				Match: prefix, OutPort: port,
			}
		}
		frame, err := ofp.Marshal(mod, c.nextXid())
		if err != nil {
			continue
		}
		if m.send(frame) == nil {
			c.stats.FlowModsSent++
		}
	}
}

// updateAnnouncements drives every external session's view of prefix:
// announce the border's best cluster path (with the full internal AS
// sequence, keeping the cluster transparent to the legacy world) or
// withdraw.
func (c *Controller) updateAnnouncements(prefix netip.Prefix, res routingResult) {
	keys := make([]SessKey, 0, len(c.sessions))
	for k := range c.sessions {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Border != keys[j].Border {
			return keys[i].Border < keys[j].Border
		}
		return keys[i].Port < keys[j].Port
	})
	for _, k := range keys {
		es := c.sessions[k]
		if !es.established {
			continue
		}
		attrs, ok := c.announcementFor(k, es, prefix, res)
		if !ok {
			if es.sess.WithdrawPrefix(prefix) == nil {
				c.stats.WithdrawCommands++
			}
			continue
		}
		if es.sess.Announce(prefix, attrs) == nil {
			c.stats.AnnounceCommands++
		}
	}
}

// announcementFor builds the AS path announced for prefix on session k
// (border b): the internal member sequence from b to the egress or
// owner, then the external route's path. ok is false when nothing may
// be announced (no route, split horizon, or receiver loop).
func (c *Controller) announcementFor(k SessKey, es *extSession, prefix netip.Prefix, res routingResult) (wire.PathAttrs, bool) {
	b := k.Border
	internal, reachable := res.forwardingPath(b)
	if !reachable {
		return wire.PathAttrs{}, false
	}
	egressMember := internal[len(internal)-1]
	var attrs wire.PathAttrs
	if res.owner != 0 && egressMember == res.owner {
		// Cluster-originated and internally reachable: the path is
		// just the internal member sequence.
		attrs = wire.PathAttrs{Origin: wire.OriginIGP, ASPath: wire.NewASPath(internal...)}
	} else {
		cand, isEgress := res.egress[egressMember]
		if !isEgress {
			return wire.PathAttrs{}, false
		}
		// Split horizon: never announce back over the session the
		// route exits through.
		if cand.key == k {
			return wire.PathAttrs{}, false
		}
		attrs = cand.attrs.Clone()
		attrs.ASPath = prependSequence(internal, attrs.ASPath)
		attrs.MED = nil
		attrs.LocalPref = nil
	}
	// Receiver-side loop prevention: the neighbor would reject paths
	// containing itself anyway; skip the no-op announcement.
	if attrs.ASPath.Contains(es.remote) {
		return wire.PathAttrs{}, false
	}
	return attrs, true
}
