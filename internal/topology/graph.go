// Package topology models AS-level topologies and produces them from
// theoretical generators (clique, ring, trees, random graphs) or from
// measured-data formats (CAIDA AS relationships, iPlane inter-PoP
// links), mirroring the paper's framework (§3): "topologies can be
// either artificial or built from the iPlane Inter-PoP links and the
// CAIDA AS Relationship datasets".
package topology

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/idr"
)

// Relationship is the business relationship carried by an inter-AS
// link, following the CAIDA AS-relationship convention.
type Relationship int8

const (
	// P2P marks a settlement-free peering between two ASes
	// (CAIDA code 0).
	P2P Relationship = 0
	// P2C marks a provider-to-customer link; the edge's A side is the
	// provider and the B side the customer (CAIDA code -1).
	P2C Relationship = -1
)

// String returns the conventional name of the relationship.
func (r Relationship) String() string {
	switch r {
	case P2P:
		return "p2p"
	case P2C:
		return "p2c"
	default:
		return fmt.Sprintf("Relationship(%d)", int8(r))
	}
}

// Edge is an undirected inter-AS adjacency with business semantics.
// For P2C edges the direction matters: A is the provider of B. For P2P
// edges A and B are interchangeable.
type Edge struct {
	A, B idr.ASN
	Rel  Relationship
	// Delay is the one-way propagation delay of the link. Zero means
	// "use the experiment default".
	Delay time.Duration
}

// Other returns the far endpoint of the edge as seen from asn.
func (e Edge) Other(asn idr.ASN) idr.ASN {
	if e.A == asn {
		return e.B
	}
	return e.A
}

// Canonical returns the edge with endpoints ordered so that equal links
// compare equal: P2P edges are stored with A < B; P2C edges keep their
// provider→customer orientation.
func (e Edge) Canonical() Edge {
	if e.Rel == P2P && e.B < e.A {
		e.A, e.B = e.B, e.A
	}
	return e
}

// Graph is an AS-level topology: a set of AS numbers plus annotated
// edges. The zero value is an empty graph ready to use.
//
// A Graph is not safe for concurrent use, queries included: Edges,
// Validate and the adjacency accessors (Neighbors, Degree, Providers,
// Customers, Peers and everything built on them) fill derived caches
// on first use.
type Graph struct {
	nodes map[idr.ASN]bool
	edges map[[2]idr.ASN]Edge // keyed by canonical endpoints
	// order and adj are derived from edges: order is every edge in
	// Edges order, and adj per node its incident half-edges in
	// ascending neighbour order. Each is built by the first query that
	// needs it and dropped (nil) by every edge mutation; a Clone starts
	// without them.
	order []Edge
	adj   map[idr.ASN][]halfEdge
}

// halfEdge is one end of an edge as its owning node sees it: the far
// endpoint and what that endpoint is to the owner.
type halfEdge struct {
	nb   idr.ASN
	kind NeighborKind
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		nodes: make(map[idr.ASN]bool),
		edges: make(map[[2]idr.ASN]Edge),
	}
}

// key packs the edge's endpoints into one word, the lower one in the
// high half: keys order edges as Edges does.
func (e Edge) key() uint64 {
	k := edgeKey(e.A, e.B)
	return uint64(k[0])<<32 | uint64(k[1])
}

func edgeKey(a, b idr.ASN) [2]idr.ASN {
	if b < a {
		a, b = b, a
	}
	return [2]idr.ASN{a, b}
}

// AddNode ensures asn is present in the graph.
func (g *Graph) AddNode(asn idr.ASN) {
	g.nodes[asn] = true
}

// AddEdge inserts (or replaces) the link between e.A and e.B, adding
// the endpoints as needed. Self-loops are rejected.
func (g *Graph) AddEdge(e Edge) error {
	if e.A == e.B {
		return fmt.Errorf("topology: self-loop on %v", e.A)
	}
	g.AddNode(e.A)
	g.AddNode(e.B)
	g.edges[edgeKey(e.A, e.B)] = e.Canonical()
	g.order, g.adj = nil, nil
	return nil
}

// RemoveEdge deletes the link between a and b, reporting whether it
// existed.
func (g *Graph) RemoveEdge(a, b idr.ASN) bool {
	k := edgeKey(a, b)
	if _, ok := g.edges[k]; !ok {
		return false
	}
	delete(g.edges, k)
	g.order, g.adj = nil, nil
	return true
}

// HasNode reports whether asn is in the graph.
func (g *Graph) HasNode(asn idr.ASN) bool { return g.nodes[asn] }

// HasEdge reports whether a link exists between a and b.
func (g *Graph) HasEdge(a, b idr.ASN) bool {
	_, ok := g.edges[edgeKey(a, b)]
	return ok
}

// EdgeBetween returns the link between a and b.
func (g *Graph) EdgeBetween(a, b idr.ASN) (Edge, bool) {
	e, ok := g.edges[edgeKey(a, b)]
	return e, ok
}

// NumNodes returns the number of ASes.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of links.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Nodes returns all AS numbers in ascending order.
func (g *Graph) Nodes() []idr.ASN { return idr.SortedKeys(g.nodes) }

// Edges returns all edges ordered by (lower, higher) endpoint, in a
// slice of the caller's own.
func (g *Graph) Edges() []Edge { return slices.Clone(g.sorted()) }

// sorted returns the edges in Edges order, sorting them if an edge
// mutation (or nothing yet) left the graph without the order. The
// slice is the graph's: callers only read it.
func (g *Graph) sorted() []Edge {
	if g.order == nil {
		g.order = make([]Edge, 0, len(g.edges))
		//lint:maporder the order is sorted right below
		for _, e := range g.edges {
			g.order = append(g.order, e)
		}
		slices.SortFunc(g.order, func(x, y Edge) int { return cmp.Compare(x.key(), y.key()) })
	}
	return g.order
}

// incident returns asn's half-edges in ascending neighbour order,
// building the index if an edge mutation (or nothing yet) left the
// graph without one. The edge order is by (low, high) endpoint, so a
// node's lower neighbours arrive first, in order, and its higher ones
// after them, in order: every list comes out ascending with no sort of
// its own.
func (g *Graph) incident(asn idr.ASN) []halfEdge {
	if g.adj == nil {
		g.adj = make(map[idr.ASN][]halfEdge, len(g.nodes))
		for _, e := range g.sorted() {
			ka, kb := KindNone, KindNone // an unknown Rel: a neighbour of no kind
			switch e.Rel {
			case P2P:
				ka, kb = KindPeer, KindPeer
			case P2C: // A is the provider, so B is A's customer
				ka, kb = KindCustomer, KindProvider
			}
			g.adj[e.A] = append(g.adj[e.A], halfEdge{e.B, ka})
			g.adj[e.B] = append(g.adj[e.B], halfEdge{e.A, kb})
		}
	}
	return g.adj[asn]
}

// neighborsOfKind returns asn's neighbours of the given kind (every
// neighbour for KindNone), ascending; nil when there are none.
func (g *Graph) neighborsOfKind(asn idr.ASN, kind NeighborKind) []idr.ASN {
	var out []idr.ASN
	for _, h := range g.incident(asn) {
		if kind == KindNone || h.kind == kind {
			out = append(out, h.nb)
		}
	}
	return out
}

// Neighbors returns the ASes adjacent to asn in ascending order.
func (g *Graph) Neighbors(asn idr.ASN) []idr.ASN { return g.neighborsOfKind(asn, KindNone) }

// Degree returns the number of links attached to asn.
func (g *Graph) Degree(asn idr.ASN) int { return len(g.incident(asn)) }

// Providers returns the providers of asn (ASes on the provider side of
// a P2C edge whose customer side is asn), ascending.
func (g *Graph) Providers(asn idr.ASN) []idr.ASN { return g.neighborsOfKind(asn, KindProvider) }

// Customers returns the customers of asn, ascending.
func (g *Graph) Customers(asn idr.ASN) []idr.ASN { return g.neighborsOfKind(asn, KindCustomer) }

// Peers returns the settlement-free peers of asn, ascending.
func (g *Graph) Peers(asn idr.ASN) []idr.ASN { return g.neighborsOfKind(asn, KindPeer) }

// RelationshipOf returns the relationship of neighbor as seen from asn:
// what the neighbor is *to* asn.
func (g *Graph) RelationshipOf(asn, neighbor idr.ASN) (NeighborKind, bool) {
	e, ok := g.EdgeBetween(asn, neighbor)
	if !ok {
		return KindNone, false
	}
	switch {
	case e.Rel == P2P:
		return KindPeer, true
	case e.A == asn: // asn is the provider, so the neighbor is a customer
		return KindCustomer, true
	default:
		return KindProvider, true
	}
}

// NeighborKind classifies a neighbor from the local AS's point of view.
type NeighborKind int8

const (
	// KindNone means no relationship (no link).
	KindNone NeighborKind = iota
	// KindCustomer: the neighbor pays us for transit.
	KindCustomer
	// KindPeer: settlement-free peer.
	KindPeer
	// KindProvider: we pay the neighbor for transit.
	KindProvider
)

// String names the neighbor kind.
func (k NeighborKind) String() string {
	switch k {
	case KindCustomer:
		return "customer"
	case KindPeer:
		return "peer"
	case KindProvider:
		return "provider"
	default:
		return "none"
	}
}

// Connected reports whether the graph is connected (ignoring edge
// direction and relationships). The empty graph is connected.
func (g *Graph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	var start idr.ASN
	//lint:maporder any start node yields the same connectivity verdict
	for n := range g.nodes {
		start = n
		break
	}
	seen := map[idr.ASN]bool{start: true}
	queue := []idr.ASN{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, h := range g.incident(cur) {
			if !seen[h.nb] {
				seen[h.nb] = true
				queue = append(queue, h.nb)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	for n := range g.nodes {
		c.nodes[n] = true
	}
	for k, e := range g.edges {
		c.edges[k] = e
	}
	return c
}

// Validate checks structural invariants: every edge endpoint is a node
// and the provider hierarchy (P2C edges) is acyclic, the standard
// sanity condition for Gao-Rexford topologies.
func (g *Graph) Validate() error {
	// Sorted edges and nodes keep the reported violation deterministic.
	for _, e := range g.sorted() {
		if !g.nodes[e.A] || !g.nodes[e.B] {
			return fmt.Errorf("topology: edge %v-%v references unknown node", e.A, e.B)
		}
	}
	// Detect a cycle in the directed provider→customer graph.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[idr.ASN]int, len(g.nodes))
	var visit func(idr.ASN) error
	visit = func(n idr.ASN) error {
		color[n] = gray
		for _, h := range g.incident(n) {
			if h.kind != KindCustomer {
				continue
			}
			switch color[h.nb] {
			case gray:
				return fmt.Errorf("topology: provider-customer cycle through %v and %v", n, h.nb)
			case white:
				if err := visit(h.nb); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range g.Nodes() {
		if color[n] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}
