// Package policy implements the framework's BGP policy templates
// (paper §3: the framework "configures network devices, including
// customer-to-provider and peer-to-peer relationships").
//
// Three templates ship with the framework:
//
//   - PermitAll: free transit between all neighbors, the classic
//     setting for artificial topologies such as the Figure 2 clique,
//     where every AS re-exports everything and withdrawal triggers
//     full path exploration;
//   - GaoRexford: valley-free business routing for measured
//     topologies — prefer customer routes, export customer routes to
//     everyone, export peer/provider routes only to customers;
//   - ConeFilter: IRR-style prefix-list filtering layered over any
//     inner policy — imports from customers and peers are accepted
//     only for prefixes whose legitimate origin lies inside that
//     neighbor's customer cone (the classic hijack defense).
//
// The evaluation API names these templates through lab.PolicySpec
// ("permit-all", "gao-rexford", "prefix-filter"); the scenario DSL's
// policy directive and the convergence CLI's -policy flag accept the
// same names.
package policy

import (
	"net/netip"

	"repro/internal/bgp/rib"
	"repro/internal/idr"
	"repro/internal/topology"
)

// Neighbor describes one BGP neighbor for policy evaluation.
type Neighbor struct {
	// Key is the session's identifier on the local router.
	Key rib.PeerKey
	// ASN is the neighbor's AS number.
	ASN idr.ASN
	// Kind is the neighbor's business relationship as seen from the
	// local AS (customer, peer, provider; KindNone when unrelated).
	Kind topology.NeighborKind
}

// Local is the pseudo-neighbor representing locally-originated routes
// when they are evaluated for export.
var Local = Neighbor{Kind: topology.KindNone}

// Policy decides route admission and propagation. Import may modify
// the route in place by replacing attribute fields (set LOCAL_PREF,
// assign a fresh ASPath); it must not mutate slice contents or
// pointed-to values, because attribute sets are shared structurally
// across the import and export paths. Export must not modify the route
// at all.
type Policy interface {
	// Import filters a route learned from 'from'; returning false
	// rejects it before it reaches the Adj-RIB-In.
	Import(from Neighbor, r *rib.Route) bool

	// Export decides whether a route learned from 'learnedFrom'
	// (policy.Local for originated routes) may be advertised to 'to'.
	Export(to, learnedFrom Neighbor, r *rib.Route) bool
}

// PermitAll accepts and propagates everything (full transit).
type PermitAll struct{}

// Import implements Policy.
func (PermitAll) Import(Neighbor, *rib.Route) bool { return true }

// Export implements Policy.
func (PermitAll) Export(Neighbor, Neighbor, *rib.Route) bool { return true }

// LOCAL_PREF values GaoRexford assigns on import.
const (
	CustomerPref uint32 = 200
	PeerPref     uint32 = 100
	ProviderPref uint32 = 50
)

// GaoRexford implements valley-free routing.
type GaoRexford struct{}

// Import implements Policy: it assigns LOCAL_PREF from the business
// relationship (customer > peer > provider).
func (GaoRexford) Import(from Neighbor, r *rib.Route) bool {
	var p uint32
	switch from.Kind {
	case topology.KindCustomer:
		p = CustomerPref
	case topology.KindPeer:
		p = PeerPref
	default:
		p = ProviderPref
	}
	r.Attrs.LocalPref = &p
	return true
}

// Export implements Policy: originated and customer-learned routes go
// to everyone; peer- and provider-learned routes go only to customers
// (no valleys, no peer-to-peer transit).
func (GaoRexford) Export(to, learnedFrom Neighbor, r *rib.Route) bool {
	switch learnedFrom.Kind {
	case topology.KindNone, topology.KindCustomer:
		return true
	default:
		return to.Kind == topology.KindCustomer
	}
}

// ConeFilter layers IRR-style prefix-list filtering over an inner
// policy: a route learned from a customer or from a peer is accepted
// only when the prefix's legitimate origin AS lies inside that
// neighbor's customer cone (the neighbor itself, its customers, their
// customers, and so on). Routes from providers are not filtered — a
// provider's announcements cannot be enumerated — and exports are
// delegated to the inner policy untouched.
//
// This is the framework's "prefix-filter" template: it models the
// per-customer prefix lists real transit providers build from IRR
// data, and it is the classic containment mechanism for prefix
// hijacks originated by stub networks.
type ConeFilter struct {
	// Inner is the wrapped policy (required; typically GaoRexford).
	Inner Policy
	// Origins maps each prefix to the AS that legitimately originates
	// it (the experiment's address plan).
	Origins map[netip.Prefix]idr.ASN
	// Cones maps each AS to its customer-cone membership set. An AS is
	// always a member of its own cone.
	Cones map[idr.ASN]map[idr.ASN]bool
}

// NewConeFilter computes every AS's customer cone from the topology's
// provider-customer edges and returns the assembled filter. The
// topology's P2C hierarchy must be acyclic (topology.Graph.Validate);
// on a cycle the affected cones are truncated rather than recursed
// into forever.
func NewConeFilter(inner Policy, g *topology.Graph, origins map[netip.Prefix]idr.ASN) ConeFilter {
	cones := make(map[idr.ASN]map[idr.ASN]bool, g.NumNodes())
	visiting := make(map[idr.ASN]bool)
	var cone func(asn idr.ASN) map[idr.ASN]bool
	cone = func(asn idr.ASN) map[idr.ASN]bool {
		if c, ok := cones[asn]; ok {
			return c
		}
		if visiting[asn] {
			// Provider-customer cycle: stop the recursion; Validate
			// rejects such graphs, this just keeps the builder total.
			return map[idr.ASN]bool{asn: true}
		}
		visiting[asn] = true
		c := map[idr.ASN]bool{asn: true}
		for _, customer := range g.Customers(asn) {
			for member := range cone(customer) {
				c[member] = true
			}
		}
		delete(visiting, asn)
		cones[asn] = c
		return c
	}
	for _, asn := range g.Nodes() {
		cone(asn)
	}
	return ConeFilter{Inner: inner, Origins: origins, Cones: cones}
}

// Import implements Policy: customer and peer routes are checked
// against the neighbor's customer cone before the inner policy runs.
func (f ConeFilter) Import(from Neighbor, r *rib.Route) bool {
	switch from.Kind {
	case topology.KindCustomer, topology.KindPeer:
		origin, known := f.Origins[r.Prefix]
		if !known || !f.Cones[from.ASN][origin] {
			return false
		}
	}
	return f.Inner.Import(from, r)
}

// Export implements Policy by delegating to the inner policy.
func (f ConeFilter) Export(to, learnedFrom Neighbor, r *rib.Route) bool {
	return f.Inner.Export(to, learnedFrom, r)
}
