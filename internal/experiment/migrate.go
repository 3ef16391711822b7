package experiment

import (
	"fmt"

	"repro/internal/idr"
)

// Migrate toggles an AS between legacy BGP and the SDN cluster while
// the experiment runs — the workload engine's "migrate" event. A
// legacy AS joins the cluster (MigrateIn); a member leaves it
// (MigrateOut).
func (e *Experiment) Migrate(asn idr.ASN) error {
	if e.IsSDNMember(asn) {
		return e.MigrateOut(asn)
	}
	return e.MigrateIn(asn)
}

// migratable rejects configurations the mid-run rewiring does not
// support.
func (e *Experiment) migratable(asn idr.ASN) error {
	if !e.started {
		return fmt.Errorf("experiment: migrate before Start; configure membership instead")
	}
	if !e.cfg.Graph.HasNode(asn) {
		return fmt.Errorf("experiment: unknown AS %v", asn)
	}
	if e.Ctrl == nil {
		return fmt.Errorf("experiment: migration needs a controller; build the experiment with at least one SDN member")
	}
	return nil
}

// MigrateIn converts a legacy AS into an SDN cluster member mid-run:
// its BGP router is torn down, an OpenFlow switch takes over its node
// and links, the controller terminates the eBGP sessions its legacy
// neighbors re-establish, and links to member neighbors become
// intra-cluster switch-graph edges. The AS's prefix origination (if
// currently announced) moves to the controller.
func (e *Experiment) MigrateIn(asn idr.ASN) error { return e.do(Command{Kind: "migrate-in", A: asn}) }

func (e *Experiment) migrateIn(asn idr.ASN) error {
	if err := e.migratable(asn); err != nil {
		return err
	}
	r, ok := e.Routers[asn]
	if !ok {
		return fmt.Errorf("experiment: %v is already a cluster member", asn)
	}
	origin, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	_, announced := r.Table().Local(origin)

	// Retire the router: drop every session (neighbors see the
	// transport reset) and fold its counters into the retired totals.
	for _, p := range r.Sessions() {
		p.TransportDown()
	}
	st := r.Stats()
	e.retiredSent += st.UpdatesSent
	e.retiredRecv += st.UpdatesReceived
	delete(e.Routers, asn)
	for _, nb := range e.cfg.Graph.Neighbors(asn) {
		e.links[linkKey(asn, nb)].end(asn, nb).peer = nil
	}

	// Raise the switch on the same node with a fresh control channel.
	ctrlNode, ok := e.Net.Node(ControllerNodeName)
	if !ok {
		return fmt.Errorf("experiment: controller node missing")
	}
	if err := e.buildSwitch(asn, e.nodes[asn], ctrlNode); err != nil {
		return err
	}

	// Rewire every incident link: legacy neighbors reset their session
	// and re-establish it with the controller's speaker on the same
	// endpoint; a member neighbor's external peering toward the old
	// router becomes an intra-cluster switch-graph edge.
	for _, nb := range e.cfg.Graph.Neighbors(asn) {
		if err := e.wire(asn, nb); err != nil {
			return err
		}
	}
	e.syncDownLinks(asn)

	if announced {
		if err := e.Ctrl.OriginatePrefix(asn, origin); err != nil {
			return err
		}
	}
	e.registerProbeSource(asn)
	return nil
}

// MigrateOut converts a cluster member back into a legacy BGP router
// mid-run: the controller retracts the member (withdrawing its routes
// from the cluster computation), a fresh router takes over the node
// and re-peers with every neighbor — member neighbors gain a new
// external peering toward it. A cluster-originated prefix owned by the
// member is re-originated by the reborn router.
func (e *Experiment) MigrateOut(asn idr.ASN) error { return e.do(Command{Kind: "migrate-out", A: asn}) }

func (e *Experiment) migrateOut(asn idr.ASN) error {
	if err := e.migratable(asn); err != nil {
		return err
	}
	if !e.IsSDNMember(asn) {
		return fmt.Errorf("experiment: %v is not a cluster member", asn)
	}
	origin, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	owned := false
	if owner, ok := e.Ctrl.Originator(origin); ok && owner == asn {
		owned = true
		if err := e.Ctrl.WithdrawOriginated(origin); err != nil {
			return err
		}
	}
	if err := e.Ctrl.RemoveMember(asn); err != nil {
		return err
	}
	// Tear the switch down: kill the control channel (dropping
	// in-flight OpenFlow frames) and take the ports off its link ends.
	ctrl := e.ctrlLinkOf[asn]
	ctrl.SetUp(false)
	ctrl.SetTag(nil)
	delete(e.ctrlLinkOf, asn)
	delete(e.Switches, asn)
	for _, nb := range e.cfg.Graph.Neighbors(asn) {
		en := e.links[linkKey(asn, nb)].end(asn, nb)
		en.sw, en.port = nil, 0
	}

	// Raise the router on the node and re-peer with every neighbor: a
	// member neighbor's intra-cluster port becomes an external peering
	// terminated by the controller; a legacy neighbor's session pointed
	// at the speaker and is reset so both router ends re-establish
	// directly.
	if err := e.buildRouter(asn, e.nodes[asn]); err != nil {
		return err
	}
	for _, nb := range e.cfg.Graph.Neighbors(asn) {
		if err := e.wire(asn, nb); err != nil {
			return err
		}
	}
	e.syncDownLinks(asn)

	if owned {
		if err := e.Routers[asn].Announce(origin); err != nil {
			return err
		}
	}
	e.registerProbeSource(asn)
	return nil
}

// syncDownLinks replays a "down" transition through the freshly wired
// state hooks of asn's incident links that are currently down.
// Controller ports default to up when registered, so without this a
// migration across a failed link would leave the controller routing
// over it until the link's next real transition.
func (e *Experiment) syncDownLinks(asn idr.ASN) {
	for _, nb := range e.cfg.Graph.Neighbors(asn) {
		if l := e.links[linkKey(asn, nb)]; !l.Up() {
			l.StateChanged(false)
		}
	}
}

// UpdateTotals returns the network-wide legacy BGP UPDATE counters,
// including the counters of routers retired by mid-run migration (so
// deltas taken across a migration stay monotonic).
func (e *Experiment) UpdateTotals() (sent, recv uint64) {
	sent, recv = e.retiredSent, e.retiredRecv
	//lint:maporder integer sums of per-router counters commute; Stats only reads
	for _, r := range e.Routers {
		s := r.Stats()
		sent += s.UpdatesSent
		recv += s.UpdatesReceived
	}
	return sent, recv
}

// Traffic returns the network-wide frame counters: the network's
// delivered, dropped and delivered-byte totals, with the KEEPALIVEs
// that quiet sessions have landed by arithmetic (bgp.Mating) counted as
// delivered, as if each had crossed its link.
func (e *Experiment) Traffic() (delivered, dropped, bytes uint64) {
	delivered, dropped, bytes = e.Net.Delivered, e.Net.Dropped, e.Net.BytesDelivered
	//lint:maporder integer sums of per-link counters commute; Landed only reads
	for _, l := range e.links {
		n, b := l.mating.Landed()
		delivered += n
		bytes += b
	}
	return delivered, dropped, bytes
}
