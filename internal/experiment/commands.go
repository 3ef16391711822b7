package experiment

import (
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp/wire"
	"repro/internal/frames"
	"repro/internal/idr"
)

// OriginPrefix returns the prefix an AS originates under the address
// plan.
func (e *Experiment) OriginPrefix(asn idr.ASN) (netip.Prefix, error) {
	return e.Plan.OriginPrefix(asn)
}

// Announce originates the AS's planned prefix: via its BGP router for
// legacy ASes, via the IDR controller for cluster members.
func (e *Experiment) Announce(asn idr.ASN) error { return e.do(Command{Kind: "announce", A: asn}) }

func (e *Experiment) announce(asn idr.ASN) error {
	prefix, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	if e.IsSDNMember(asn) {
		// The cluster's routes reach routers too: no handshake may
		// still be computed (bgp.Router.Announce does this for its own).
		e.opening.Replay()
		return e.Ctrl.OriginatePrefix(asn, prefix)
	}
	r, ok := e.Routers[asn]
	if !ok {
		return fmt.Errorf("experiment: unknown AS %v", asn)
	}
	return r.Announce(prefix)
}

// Withdraw retracts the AS's planned prefix.
func (e *Experiment) Withdraw(asn idr.ASN) error { return e.do(Command{Kind: "withdraw", A: asn}) }

func (e *Experiment) withdraw(asn idr.ASN) error {
	prefix, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	if e.IsSDNMember(asn) {
		return e.Ctrl.WithdrawOriginated(prefix)
	}
	r, ok := e.Routers[asn]
	if !ok {
		return fmt.Errorf("experiment: unknown AS %v", asn)
	}
	return r.Withdraw(prefix)
}

// AnnounceForeign originates prefix at asn even though the address
// plan assigns the prefix to a different AS — the prefix-hijack
// trigger. Only legacy routers can originate foreign prefixes;
// cluster members announce through the controller's planned
// origination (Announce).
func (e *Experiment) AnnounceForeign(asn idr.ASN, prefix netip.Prefix) error {
	return e.do(Command{Kind: "announce-foreign", A: asn, Prefix: prefix})
}

func (e *Experiment) announceForeign(asn idr.ASN, prefix netip.Prefix) error {
	r, ok := e.Routers[asn]
	if !ok {
		return fmt.Errorf("experiment: %v is not a legacy BGP router", asn)
	}
	return r.Announce(prefix)
}

// Link returns the emulated link between two ASes.
func (e *Experiment) Link(a, b idr.ASN) (linkUp bool, exists bool) {
	l, ok := e.links[linkKey(a, b)]
	if !ok {
		return false, false
	}
	return l.Up(), true
}

// FailLink takes the a-b link down (dynamic topology change).
func (e *Experiment) FailLink(a, b idr.ASN) error {
	return e.do(Command{Kind: "fail-link", A: a, B: b})
}

func (e *Experiment) failLink(a, b idr.ASN) error {
	l, ok := e.links[linkKey(a, b)]
	if !ok {
		return fmt.Errorf("experiment: no link %v-%v", a, b)
	}
	// A computed handshake never sees its link go down (bgp.Opening).
	e.opening.Replay()
	l.SetUp(false)
	return nil
}

// RestoreLink brings the a-b link back up.
func (e *Experiment) RestoreLink(a, b idr.ASN) error {
	return e.do(Command{Kind: "restore-link", A: a, B: b})
}

func (e *Experiment) restoreLink(a, b idr.ASN) error {
	l, ok := e.links[linkKey(a, b)]
	if !ok {
		return fmt.Errorf("experiment: no link %v-%v", a, b)
	}
	l.SetUp(true)
	return nil
}

// RunFor advances virtual time by d.
func (e *Experiment) RunFor(d time.Duration) error { return e.K.RunFor(d) }

// WaitConverged advances the clock until routing activity has been
// quiet for the detector's window (paper: "the framework detects when the
// network has converged") and returns how long convergence took,
// measured from the detector's last activity when it is called to the
// final routing activity.
func (e *Experiment) WaitConverged(timeout time.Duration) (time.Duration, error) {
	start := e.Detector.LastActivity()
	// The triggering command touched the detector (do); measure from there.
	instant, err := e.Detector.WaitConverged(e.K, timeout)
	if err != nil {
		return 0, err
	}
	return instant.Sub(start), nil
}

// MeasureConvergence runs trigger, then waits for quiescence and
// returns the convergence time: the interval between the trigger and
// the last routing activity it caused. A trigger that runs a command
// touches the detector there (do).
func (e *Experiment) MeasureConvergence(trigger func() error, timeout time.Duration) (time.Duration, error) {
	t0 := e.K.Now()
	if err := trigger(); err != nil {
		return 0, err
	}
	instant, err := e.Detector.WaitConverged(e.K, timeout)
	if err != nil {
		return 0, err
	}
	d := instant.Sub(t0)
	if d < 0 {
		d = 0
	}
	return d, nil
}

// forwardFromRouter forwards a probe at a legacy router using its
// Loc-RIB, delivering locally when the destination is in the router's
// own origin prefix.
func (e *Experiment) forwardFromRouter(asn idr.ASN, p frames.Probe) error {
	origin, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	if origin.Contains(p.Dst) {
		e.Probes.OnDelivered(p)
		return nil
	}
	if p.TTL == 0 {
		return nil
	}
	r := e.Routers[asn]
	route, ok := r.Table().Lookup(p.Dst)
	if !ok || route.Local {
		return nil // blackhole: no route
	}
	l, ok := e.links[linkKey(asn, route.PeerASN)]
	if !ok {
		return nil
	}
	p.TTL--
	payload, err := frames.EncodeProbe(p)
	if err != nil {
		return err
	}
	return l.end(asn, route.PeerASN).ep.Send(frames.Encode(frames.KindProbe, payload))
}

// InjectProbe sends one probe from src's host to dst's host address
// and registers it with the probe engine.
func (e *Experiment) InjectProbe(src, dst idr.ASN) error {
	return e.do(Command{Kind: "inject-probe", A: src, B: dst})
}

func (e *Experiment) injectProbe(src, dst idr.ASN) error {
	srcAddr, err := e.Plan.HostAddr(src, 10)
	if err != nil {
		return err
	}
	dstAddr, err := e.Plan.HostAddr(dst, 10)
	if err != nil {
		return err
	}
	e.registerProbeSource(src)
	return e.Probes.Send(src, dst, srcAddr, dstAddr)
}

func (e *Experiment) registerProbeSource(src idr.ASN) {
	if sw, ok := e.Switches[src]; ok {
		e.Probes.RegisterSource(src, sw.InjectProbe)
		return
	}
	e.Probes.RegisterSource(src, func(p frames.Probe) error {
		return e.forwardFromRouter(src, p)
	})
}

// BestPath returns the AS path an AS currently uses toward the
// destination AS's origin prefix. For cluster members the path is the
// controller's computed route (internal members then external path);
// for legacy ASes it is the Loc-RIB best path. ok is false when there
// is no route.
func (e *Experiment) BestPath(from, to idr.ASN) (wire.ASPath, bool) {
	prefix, err := e.Plan.OriginPrefix(to)
	if err != nil {
		return nil, false
	}
	if e.IsSDNMember(from) {
		return e.Ctrl.PathFrom(from, prefix)
	}
	r, ok := e.Routers[from]
	if !ok {
		return nil, false
	}
	best, ok := r.Table().Best(prefix)
	if !ok {
		return nil, false
	}
	return best.Attrs.ASPath, true
}

// Reachable reports whether from currently has a route toward to's
// origin prefix.
func (e *Experiment) Reachable(from, to idr.ASN) bool {
	if from == to {
		return true
	}
	_, ok := e.BestPath(from, to)
	return ok
}

// AllReachable reports whether every AS has a route to dst (dst's own
// view excluded).
func (e *Experiment) AllReachable(dst idr.ASN) bool {
	for _, asn := range e.cfg.Graph.Nodes() {
		if asn == dst {
			continue
		}
		if !e.Reachable(asn, dst) {
			return false
		}
	}
	return true
}

// IsSDNMember reports whether asn is operated by the controller.
func (e *Experiment) IsSDNMember(asn idr.ASN) bool {
	_, ok := e.Switches[asn]
	return ok
}

// ASNs returns the topology's AS numbers.
func (e *Experiment) ASNs() []idr.ASN { return e.cfg.Graph.Nodes() }
