// Package experiment is the framework's high-level orchestration API
// (paper §2: "the user should be able to actively control the
// experiments" while the framework "takes care of configuration
// management"). Given an AS-level topology, a set of SDN cluster
// members and a policy template, it builds the whole emulated network:
//
//   - one BGP router per legacy AS (internal/bgp),
//   - one OpenFlow switch per cluster member plus the IDR controller,
//     which terminates the cluster's eBGP sessions itself
//     (internal/sdn, internal/core),
//   - automatic address/prefix assignment (internal/addressing),
//   - convergence detection, probe-based loss measurement and event
//     logging (internal/monitor), fed by every router's trace hook.
//
// Experiment lifecycle commands mirror the paper's Mininet-BGP
// commands: Announce, Withdraw, FailLink, RestoreLink, WaitConverged.
package experiment

import (
	"fmt"
	"time"

	"repro/internal/addressing"
	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/core"
	"repro/internal/frames"
	"repro/internal/idr"
	"repro/internal/monitor"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sdn"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Config describes one experiment.
type Config struct {
	// Seed drives all randomness (MRAI jitter, loss draws); two runs
	// with the same config and seed are identical.
	Seed int64
	// Graph is the AS-level topology (required, connected).
	Graph *topology.Graph
	// SDNMembers lists the ASes operated as SDN cluster switches under
	// the IDR controller. Empty means pure BGP.
	SDNMembers []idr.ASN
	// Policy is the BGP policy template (default policy.PermitAll).
	Policy policy.Policy
	// Timers are the BGP protocol timers (default bgp.DefaultTimers).
	Timers bgp.Timers
	// Debounce is the controller's delayed-recomputation window.
	// Zero selects the controller default (core.DefaultDebounce); a
	// negative value disables the delay entirely (recompute
	// immediately). This zero/negative convention is shared verbatim
	// with lab.Trial.Debounce and core.Config.Debounce — a zero-length
	// window is the same thing as disabled, so express "no debounce"
	// with a negative value (the convergence CLI maps an explicit
	// -debounce 0 to disabled).
	Debounce time.Duration
	// LinkDelay is the default inter-AS link delay (default
	// netem.DefaultDelay); per-edge delays from the topology override.
	LinkDelay time.Duration
	// LinkLoss is the per-transmission loss probability in [0, 1]
	// applied to every inter-AS topology link (the control links to
	// the controller stay clean). Every frame, BGP or probe, recovers
	// lost attempts with retransmission delays. See
	// netem.LinkConfig.Loss.
	LinkLoss float64
	// ProcessingDelay is each router's per-UPDATE processing cost
	// (see bgp.Config.ProcessingDelay). Zero disables the model.
	ProcessingDelay time.Duration
	// Damping enables RFC 2439 route-flap damping on every legacy
	// router (nil = off).
	Damping *bgp.DampingConfig
	// WallLimit bounds the real time the kernel spends running events,
	// a restore's replay included (sim.Kernel.WallLimit; zero for no
	// bound). It can turn a run into sim.ErrWallBudget, never change
	// what a run that finishes computes.
	WallLimit time.Duration
}

// Experiment is one built emulation.
type Experiment struct {
	cfg Config
	// seed is the seed New built the run under; a fork (Restore) moves
	// cfg.Seed on.
	seed int64
	// log holds every command that succeeded, stamped (Snapshot).
	log []Command

	// K is the run's private discrete-event kernel; all protocol code
	// and measurement run on its virtual clock.
	K *sim.Kernel
	// Net is the emulated link substrate the frames cross.
	Net *netem.Network
	// Plan is the deterministic address plan: one origin /24 and
	// router ID per AS, and the /30 of every link by its number.
	Plan *addressing.Plan
	// Routers holds the legacy BGP daemons by AS (cluster members have
	// no entry; a migrated-out AS regains one).
	Routers map[idr.ASN]*bgp.Router
	// Switches holds the cluster members' OpenFlow-like switches; its
	// key set is the cluster membership.
	Switches map[idr.ASN]*sdn.Switch
	// Ctrl is the IDR controller (nil in pure-BGP experiments).
	Ctrl *core.Controller
	// Detector is the quiescence-based convergence detector.
	Detector *monitor.Detector
	// Log is the event log behind path-exploration analysis.
	Log *monitor.EventLog
	// Probes is the data-plane probe engine (loss measurements).
	Probes *monitor.ProbeEngine

	// nodes holds each AS's netem node, which its router or switch
	// runs on and a migration keeps.
	nodes map[idr.ASN]*netem.Node
	// peerKeys holds the session key toward each AS (peerKey).
	peerKeys map[idr.ASN]rib.PeerKey
	// links holds one record per topology edge, keyed by linkKey.
	links map[[2]idr.ASN]*link
	// ctrlLinkOf maps a member to its control link (torn down on
	// migration).
	ctrlLinkOf map[idr.ASN]*netem.Link
	// retiredSent/retiredRecv accumulate the UPDATE counters of
	// routers torn down by migration, so UpdateTotals stays monotonic.
	retiredSent, retiredRecv uint64

	// crashedMembers remembers the cluster membership at the instant of
	// a controller crash (ControllerDown), so recovery re-joins exactly
	// the members that fell back to legacy BGP.
	crashedMembers []idr.ASN
	// partitionCut is the seeded AS cut whose links Partition failed
	// (nil while the network is whole); Heal restores them.
	partitionCut [][2]idr.ASN

	started bool
	// opening is Start's bring-up of the routers' sessions, which
	// replays any handshake it still computes before the cluster
	// originates a route or a link goes down.
	opening *bgp.Opening
}

func linkKey(a, b idr.ASN) [2]idr.ASN {
	if b < a {
		a, b = b, a
	}
	return [2]idr.ASN{a, b}
}

// ControllerNodeName is the netem node hosting the controller and the
// cluster BGP speaker.
const ControllerNodeName = "controller"

// controlDelay is the delay of the control channel from each switch
// to the controller.
const controlDelay = time.Millisecond

// New builds the experiment network. Nothing runs until Start.
func New(cfg Config) (*Experiment, error) {
	if cfg.Graph == nil || cfg.Graph.NumNodes() == 0 {
		return nil, fmt.Errorf("experiment: config needs a topology")
	}
	if !cfg.Graph.Connected() {
		return nil, fmt.Errorf("experiment: topology must be connected")
	}
	if cfg.Policy == nil {
		cfg.Policy = policy.PermitAll{}
	}
	if !(cfg.LinkLoss >= 0 && cfg.LinkLoss <= 1) {
		return nil, fmt.Errorf("experiment: link loss %v outside [0, 1]", cfg.LinkLoss)
	}

	e := &Experiment{
		cfg:        cfg,
		seed:       cfg.Seed,
		K:          sim.NewKernel(cfg.Seed),
		Routers:    make(map[idr.ASN]*bgp.Router),
		Switches:   make(map[idr.ASN]*sdn.Switch),
		nodes:      make(map[idr.ASN]*netem.Node, cfg.Graph.NumNodes()),
		peerKeys:   make(map[idr.ASN]rib.PeerKey, cfg.Graph.NumNodes()),
		links:      make(map[[2]idr.ASN]*link, cfg.Graph.NumEdges()),
		ctrlLinkOf: make(map[idr.ASN]*netem.Link),
	}
	e.K.WallLimit = cfg.WallLimit
	e.Net = netem.NewNetwork(e.K, e.K.Rand())
	// Every link draws its loss from a private stream derived from the
	// run seed, so lossy runs stay byte-reproducible no matter how
	// protocol randomness interleaves.
	e.Net.SeedLinks(cfg.Seed)
	e.Detector = monitor.NewDetector(e.K, monitor.Window(cfg.Timers.Resolved().MRAI))
	e.Log = monitor.NewEventLog()
	e.Probes = monitor.NewProbeEngine(e.K)

	members := make(map[idr.ASN]bool, len(cfg.SDNMembers))
	for _, m := range cfg.SDNMembers {
		if !cfg.Graph.HasNode(m) {
			return nil, fmt.Errorf("experiment: SDN member %v not in topology", m)
		}
		members[m] = true
	}

	plan, err := addressing.NewPlan(cfg.Graph.Nodes())
	if err != nil {
		return nil, err
	}
	e.Plan = plan

	if err := e.buildNodes(members); err != nil {
		return nil, err
	}
	if err := e.buildLinks(); err != nil {
		return nil, err
	}
	return e, nil
}

// trace fans router events into the log and the convergence detector.
func (e *Experiment) trace(ev bgp.TraceEvent) {
	e.Log.Append(ev)
	e.Detector.BGPActivityTrace(ev)
}

// buildNodes raises each AS's node with the device of its role: a
// switch for the members, a router for every other AS.
func (e *Experiment) buildNodes(members map[idr.ASN]bool) error {
	hasCluster := len(members) > 0
	var ctrlNode *netem.Node
	if hasCluster {
		var err error
		ctrlNode, err = e.Net.AddNode(ControllerNodeName)
		if err != nil {
			return err
		}
		e.Ctrl, err = core.New(core.Config{
			Clock:       e.K,
			Debounce:    e.cfg.Debounce,
			Timers:      e.cfg.Timers,
			OnRecompute: func(int) { e.Detector.Touch() },
		})
		if err != nil {
			return err
		}
	}

	for _, asn := range e.cfg.Graph.Nodes() {
		node, err := e.Net.AddNode(asn.String())
		if err != nil {
			return err
		}
		e.nodes[asn] = node
		if members[asn] {
			if err := e.buildSwitch(asn, node, ctrlNode); err != nil {
				return err
			}
			continue
		}
		if err := e.buildRouter(asn, node); err != nil {
			return err
		}
	}

	if hasCluster {
		// The controller node dispatches control frames per member
		// endpoint; the handler is installed when switches are built
		// via ctrlEndpoints. Install the shared dispatcher now.
		ctrlNode.OnMessage(func(from *netem.Endpoint, data []byte) {
			kind, payload, err := frames.Decode(data)
			if err != nil || kind != frames.KindOpenFlow {
				return
			}
			if asn, ok := from.Link().Tag().(idr.ASN); ok {
				_ = e.Ctrl.HandleControl(asn, payload)
			}
		})
	}
	return nil
}

func (e *Experiment) buildRouter(asn idr.ASN, node *netem.Node) error {
	id, err := e.Plan.RouterID(asn)
	if err != nil {
		return err
	}
	r, err := bgp.New(bgp.Config{
		ASN:             asn,
		RouterID:        id,
		Clock:           e.K,
		Rand:            e.K.Rand(),
		Policy:          e.cfg.Policy,
		Timers:          e.cfg.Timers,
		Trace:           e.trace,
		ProcessingDelay: e.cfg.ProcessingDelay,
		Damping:         e.cfg.Damping,
	})
	if err != nil {
		return err
	}
	e.Routers[asn] = r
	node.OnMessage(e.routerNodeHandler(asn))
	return nil
}

// routerNodeHandler is the receive handler of a legacy-router node. A
// BGP frame goes to the session on its endpoint's link end (endAt). A
// migration into the cluster replaces this handler with the switch's,
// so frames in flight across it never reach the torn-down router.
func (e *Experiment) routerNodeHandler(asn idr.ASN) func(from *netem.Endpoint, data []byte) {
	return func(from *netem.Endpoint, data []byte) {
		kind, payload, err := frames.Decode(data)
		if err != nil {
			return
		}
		switch kind {
		case frames.KindBGP:
			if en := endAt(from); en != nil && en.peer != nil {
				en.peer.Deliver(payload)
			}
		case frames.KindProbe:
			p, err := frames.DecodeProbe(payload)
			if err != nil {
				return
			}
			_ = e.forwardFromRouter(asn, p)
		}
	}
}

func (e *Experiment) buildSwitch(asn idr.ASN, node, ctrlNode *netem.Node) error {
	// Control channel: a dedicated link to the controller node.
	link, err := e.Net.Connect(node, ctrlNode, netem.LinkConfig{Delay: controlDelay})
	if err != nil {
		return err
	}
	swEP, ctrlEP := link.Endpoints()
	sw, err := sdn.NewSwitch(asn, swEP.Send)
	if err != nil {
		return err
	}
	origin, err := e.Plan.OriginPrefix(asn)
	if err != nil {
		return err
	}
	sw.AddLocalPrefix(origin)
	sw.OnLocalDeliver = e.Probes.OnDelivered
	e.Switches[asn] = sw
	if err := e.Ctrl.AddMember(asn, ctrlEP.Send); err != nil {
		return err
	}
	link.SetTag(asn) // the member a control frame at the controller is from
	e.ctrlLinkOf[asn] = link

	node.OnMessage(e.switchNodeHandler(asn, swEP))
	return nil
}

// switchNodeHandler is the receive handler of a cluster-member node:
// control frames from its control endpoint go to the switch's control
// path, everything else arrives on a numbered data port. The switch is
// resolved at dispatch time so frames in flight across a migration are
// dropped instead of reaching a torn-down switch.
func (e *Experiment) switchNodeHandler(asn idr.ASN, swEP *netem.Endpoint) func(from *netem.Endpoint, data []byte) {
	return func(from *netem.Endpoint, data []byte) {
		sw, ok := e.Switches[asn]
		if !ok {
			return
		}
		if from == swEP {
			kind, payload, err := frames.Decode(data)
			if err != nil || kind != frames.KindOpenFlow {
				return
			}
			_ = sw.HandleControl(payload)
			return
		}
		if en := endAt(from); en != nil && en.port != 0 {
			_ = sw.HandlePort(en.port, data)
		}
	}
}
