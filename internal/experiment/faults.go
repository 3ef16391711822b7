package experiment

import (
	"fmt"
	"math/rand"

	"repro/internal/idr"
)

// Fault-injection commands: the chaos half of the lifecycle API. Each
// command is built from the same migration and link machinery the
// clean workloads use, so a fault leaves the experiment in a state
// every other command still understands.

// SessionReset tears down the BGP session riding the a-b link and lets
// it re-establish — both transports bounce as if the TCP connection
// was reset, while the link itself stays up (no in-flight frames are
// dropped, unlike a link flap). For a router-router session both peer
// FSMs reset and re-open; for a member-router session the controller's
// speaker session resets through the port-status path; for an
// intra-cluster link both switch ports flap.
func (e *Experiment) SessionReset(a, b idr.ASN) error {
	return e.do(Command{Kind: "session-reset", A: a, B: b})
}

func (e *Experiment) sessionReset(a, b idr.ASN) error {
	l, ok := e.links[linkKey(a, b)]
	if !ok {
		return fmt.Errorf("experiment: no link %v-%v", a, b)
	}
	if !l.Up() {
		return fmt.Errorf("experiment: cannot reset session %v-%v: link is down", a, b)
	}
	l.StateChanged(false)
	l.StateChanged(true)
	return nil
}

// ControllerDown crashes the SDN controller mid-run: every current
// cluster member falls back to a plain legacy BGP router (MigrateOut),
// its control channel dies, and the membership at the instant of the
// crash is remembered so ControllerUp can rebuild it. On a pure-BGP
// experiment (no controller) the crash is a no-op — there is nothing
// to lose — which lets cluster-size sweeps include the K=0 baseline.
func (e *Experiment) ControllerDown() error { return e.do(Command{Kind: "controller-down"}) }

func (e *Experiment) controllerDown() error {
	if e.Ctrl == nil {
		return nil
	}
	if e.crashedMembers != nil {
		return fmt.Errorf("experiment: controller is already down")
	}
	members := e.Ctrl.Members()
	if len(members) == 0 {
		return fmt.Errorf("experiment: controller has no members to crash")
	}
	for _, m := range members {
		if err := e.migrateOut(m); err != nil {
			return fmt.Errorf("experiment: controller crash: %v: %w", m, err)
		}
	}
	e.crashedMembers = members
	return nil
}

// ControllerUp recovers from a ControllerDown: every member recorded
// at crash time re-joins the cluster (MigrateIn), re-establishing its
// control channel and rewiring its links back into the switch fabric.
// A no-op on a pure-BGP experiment, mirroring ControllerDown.
func (e *Experiment) ControllerUp() error { return e.do(Command{Kind: "controller-up"}) }

func (e *Experiment) controllerUp() error {
	if e.Ctrl == nil {
		return nil
	}
	if e.crashedMembers == nil {
		return fmt.Errorf("experiment: controller is not down")
	}
	members := e.crashedMembers
	e.crashedMembers = nil
	for _, m := range members {
		if err := e.migrateIn(m); err != nil {
			return fmt.Errorf("experiment: controller recovery: %v: %w", m, err)
		}
	}
	return nil
}

// ControllerCrashed reports whether a ControllerDown is in effect.
func (e *Experiment) ControllerCrashed() bool { return e.crashedMembers != nil }

// Partition fails every link across a seeded AS cut, splitting the
// network into two halves. The cut is derived deterministically from
// the experiment seed: a connected half grows from a seeded start node
// by randomized flood fill until it holds half the ASes, and every
// edge crossing the boundary goes down. Heal restores exactly those
// links. Partitioning an already partitioned network is an error.
func (e *Experiment) Partition() error { return e.do(Command{Kind: "partition"}) }

func (e *Experiment) partition() error {
	if e.partitionCut != nil {
		return fmt.Errorf("experiment: network is already partitioned")
	}
	cut := e.seededCut()
	if len(cut) == 0 {
		return fmt.Errorf("experiment: topology too small to partition")
	}
	e.opening.Replay() // as FailLink
	for _, k := range cut {
		e.links[linkKey(k[0], k[1])].SetUp(false)
	}
	e.partitionCut = cut
	return nil
}

// Heal restores the links failed by the last Partition.
func (e *Experiment) Heal() error { return e.do(Command{Kind: "heal"}) }

func (e *Experiment) heal() error {
	if e.partitionCut == nil {
		return fmt.Errorf("experiment: network is not partitioned")
	}
	cut := e.partitionCut
	e.partitionCut = nil
	for _, k := range cut {
		e.links[linkKey(k[0], k[1])].SetUp(true)
	}
	return nil
}

// PartitionCut returns the AS pairs whose links the current partition
// holds down (nil while the network is whole).
func (e *Experiment) PartitionCut() [][2]idr.ASN {
	return append([][2]idr.ASN(nil), e.partitionCut...)
}

// seededCut derives the partition's edge cut from the experiment seed:
// a randomized flood fill (over the deterministic node and neighbor
// orders) grows one connected side to half the topology, and the cut
// is every edge with exactly one endpoint inside.
func (e *Experiment) seededCut() [][2]idr.ASN {
	nodes := e.cfg.Graph.Nodes()
	if len(nodes) < 2 {
		return nil
	}
	rng := rand.New(rand.NewSource(e.cfg.Seed ^ 0x7a47171090))
	target := len(nodes) / 2
	inside := map[idr.ASN]bool{}
	frontier := []idr.ASN{nodes[rng.Intn(len(nodes))]}
	inside[frontier[0]] = true
	for len(inside) < target && len(frontier) > 0 {
		i := rng.Intn(len(frontier))
		cur := frontier[i]
		frontier = append(frontier[:i], frontier[i+1:]...)
		for _, nb := range e.cfg.Graph.Neighbors(cur) {
			if len(inside) >= target {
				break
			}
			if !inside[nb] {
				inside[nb] = true
				frontier = append(frontier, nb)
			}
		}
	}
	var cut [][2]idr.ASN
	for _, edge := range e.cfg.Graph.Edges() {
		if inside[edge.A] != inside[edge.B] {
			cut = append(cut, [2]idr.ASN{edge.A, edge.B})
		}
	}
	return cut
}
