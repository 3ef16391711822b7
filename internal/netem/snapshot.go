package netem

import (
	"fmt"
	"time"

	"repro/internal/sim"
)

// Snapshot support: NetworkState captures everything a restored
// network needs to continue byte-identically — per-link operational
// state, counters and random-stream position, per-endpoint in-order
// clamps, and the network-wide counters. In-flight frames are
// deliberately NOT captured: snapshots are taken at protocol
// quiescence, where what is on the wire is liveness — the KEEPALIVEs of
// sessions that send them as frames, and those a quiet pair accounts
// for by arithmetic (bgp.Mating), which its own snapshot loses alike.
// A lost KEEPALIVE only leaves a hold timer running from the one
// before, which the next one re-arms; only a pair that loses two in a
// row, to two snapshots, runs out of hold time.
// Per-link random streams are never serialized as generator state;
// they are re-derived from the link seed and fast-forwarded to the
// captured draw count, which is what lets a fork re-seed them. A
// stream that was never drawn from (Draws == 0: any lossless link) has
// no generator on either side of a snapshot.

// tsNS and nsTS serialize timestamps as nanoseconds since sim.Epoch,
// preserving the zero value (sim.TimeNone).
func tsNS(t time.Time) int64  { return sim.TimeToNS(t) }
func nsTS(ns int64) time.Time { return sim.TimeFromNS(ns) }

// LinkState is the serializable state of one link, keyed by creation
// index (the restored network builds its links in the same order).
type LinkState struct {
	// Up is the link's operational state.
	Up bool `json:"up"`
	// Epoch is the down-transition counter that kills in-flight
	// traffic.
	Epoch uint64 `json:"epoch"`
	// Delivered, Dropped and Retransmits are the per-link counters.
	Delivered   uint64 `json:"delivered"`
	Dropped     uint64 `json:"dropped"`
	Retransmits uint64 `json:"retransmits"`
	// Draws is the position of the link's private random stream
	// (seeded networks only; zero otherwise).
	Draws uint64 `json:"draws"`
	// AArrivalNS and BArrivalNS are endpoint a's and b's in-order
	// delivery clamps, as tsNS values.
	AArrivalNS int64 `json:"a_arrival_ns"`
	BArrivalNS int64 `json:"b_arrival_ns"`
}

// NetworkState is the serializable state of a Network.
type NetworkState struct {
	// Delivered, Dropped and BytesDelivered are the network-wide
	// counters.
	Delivered      uint64 `json:"delivered"`
	Dropped        uint64 `json:"dropped"`
	BytesDelivered uint64 `json:"bytes_delivered"`
	// Links holds one entry per link in creation order.
	Links []LinkState `json:"links"`
}

// State captures the network's serializable state.
func (n *Network) State() NetworkState {
	st := NetworkState{
		Delivered:      n.Delivered,
		Dropped:        n.Dropped,
		BytesDelivered: n.BytesDelivered,
		Links:          make([]LinkState, len(n.links)),
	}
	for i, l := range n.links {
		st.Links[i] = LinkState{
			Up:          l.up,
			Epoch:       l.epoch,
			Delivered:   l.Delivered,
			Dropped:     l.Dropped,
			Retransmits: l.Retransmits,
			Draws:       l.src.Draws(), // 0 on a link that draws from the shared source
			AArrivalNS:  tsNS(l.a.lastArrival),
			BArrivalNS:  tsNS(l.b.lastArrival),
		}
	}
	return st
}

// RestoreState overlays a captured state onto a freshly built network
// with the identical topology (same links in the same creation
// order). Link state is set directly — no SetUp events fire — and
// seeded per-link streams are fast-forwarded to the captured draw
// counts (their seeds were already re-derived at Connect time, so a
// fork that seeded the network differently diverges exactly where
// link randomness enters).
func (n *Network) RestoreState(st NetworkState) error {
	if len(st.Links) != len(n.links) {
		return fmt.Errorf("netem: restore: %d link states for %d links", len(st.Links), len(n.links))
	}
	n.Delivered = st.Delivered
	n.Dropped = st.Dropped
	n.BytesDelivered = st.BytesDelivered
	for i, ls := range st.Links {
		l := n.links[i]
		l.up = ls.Up
		l.epoch = ls.Epoch
		l.Delivered = ls.Delivered
		l.Dropped = ls.Dropped
		l.Retransmits = ls.Retransmits
		l.a.lastArrival = nsTS(ls.AArrivalNS)
		l.b.lastArrival = nsTS(ls.BArrivalNS)
		if l.seeded {
			l.src.FastForward(ls.Draws)
		} else if ls.Draws > 0 {
			return fmt.Errorf("netem: restore: link %d has %d recorded draws but no private stream", i, ls.Draws)
		}
	}
	return nil
}
