package netem

import "repro/internal/sim"

// SetClock swaps the clock a built network schedules its deliveries on,
// so an external test can stand between Send and the kernel.
func (n *Network) SetClock(c sim.Clock) { n.clock = c }

// InFlight reports the frame f delivers and the node it is bound for,
// if f is one of this package's deliveries.
func InFlight(f sim.Firer) (to *Node, data []byte, ok bool) {
	d, ok := f.(*delivery)
	if !ok {
		return nil, nil, false
	}
	return d.dst.node, d.data, true
}
