package bgp

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/policy"
	"repro/internal/sim"
)

// openingRig is AS1 and AS2 on one netem link, brought up by Open:
// mated, so their handshake is computed (Opening) and they keep their
// liveness by arithmetic once Established, or unmated, so every OPEN
// and KEEPALIVE is a frame and every timer an event.
type openingRig struct {
	k      *sim.Kernel
	net    *netem.Network
	ends   [2]*Peer
	mating Mating
	o      *Opening
}

// rigWire is the rig's link as a Wire.
type rigWire struct{ l *netem.Link }

func (w rigWire) end(side int) *netem.Endpoint {
	a, b := w.l.Endpoints()
	if side == 0 {
		return a
	}
	return b
}

func (w rigWire) Delay() time.Duration { return w.l.Config().Delay }

func (w rigWire) SendAt(side int, frame []byte, sent time.Time) { _ = w.end(side).SendAt(frame, sent) }

func (w rigWire) Credit(side int, frames, bytes uint64) { w.end(side).Credit(frames, bytes) }

func newOpeningRig(t *testing.T, mated bool, d time.Duration) *openingRig {
	t.Helper()
	rig := &openingRig{k: sim.NewKernel(1)}
	rig.net = netem.NewNetwork(rig.k, rig.k.Rand())
	var routers []*Router
	var nodes []*netem.Node
	for _, asn := range []idr.ASN{1, 2} {
		r, err := New(Config{
			ASN:      asn,
			RouterID: idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, byte(asn)})),
			Clock:    rig.k,
			Rand:     rig.k.Rand(),
			Policy:   policy.PermitAll{},
			Timers:   Timers{HoldTime: 9 * time.Second, MRAI: time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		node, err := rig.net.AddNode(asn.String())
		if err != nil {
			t.Fatal(err)
		}
		routers, nodes = append(routers, r), append(nodes, node)
	}
	link, err := rig.net.Connect(nodes[0], nodes[1], netem.LinkConfig{Delay: d})
	if err != nil {
		t.Fatal(err)
	}
	w := rigWire{link}
	for side := range 2 {
		p, err := routers[side].AddPeer(PeerConfig{
			Key:       rib.PeerKey("to-" + routers[1-side].cfg.ASN.String()),
			RemoteASN: routers[1-side].cfg.ASN,
			NextHop:   netip.AddrFrom4([4]byte{100, 64, 0, byte(side + 1)}),
			Send:      w.end(side),
		})
		if err != nil {
			t.Fatal(err)
		}
		rig.ends[side] = p
		nodes[side].OnMessage(func(_ *netem.Endpoint, data []byte) { p.Deliver(message(t, data)) })
	}
	if mated {
		Mate(&rig.mating, rig.ends[0], rig.ends[1], w)
	}
	rig.o = Open(routers, true)
	return rig
}

// read renders what the two runs must agree on at any instant: the
// frames delivered (those landed by arithmetic included), each
// session's state and its router's counters.
func (rig *openingRig) read() string {
	landed, _ := rig.mating.Landed()
	var b strings.Builder
	fmt.Fprintf(&b, "@%v delivered %d", rig.k.Elapsed(), rig.net.Delivered+landed)
	for _, p := range rig.ends {
		fmt.Fprintf(&b, " | %s %v %+v", p.Key(), p.State(), p.router.Stats())
	}
	return b.String()
}

// timers renders each session's hold, keepalive and retry deadlines,
// and which side's hold timer was armed first.
func (rig *openingRig) timers() string {
	var b strings.Builder
	var seqs [2]uint64
	for side, p := range rig.ends {
		for _, tm := range []sim.Timer{p.fsm.holdTimer, p.fsm.keepaliveTimer, p.fsm.retryTimer} {
			if at, seq, ok := sim.TimerState(tm); ok {
				fmt.Fprintf(&b, "%v ", at.Sub(sim.Epoch))
				if tm == p.fsm.holdTimer {
					seqs[side] = seq
				}
			} else {
				b.WriteString("- ")
			}
		}
		b.WriteString("| ")
	}
	fmt.Fprintf(&b, "hold timer of AS1 first: %v", seqs[0] < seqs[1])
	return b.String()
}

// TestOpeningReplayMatchesEmulated holds a computed handshake to the
// emulated one on one link of delay d, at the bgp layer where the
// sessions' timers can be read. Untouched, the two must read alike at
// t₀, a nanosecond either side of the OPENs and of the KEEPALIVEs
// landing, and a nanosecond either side of the pair's first KEEPALIVEs
// leaving and landing. Replayed at t₀ or inside the handshake, the
// computed sessions must hold the emulated ones' states and timers —
// the OpenSent guard, the hold timer, armed in the same order — and go
// on to read alike at those instants.
func TestOpeningReplayMatchesEmulated(t *testing.T) {
	const d = 3 * time.Millisecond
	next := 2*d + 3*time.Second // the pair's first KEEPALIVEs leave
	instants := []time.Duration{0, d - 1, d, d + 1, 2*d - 1, 2 * d, next - 1, next, next + 1, next + d - 1, next + d, next + d + 1}
	for _, replayAt := range []time.Duration{-1, 0, d - 1, d, d + 1, 2*d - 1} {
		t.Run(fmt.Sprintf("replay at %v", replayAt), func(t *testing.T) {
			emulated, computed := newOpeningRig(t, false, d), newOpeningRig(t, true, d)
			for _, at := range instants {
				if replayAt >= 0 && at > replayAt && computed.o.open > 0 {
					for _, rig := range []*openingRig{emulated, computed} {
						if err := rig.k.RunUntil(sim.Epoch.Add(replayAt)); err != nil {
							t.Fatal(err)
						}
					}
					computed.o.Replay()
					if got, want := computed.timers(), emulated.timers(); got != want {
						t.Fatalf("replayed at %v, the timers are\n%s\nemulated\n%s", replayAt, got, want)
					}
				}
				for _, rig := range []*openingRig{emulated, computed} {
					if err := rig.k.RunUntil(sim.Epoch.Add(at)); err != nil {
						t.Fatal(err)
					}
				}
				if got, want := computed.read(), emulated.read(); got != want {
					t.Fatalf("computed %s\nemulated %s", got, want)
				}
			}
			if frames, _ := computed.mating.Landed(); frames == 0 {
				t.Fatal("the computed pair is not quiet once Established")
			}
		})
	}
}
