package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
	"repro/internal/idr"
	"repro/internal/netem"
	"repro/internal/sdn"
	"repro/internal/sdn/ofp"
	"repro/internal/sim"
)

// The kernels pass: steady-state loops over single public functions
// of the hot layers, set-up outside the timed section, ns and
// allocations per iteration. These are bench_test.go's micro numbers
// at steady state (that file records them at -benchtime=1x, which
// times the set-up); the inputs are the same.

// meter accumulates the timed sections of one kernel.
type meter struct {
	ns      int64
	mallocs uint64
}

// timed runs f as one timed section.
func (m *meter) timed(f func()) {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	t0 := time.Now()
	f()
	m.ns += time.Since(t0).Nanoseconds()
	runtime.ReadMemStats(&b)
	m.mallocs += b.Mallocs - a.Mallocs
}

// kernel is one micro loop: body runs n iterations, timing them
// through the meter.
type kernel struct {
	name string
	body func(m *meter, n int) error
}

// runKernels measures every kernel for about budget each and records
// <name>_ns and <name>_allocs.
func runKernels(out *metricSet, budget time.Duration) error {
	for _, k := range kernels() {
		n := 1
		for {
			var m meter
			if err := k.body(&m, n); err != nil {
				return fmt.Errorf("kernel %s: %w", k.name, err)
			}
			if time.Duration(m.ns) >= budget || n >= 1<<30 {
				out.set(k.name+"_ns", float64(m.ns)/float64(n))
				out.set(k.name+"_allocs", float64(m.mallocs)/float64(n))
				break
			}
			// Aim past the budget from the rate seen so far.
			next := n * 2
			if m.ns > 0 {
				next = int(1.2 * float64(n) * float64(budget.Nanoseconds()) / float64(m.ns))
			}
			n = min(max(next, n*2), n*100)
		}
	}
	return nil
}

func benchRoute(prefix netip.Prefix, peer string, asn idr.ASN, host byte) *rib.Route {
	return &rib.Route{
		Prefix:  prefix,
		Peer:    rib.PeerKey(peer),
		PeerASN: asn,
		PeerID:  idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 16, 0, host})),
		Attrs: wire.PathAttrs{
			ASPath:  wire.NewASPath(asn, 1),
			NextHop: netip.AddrFrom4([4]byte{100, 64, 0, host}),
		},
	}
}

func benchUpdate() wire.Update {
	return wire.Update{
		Attrs: wire.PathAttrs{
			Origin:  wire.OriginIGP,
			ASPath:  wire.NewASPath(1, 2, 3, 4, 5),
			NextHop: netip.MustParseAddr("100.64.0.1"),
		},
		NLRI: []netip.Prefix{netip.MustParsePrefix("10.0.1.0/24")},
	}
}

// drain times Kernel.Run over 1024 pending events whose deadlines are
// step apart (zero: one instant, the batched-drain case).
func drain(step time.Duration) func(*meter, int) error {
	return func(m *meter, n int) error {
		for i := 0; i < n; i++ {
			k := sim.NewKernel(1)
			for j := 0; j < 1024; j++ {
				k.AfterFunc(time.Millisecond+time.Duration(j)*step, func() {})
			}
			var err error
			m.timed(func() { err = k.Run() })
			if err != nil {
				return err
			}
		}
		return nil
	}
}

// timerReset times re-arming one pending timer d ahead: 100ms stays
// in the kernel's heap, 90s files into its timer wheel.
func timerReset(d time.Duration) func(*meter, int) error {
	return func(m *meter, n int) error {
		k := sim.NewKernel(1)
		timer := k.AfterFunc(d, func() {})
		m.timed(func() {
			for i := 0; i < n; i++ {
				timer.Reset(d)
			}
		})
		return nil
	}
}

func kernels() []kernel {
	return []kernel{
		{"sim.drain_same_ts", drain(0)},
		{"sim.drain_spread", drain(time.Microsecond)},
		{"sim.timer_reset_short", timerReset(100 * time.Millisecond)},
		{"sim.timer_reset_long", timerReset(90 * time.Second)},
		{"rib.decide", func(m *meter, n int) error {
			// One prefix, 16 peers, one more peer's route re-decided.
			tbl := rib.NewTable()
			prefix := netip.MustParsePrefix("10.0.1.0/24")
			for i := 0; i < 16; i++ {
				tbl.SetAdjIn(benchRoute(prefix, string(rune('a'+i)), idr.ASN(i+2), byte(i+2)))
			}
			update := benchRoute(prefix, "z", 99, 99)
			m.timed(func() {
				for i := 0; i < n; i++ {
					tbl.SetAdjIn(update)
				}
			})
			return nil
		}},
		{"rib.decide_spread", func(m *meter, n int) error {
			// Churn spread over 64 prefixes on 8 shards.
			tbl := rib.NewTableShards(8)
			updates := make([]*rib.Route, 64)
			for i := range updates {
				prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24)
				for j := 0; j < 4; j++ {
					tbl.SetAdjIn(benchRoute(prefix, string(rune('a'+j)), idr.ASN(j+2), byte(j+2)))
				}
				updates[i] = benchRoute(prefix, "z", 99, 99)
			}
			m.timed(func() {
				for i := 0; i < n; i++ {
					tbl.SetAdjIn(updates[i%len(updates)])
				}
			})
			return nil
		}},
		{"rib.lookup", func(m *meter, n int) error {
			tbl := lookupTable()
			addr := netip.MustParseAddr("10.128.7.9")
			miss := false
			m.timed(func() {
				for i := 0; i < n; i++ {
					if _, ok := tbl.Lookup(addr); !ok {
						miss = true
					}
				}
			})
			if miss {
				return fmt.Errorf("lookup of %v missed", addr)
			}
			return nil
		}},
		{"rib.best_routes", func(m *meter, n int) error {
			// The cross-shard read sharding taxes: enumerate the
			// Loc-RIB in global order.
			tbl := lookupTable()
			short := false
			m.timed(func() {
				for i := 0; i < n; i++ {
					if len(tbl.BestRoutes()) != 272 {
						short = true
					}
				}
			})
			if short {
				return fmt.Errorf("BestRoutes did not return the 272 installed routes")
			}
			return nil
		}},
		{"wire.marshal", func(m *meter, n int) error {
			u := benchUpdate()
			var err error
			m.timed(func() {
				for i := 0; i < n && err == nil; i++ {
					_, err = wire.Marshal(u)
				}
			})
			return err
		}},
		{"wire.unmarshal", func(m *meter, n int) error {
			frame, err := wire.Marshal(benchUpdate())
			if err != nil {
				return err
			}
			m.timed(func() {
				for i := 0; i < n && err == nil; i++ {
					_, err = wire.Unmarshal(frame)
				}
			})
			return err
		}},
		{"netem.send", func(m *meter, n int) error {
			// Send to delivery, one frame at a time over one link.
			k := sim.NewKernel(1)
			nw := netem.NewNetwork(k, nil)
			a, err := nw.AddNode("a")
			if err != nil {
				return err
			}
			b, err := nw.AddNode("b")
			if err != nil {
				return err
			}
			link, err := nw.Connect(a, b, netem.LinkConfig{})
			if err != nil {
				return err
			}
			got := 0
			b.OnMessage(func(*netem.Endpoint, []byte) { got++ })
			ep, _ := link.Endpoints()
			frame := make([]byte, 64)
			m.timed(func() {
				for i := 0; i < n && err == nil; i++ {
					if err = ep.Send(frame); err == nil {
						err = k.Run()
					}
				}
			})
			if err == nil && got != n {
				err = fmt.Errorf("%d of %d frames delivered", got, n)
			}
			return err
		}},
		{"ofp.roundtrip", func(m *meter, n int) error {
			fm := ofp.FlowMod{Command: ofp.FlowAdd, Priority: 100, Match: netip.MustParsePrefix("10.0.1.0/24"), OutPort: 3}
			var err error
			m.timed(func() {
				for i := 0; i < n && err == nil; i++ {
					var frame []byte
					if frame, err = ofp.Marshal(fm, uint32(i)); err == nil {
						_, _, err = ofp.Unmarshal(frame)
					}
				}
			})
			return err
		}},
		{"sdn.flow_lookup", func(m *meter, n int) error {
			tbl := sdn.NewFlowTable()
			for i := 0; i < 256; i++ {
				tbl.Upsert(sdn.FlowEntry{Match: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), OutPort: uint32(i)})
			}
			addr := netip.MustParseAddr("10.128.7.9")
			miss := false
			m.timed(func() {
				for i := 0; i < n; i++ {
					if _, ok := tbl.Lookup(addr); !ok {
						miss = true
					}
				}
			})
			if miss {
				return fmt.Errorf("flow lookup of %v missed", addr)
			}
			return nil
		}},
	}
}

// lookupTable is a Loc-RIB of 256 /16s plus 16 more-specifics, so
// several prefix-length buckets exist.
func lookupTable() *rib.Table {
	tbl := rib.NewTable()
	for i := 0; i < 256; i++ {
		tbl.SetAdjIn(benchRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16), "a", 2, 2))
	}
	for i := 0; i < 16; i++ {
		tbl.SetAdjIn(benchRoute(netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 7, 0}), 24), "b", 3, 3))
	}
	return tbl
}
