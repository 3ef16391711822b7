package lab

import (
	"strings"
	"testing"
	"time"

	"repro/internal/experiment"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/topology"
)

// oracleCase is one input of FuzzConvergedState: an internet-style
// graph, a policy and one event — origin withdraws its prefix; or it
// withdraws and announces it again; or it withdraws it and the session
// on link resets under the withdrawal's UPDATEs; or link fails.
type oracleCase struct {
	g          *topology.Graph
	gaoRexford bool
	kind       EventKind // KindWithdrawal, KindAnnouncement, KindSessionReset or KindLinkDown
	origin     idr.ASN
	link       topology.Edge
}

// decodeOracleCase reads an oracleCase from data, a byte at a time (0
// once data runs out): the AS count (2 to 24), the policy bit and the
// event's two bits, the event's target (the origin, or for a linkdown
// the link; a session-reset resets the origin's first link), then for
// each AS after the first the AS it attaches to and how, and from the
// bytes left, pairs that add further links. A provider always has the
// lower ASN of its link, so the graph has no provider cycle, and every
// AS is connected to the first.
func decodeOracleCase(data []byte) oracleCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	asn := func(i int) idr.ASN { return topology.BaseASN + idr.ASN(i) }
	rel := func(peer bool) topology.Relationship {
		if peer {
			return topology.P2P
		}
		return topology.P2C
	}
	n := 2 + int(next())%23
	flags, target := next(), int(next())
	c := oracleCase{g: topology.New(), gaoRexford: flags&1 != 0}
	for i := 0; i < n; i++ {
		c.g.AddNode(asn(i))
	}
	for i := 1; i < n; i++ {
		b := next()
		_ = c.g.AddEdge(topology.Edge{A: asn(int(b>>1) % i), B: asn(i), Rel: rel(b&1 != 0)})
	}
	for len(data) >= 2 {
		x, y := int(next())%n, next()
		j := int(y&0x7f) % n
		if x == j || c.g.HasEdge(asn(x), asn(j)) {
			continue
		}
		_ = c.g.AddEdge(topology.Edge{A: asn(min(x, j)), B: asn(max(x, j)), Rel: rel(y&0x80 != 0)})
	}
	edges := c.g.Edges()
	c.kind = []EventKind{KindWithdrawal, KindLinkDown, KindAnnouncement, KindSessionReset}[flags>>1&3]
	if c.kind == KindLinkDown {
		c.link = edges[target%len(edges)]
		return c
	}
	c.origin = asn(target % n)
	for _, e := range edges {
		if e.A == c.origin || e.B == c.origin {
			c.link = e
			break
		}
	}
	return c
}

// FuzzConvergedState holds the emulator to the oracles of
// TestConvergedStateMatchesOracle on decoded graphs (decodeOracleCase)
// at K = 0: every (AS, destination) route must agree after every
// prefix is announced, and again after the event, against the graph
// without the cut link or with the withdrawn prefix unreachable (an
// announcement is checked after its withdrawal too). Its seed corpus
// (testdata/fuzz/FuzzConvergedState) covers both policies and all four
// events, up to 24 ASes.
func FuzzConvergedState(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeOracleCase(data)
		if err := c.g.Validate(); err != nil {
			t.Fatalf("decoded an invalid graph: %v", err)
		}
		var pol policy.Policy = policy.PermitAll{}
		if c.gaoRexford {
			pol = policy.GaoRexford{}
		}
		e, err := experiment.New(experiment.Config{Seed: 1, Graph: c.g.Clone(), Policy: pol, WallLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		window := convergeWindow(c.g.NumNodes(), 0)
		step := func(what string, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		step("start", e.Start())
		step("establish", e.WaitEstablished(establishTimeout))
		for _, a := range e.ASNs() {
			step("announce", e.Announce(a))
		}
		_, err = e.WaitConverged(window)
		step("warm-up", err)
		check := func(when string, withdrawn idr.ASN) {
			t.Helper()
			if bad := checkConverged(e, c.g, c.gaoRexford, c.g.Nodes(), withdrawn); len(bad) > 0 {
				t.Fatalf("%s (gao-rexford %v, %d ASes, edges %v): the converged state disagrees with the oracle:\n%s",
					when, c.gaoRexford, c.g.NumNodes(), c.g.Edges(), strings.Join(bad, "\n"))
			}
		}
		check("warm-up", 0)
		settle := func(ev WorkloadEvent) {
			t.Helper()
			_, err := ev.Apply(e)
			step(ev.Kind.String(), err)
			_, err = e.WaitConverged(window)
			step(ev.Kind.String(), err)
		}
		withdrawal := WorkloadEvent{Kind: KindWithdrawal, AS: c.origin}
		switch c.kind {
		case KindLinkDown:
			settle(WorkloadEvent{Kind: KindLinkDown, A: c.link.A, B: c.link.B})
			c.g.RemoveEdge(c.link.A, c.link.B)
			check("after the linkdown", 0)
		case KindWithdrawal:
			settle(withdrawal)
			check("after the withdrawal", c.origin)
		case KindAnnouncement:
			settle(withdrawal)
			check("after the withdrawal", c.origin)
			settle(WorkloadEvent{Kind: KindAnnouncement, AS: c.origin})
			check("after the announcement", 0)
		case KindSessionReset:
			// The reset drops the withdrawal's UPDATEs in flight on the
			// link.
			_, err = withdrawal.Apply(e)
			step("withdraw", err)
			step("withdraw", e.RunFor(time.Microsecond))
			settle(WorkloadEvent{Kind: KindSessionReset, A: c.link.A, B: c.link.B})
			check("after the withdrawal and session-reset", c.origin)
		}
	})
}
