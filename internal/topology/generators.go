package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/idr"
)

// BaseASN is the first AS number handed out by generators. Generators
// number ASes BaseASN, BaseASN+1, ... so experiment scripts can refer
// to them positionally.
const BaseASN idr.ASN = 1

// The smallest sizes the ring and star generators accept (every other
// fixed generator accepts a single AS). lab's topology spec refuses a
// smaller size when it is parsed, from these same values.
const (
	MinRing = 3
	MinStar = 2
)

// asnRange returns n consecutive AS numbers starting at BaseASN.
func asnRange(n int) []idr.ASN {
	out := make([]idr.ASN, n)
	for i := range out {
		out[i] = BaseASN + idr.ASN(i)
	}
	return out
}

// Clique returns the complete graph on n ASes with all-peer
// relationships — the topology of the paper's Figure 2 experiment
// ("16-AS clique topology").
func Clique(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: clique size %d < 1", n)
	}
	g := New()
	asns := asnRange(n)
	for _, a := range asns {
		g.AddNode(a)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddEdge(Edge{A: asns[i], B: asns[j], Rel: P2P}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Line returns a path graph A1-A2-...-An with peer links.
func Line(n int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: line size %d < 1", n)
	}
	g := New()
	asns := asnRange(n)
	for _, a := range asns {
		g.AddNode(a)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(Edge{A: asns[i], B: asns[i+1], Rel: P2P}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Ring returns a cycle on n >= 3 ASes with peer links.
func Ring(n int) (*Graph, error) {
	if n < MinRing {
		return nil, fmt.Errorf("topology: ring size %d < %d", n, MinRing)
	}
	g, err := Line(n)
	if err != nil {
		return nil, err
	}
	asns := asnRange(n)
	if err := g.AddEdge(Edge{A: asns[n-1], B: asns[0], Rel: P2P}); err != nil {
		return nil, err
	}
	return g, nil
}

// Star returns a hub-and-spoke graph: AS1 is the provider of
// AS2..ASn. This models a transit provider with n-1 customers.
func Star(n int) (*Graph, error) {
	if n < MinStar {
		return nil, fmt.Errorf("topology: star size %d < %d", n, MinStar)
	}
	g := New()
	asns := asnRange(n)
	hub := asns[0]
	g.AddNode(hub)
	for _, leaf := range asns[1:] {
		if err := g.AddEdge(Edge{A: hub, B: leaf, Rel: P2C}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Tree returns a complete k-ary provider hierarchy with the given
// number of ASes: AS1 is the root (tier-1); every node is the provider
// of its children.
func Tree(n, fanout int) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: tree size %d < 1", n)
	}
	if fanout < 1 {
		return nil, fmt.Errorf("topology: tree fanout %d < 1", fanout)
	}
	g := New()
	asns := asnRange(n)
	g.AddNode(asns[0])
	for i := 1; i < n; i++ {
		parent := asns[(i-1)/fanout]
		if err := g.AddEdge(Edge{A: parent, B: asns[i], Rel: P2C}); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Grid returns a w x h lattice with peer links, a simple model of a
// geographically meshed backbone.
func Grid(w, h int) (*Graph, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("topology: grid %dx%d invalid", w, h)
	}
	g := New()
	asns := asnRange(w * h)
	at := func(x, y int) idr.ASN { return asns[y*w+x] }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(at(x, y))
			if x+1 < w {
				if err := g.AddEdge(Edge{A: at(x, y), B: at(x+1, y), Rel: P2P}); err != nil {
					return nil, err
				}
			}
			if y+1 < h {
				if err := g.AddEdge(Edge{A: at(x, y), B: at(x, y+1), Rel: P2P}); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// ErdosRenyi returns a G(n, p) random graph with peer links, retrying
// until connected (for p large enough to make that likely). The rng
// must not be nil.
func ErdosRenyi(n int, p float64, rng *rand.Rand) (*Graph, error) {
	if n < 1 {
		return nil, fmt.Errorf("topology: ER size %d < 1", n)
	}
	if !(p >= 0 && p <= 1) {
		return nil, fmt.Errorf("topology: ER probability %v out of [0,1]", p)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: ErdosRenyi needs a random source")
	}
	const maxAttempts = 64
	asns := asnRange(n)
	for attempt := 0; attempt < maxAttempts; attempt++ {
		g := New()
		for _, a := range asns {
			g.AddNode(a)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < p {
					if err := g.AddEdge(Edge{A: asns[i], B: asns[j], Rel: P2P}); err != nil {
						return nil, err
					}
				}
			}
		}
		if g.Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("topology: could not draw a connected G(%d, %v) in %d attempts", n, p, maxAttempts)
}

// BarabasiAlbert returns a preferential-attachment graph of n ASes
// where each newcomer attaches to m existing ASes. Edges are oriented
// as provider→customer from the older (higher-degree) AS to the
// newcomer, yielding a valley-free-friendly hierarchy reminiscent of
// the measured Internet.
func BarabasiAlbert(n, m int, rng *rand.Rand) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: BA attachment m=%d < 1", m)
	}
	if n < m+1 {
		return nil, fmt.Errorf("topology: BA size %d must exceed m=%d", n, m)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: BarabasiAlbert needs a random source")
	}
	g := New()
	asns := asnRange(n)
	// Seed: a small clique of m+1 peers (the "tier-1" core).
	for i := 0; i <= m; i++ {
		g.AddNode(asns[i])
		for j := 0; j < i; j++ {
			if err := g.AddEdge(Edge{A: asns[j], B: asns[i], Rel: P2P}); err != nil {
				return nil, err
			}
		}
	}
	// targets holds one entry per edge endpoint, so sampling uniformly
	// from it is degree-proportional sampling.
	var targets []idr.ASN
	for _, e := range g.Edges() {
		targets = append(targets, e.A, e.B)
	}
	for i := m + 1; i < n; i++ {
		newcomer := asns[i]
		chosen := make(map[idr.ASN]bool)
		for len(chosen) < m {
			t := targets[rng.Intn(len(targets))]
			chosen[t] = true
		}
		// Iterate the chosen set in sorted order: map iteration order
		// would otherwise leak into the sampling pool and make the
		// same seed draw different graphs across runs.
		picked := idr.SortedKeys(chosen)
		for _, t := range picked {
			if err := g.AddEdge(Edge{A: t, B: newcomer, Rel: P2C}); err != nil {
				return nil, err
			}
		}
		// Extend sampling pool after the fact so this node's picks were
		// not biased toward itself.
		for _, t := range picked {
			targets = append(targets, t, newcomer)
		}
	}
	return g, nil
}
