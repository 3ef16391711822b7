package topology

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/idr"
)

// scanGraph is the oracle for Graph's adjacency index and edge order:
// the graph as it was before either existed. It keeps its own node set
// and edge map; Edges and the five adjacency accessors are the bodies
// Graph used to have, moved here verbatim (each ranges over every edge
// and sorts what it found). Connected and Validate are Graph's bodies
// from before they read the index directly, run over those accessors.
type scanGraph struct {
	nodes map[idr.ASN]bool
	edges map[[2]idr.ASN]Edge
}

func newScanGraph() *scanGraph {
	return &scanGraph{nodes: make(map[idr.ASN]bool), edges: make(map[[2]idr.ASN]Edge)}
}

func (g *scanGraph) AddNode(asn idr.ASN) { g.nodes[asn] = true }

func (g *scanGraph) AddEdge(e Edge) error {
	if e.A == e.B {
		return fmt.Errorf("topology: self-loop on %v", e.A)
	}
	g.AddNode(e.A)
	g.AddNode(e.B)
	g.edges[edgeKey(e.A, e.B)] = e.Canonical()
	return nil
}

func (g *scanGraph) RemoveEdge(a, b idr.ASN) bool {
	k := edgeKey(a, b)
	if _, ok := g.edges[k]; !ok {
		return false
	}
	delete(g.edges, k)
	return true
}

func (g *scanGraph) Clone() *scanGraph {
	c := newScanGraph()
	for n := range g.nodes {
		c.nodes[n] = true
	}
	for k, e := range g.edges {
		c.edges[k] = e
	}
	return c
}

func (g *scanGraph) Nodes() []idr.ASN {
	out := make([]idr.ASN, 0, len(g.nodes))
	for n := range g.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *scanGraph) Edges() []Edge {
	out := make([]Edge, 0, len(g.edges))
	for _, e := range g.edges {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := edgeKey(out[i].A, out[i].B), edgeKey(out[j].A, out[j].B)
		if ki[0] != kj[0] {
			return ki[0] < kj[0]
		}
		return ki[1] < kj[1]
	})
	return out
}

func (g *scanGraph) Neighbors(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range g.edges {
		if e.A == asn {
			out = append(out, e.B)
		} else if e.B == asn {
			out = append(out, e.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *scanGraph) Degree(asn idr.ASN) int {
	n := 0
	for _, e := range g.edges {
		if e.A == asn || e.B == asn {
			n++
		}
	}
	return n
}

func (g *scanGraph) Providers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range g.edges {
		if e.Rel == P2C && e.B == asn {
			out = append(out, e.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *scanGraph) Customers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range g.edges {
		if e.Rel == P2C && e.A == asn {
			out = append(out, e.B)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *scanGraph) Peers(asn idr.ASN) []idr.ASN {
	var out []idr.ASN
	for _, e := range g.edges {
		if e.Rel != P2P {
			continue
		}
		if e.A == asn {
			out = append(out, e.B)
		} else if e.B == asn {
			out = append(out, e.A)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (g *scanGraph) Connected() bool {
	if len(g.nodes) == 0 {
		return true
	}
	var start idr.ASN
	for n := range g.nodes {
		start = n
		break
	}
	seen := map[idr.ASN]bool{start: true}
	queue := []idr.ASN{start}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	return len(seen) == len(g.nodes)
}

func (g *scanGraph) Validate() error {
	for _, e := range g.Edges() {
		if !g.nodes[e.A] || !g.nodes[e.B] {
			return fmt.Errorf("topology: edge %v-%v references unknown node", e.A, e.B)
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[idr.ASN]int, len(g.nodes))
	var visit func(idr.ASN) error
	visit = func(n idr.ASN) error {
		color[n] = gray
		for _, c := range g.Customers(n) {
			switch color[c] {
			case gray:
				return fmt.Errorf("topology: provider-customer cycle through %v and %v", n, c)
			case white:
				if err := visit(c); err != nil {
					return err
				}
			}
		}
		color[n] = black
		return nil
	}
	for _, n := range g.Nodes() {
		if color[n] == white {
			if err := visit(n); err != nil {
				return err
			}
		}
	}
	return nil
}

// modelNodes is the ASN universe of the model tapes: small, so tapes
// re-add and remove the same pairs; queries also reach modelNodes+1..+3,
// which no tape ever adds (absent nodes).
const modelNodes = 8

// modelPair is a Graph and the oracle that has seen the same mutations.
type modelPair struct {
	g *Graph
	o *scanGraph
}

// queryNode compares the five adjacency accessors on one node, nil-ness
// included, then scribbles over what Graph returned: every call must
// hand out a fresh slice, so the damage may not show in a later query.
func (p modelPair) queryNode(t *testing.T, step int, asn idr.ASN) {
	t.Helper()
	for _, q := range []struct {
		name      string
		got, want []idr.ASN
	}{
		{"Neighbors", p.g.Neighbors(asn), p.o.Neighbors(asn)},
		{"Providers", p.g.Providers(asn), p.o.Providers(asn)},
		{"Customers", p.g.Customers(asn), p.o.Customers(asn)},
		{"Peers", p.g.Peers(asn), p.o.Peers(asn)},
	} {
		if !reflect.DeepEqual(q.got, q.want) {
			t.Fatalf("step %d: %s(%v) = %#v, oracle %#v", step, q.name, asn, q.got, q.want)
		}
		for i := range q.got {
			q.got[i] = 0
		}
	}
	if got, want := p.g.Degree(asn), p.o.Degree(asn); got != want {
		t.Fatalf("step %d: Degree(%v) = %d, oracle %d", step, asn, got, want)
	}
}

// queryGraph compares the edge list and the two whole-graph walks
// built on the accessors, then scribbles over the edges Graph returned,
// as queryNode does.
func (p modelPair) queryGraph(t *testing.T, step int) {
	t.Helper()
	edges := p.g.Edges()
	if want := p.o.Edges(); !reflect.DeepEqual(edges, want) {
		t.Fatalf("step %d: Edges() = %v, oracle %v", step, edges, want)
	}
	for i := range edges {
		edges[i] = Edge{}
	}
	if got, want := p.g.Connected(), p.o.Connected(); got != want {
		t.Fatalf("step %d: Connected() = %v, oracle %v", step, got, want)
	}
	if got, want := fmt.Sprint(p.g.Validate()), fmt.Sprint(p.o.Validate()); got != want {
		t.Fatalf("step %d: Validate() = %q, oracle %q", step, got, want)
	}
}

// checkGraphAdjacencyModel interprets ops as a tape of mutations and
// queries, three bytes each, applied to a Graph and its oracle. Clones
// join the set of pairs under test, so a later step may mutate either
// side of a clone while the other keeps (or lacks) its index.
func checkGraphAdjacencyModel(t *testing.T, ops []byte) {
	pairs := []modelPair{{New(), newScanGraph()}}
	for step := 0; len(ops) >= 3; step++ {
		op, x, y := ops[0], ops[1], ops[2]
		ops = ops[3:]
		p := pairs[int(op>>4)%len(pairs)]
		a := BaseASN + idr.ASN(x%modelNodes)
		b := BaseASN + idr.ASN(y%modelNodes)
		switch op % 8 {
		case 0, 1, 2:
			// a and b are independent and x's high bits pick the
			// relationship, so a tape re-adds a pair as the other kind or
			// the other way round; one value in eight is a Rel the
			// package does not name.
			e := Edge{A: a, B: b, Rel: P2P}
			switch (x / modelNodes) % 8 {
			case 0, 1, 2, 3:
				e.Rel = P2C
			case 4:
				e.Rel = Relationship(7)
			}
			gerr, oerr := p.g.AddEdge(e), p.o.AddEdge(e)
			if fmt.Sprint(gerr) != fmt.Sprint(oerr) {
				t.Fatalf("step %d: AddEdge(%+v) = %v, oracle %v", step, e, gerr, oerr)
			}
		case 3:
			if got, want := p.g.RemoveEdge(a, b), p.o.RemoveEdge(a, b); got != want {
				t.Fatalf("step %d: RemoveEdge(%v, %v) = %v, oracle %v", step, a, b, got, want)
			}
		case 4:
			p.g.AddNode(a)
			p.o.AddNode(a)
		case 5:
			c := modelPair{p.g.Clone(), p.o.Clone()}
			if len(pairs) < 4 {
				pairs = append(pairs, c)
			} else {
				pairs[int(x)%len(pairs)] = c
			}
		case 6:
			p.queryGraph(t, step)
		}
		// Every step ends in a query (the +3 reaches absent nodes), so
		// each mutation lands on a graph whose index is already built.
		p.queryNode(t, step, BaseASN+idr.ASN(int(y)%(modelNodes+3)))
	}
	for _, p := range pairs {
		for n := 0; n < modelNodes+3; n++ {
			p.queryNode(t, -1, BaseASN+idr.ASN(n))
		}
		p.queryGraph(t, -1)
		if !reflect.DeepEqual(p.g.Nodes(), p.o.Nodes()) || !reflect.DeepEqual(p.g.Edges(), p.o.Edges()) {
			t.Fatalf("graph and oracle drifted apart: %v %v vs %v %v", p.g.Nodes(), p.g.Edges(), p.o.Nodes(), p.o.Edges())
		}
	}
}

// TestGraphAdjacencyModel holds Graph's adjacency index to the
// edge-scanning accessors it replaced, over random tapes of AddEdge
// (re-adding pairs under the other relationship or orientation),
// RemoveEdge, AddNode and Clone interleaved with queries on present,
// isolated and absent nodes. DECISIONS.md (PR 19) lists the seeded
// mutations of the index it catches.
func TestGraphAdjacencyModel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 200; i++ {
		ops := make([]byte, 3*(20+rng.Intn(200)))
		rng.Read(ops)
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkGraphAdjacencyModel(t, ops) })
	}
}

// FuzzGraphAdjacencyModel is the same check over fuzzed tapes.
func FuzzGraphAdjacencyModel(f *testing.F) {
	f.Add([]byte{})
	rng := rand.New(rand.NewSource(91))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 300)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { checkGraphAdjacencyModel(t, ops) })
}
