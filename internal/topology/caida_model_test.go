package topology

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/idr"
)

// synthesizeInternetLikeModel is the oracle for SynthesizeInternetLike:
// the generator as it was before it ran on indices, moved here
// verbatim. It keys depth by AS number in a map, draws providers into
// a map-backed set and asks the graph (Graph.HasEdge) whether each
// lateral pair is already linked.
func synthesizeInternetLikeModel(ases int, rng *rand.Rand) (*Graph, error) {
	if ases < MinInternetLike {
		return nil, fmt.Errorf("topology: need more than %d ASes, got %d", tier1s, ases)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: SynthesizeInternetLike needs a random source")
	}
	g := New()
	asns := asnRange(ases)
	depth := make(map[idr.ASN]int, ases)

	// Tier-1 clique.
	for i := 0; i < tier1s; i++ {
		g.AddNode(asns[i])
		depth[asns[i]] = 0
		for j := 0; j < i; j++ {
			if err := g.AddEdge(Edge{A: asns[j], B: asns[i], Rel: P2P}); err != nil {
				return nil, err
			}
		}
	}

	// Degree-weighted provider pool (each provider appears once per
	// customer it already has, plus once so everyone is reachable).
	pool := append([]idr.ASN(nil), asns[:tier1s]...)
	for i := tier1s; i < ases; i++ {
		newcomer := asns[i]
		// 1 + Poisson-ish extra providers around avgProviders.
		n := 1
		for float64(n) < avgProviders && rng.Float64() < avgProviders-1 {
			n++
		}
		chosen := make(map[idr.ASN]bool)
		for len(chosen) < n && len(chosen) < i {
			p := pool[rng.Intn(len(pool))]
			if p == newcomer {
				continue
			}
			chosen[p] = true
		}
		// Iterate the chosen set in sorted order: map iteration order
		// would otherwise leak into the provider pool and make the
		// same seed draw different graphs across runs.
		providers := make([]idr.ASN, 0, len(chosen))
		for p := range chosen {
			providers = append(providers, p)
		}
		slices.Sort(providers)
		maxDepth := 0
		for _, p := range providers {
			if err := g.AddEdge(Edge{A: p, B: newcomer, Rel: P2C}); err != nil {
				return nil, err
			}
			pool = append(pool, p)
			if d := depth[p] + 1; d > maxDepth {
				maxDepth = d
			}
		}
		depth[newcomer] = maxDepth
		pool = append(pool, newcomer)
	}

	// Lateral peering between similar-depth ASes.
	for i := tier1s; i < ases; i++ {
		for j := i + 1; j < ases; j++ {
			a, b := asns[i], asns[j]
			if g.HasEdge(a, b) {
				continue
			}
			dd := depth[a] - depth[b]
			if dd < 0 {
				dd = -dd
			}
			if dd <= 1 && rng.Float64() < peerProb {
				if err := g.AddEdge(Edge{A: a, B: b, Rel: P2P}); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: synthesized graph invalid: %w", err)
	}
	return g, nil
}

// caidaBytes is g in the CAIDA serial format.
func caidaBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkInternetLikeModel generates ases ASes under seed with both
// generators and requires the same CAIDA bytes, then checks the shape
// every internet-like graph has, whatever generated it.
func checkInternetLikeModel(t *testing.T, ases int, seed int64) {
	t.Helper()
	g, err := SynthesizeInternetLike(ases, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	model, err := synthesizeInternetLikeModel(ases, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := caidaBytes(t, g), caidaBytes(t, model); !bytes.Equal(got, want) {
		t.Fatalf("internet %d, seed %d: %d CAIDA bytes (%d links), model %d bytes (%d links)",
			ases, seed, len(got), g.NumEdges(), len(want), model.NumEdges())
	}
	checkInternetLikeShape(t, g, ases)
}

// checkInternetLikeShape checks what SynthesizeInternetLike promises
// without reference to how: the first tier1s ASes form a clique of
// peers and have no provider; every other AS has one, and every
// provider-customer link runs from a lower AS number to a higher one;
// every other peering joins ASes whose depths in the provider hierarchy
// (a tier-1's is 0, another AS's one more than its deepest provider's)
// differ by at most 1.
func checkInternetLikeShape(t *testing.T, g *Graph, ases int) {
	t.Helper()
	nodes := g.Nodes()
	if len(nodes) != ases || nodes[0] != BaseASN || nodes[len(nodes)-1] != BaseASN+idr.ASN(ases-1) {
		t.Fatalf("want ASes %v..%v, got %d from %v", BaseASN, BaseASN+idr.ASN(ases-1), len(nodes), nodes[0])
	}
	tier1 := func(asn idr.ASN) bool { return asn < BaseASN+tier1s }
	depth := make(map[idr.ASN]int, ases)
	for _, n := range nodes { // ascending, so providers come first
		providers := g.Providers(n)
		if tier1(n) != (len(providers) == 0) {
			t.Fatalf("%v (tier-1: %v) has providers %v", n, tier1(n), providers)
		}
		for _, p := range providers {
			depth[n] = max(depth[n], depth[p]+1)
		}
	}
	for _, e := range g.Edges() {
		switch {
		case e.Rel == P2C && e.A >= e.B:
			t.Fatalf("provider %v of %v has the higher AS number", e.A, e.B)
		case e.Rel == P2P && !(tier1(e.A) && tier1(e.B)):
			if dd := depth[e.A] - depth[e.B]; dd < -1 || dd > 1 {
				t.Fatalf("lateral peering %v-%v joins depths %d and %d", e.A, e.B, depth[e.A], depth[e.B])
			}
		}
	}
	for a := BaseASN; a < BaseASN+tier1s; a++ {
		for b := a + 1; b < BaseASN+tier1s; b++ {
			if e, ok := g.EdgeBetween(a, b); !ok || e.Rel != P2P {
				t.Fatalf("tier-1s %v and %v do not peer", a, b)
			}
		}
	}
}

// TestSynthesizeInternetLikeModel holds SynthesizeInternetLike to its
// model byte for byte, across sizes from the smallest accepted to the
// ones experiments run, under five seeds each.
func TestSynthesizeInternetLikeModel(t *testing.T) {
	sizes := []int{4, 5, 6, 40, 160, 500, 1000}
	if !testing.Short() {
		sizes = append(sizes, 3000)
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 5; seed++ {
			t.Run(fmt.Sprintf("internet%d/seed%d", n, seed), func(t *testing.T) { checkInternetLikeModel(t, n, seed) })
		}
	}
}

// FuzzSynthesizeInternetLike is the same check over fuzzed sizes up to
// 400 ASes and seeds.
func FuzzSynthesizeInternetLike(f *testing.F) {
	for _, n := range []uint16{4, 40, 160, 400} {
		f.Add(n, int64(1))
	}
	f.Fuzz(func(t *testing.T, n uint16, seed int64) {
		checkInternetLikeModel(t, MinInternetLike+int(n)%(401-MinInternetLike), seed)
	})
}

// BenchmarkSynthesizeInternetLike is the topology layer's
// micro-benchmark: generating the internet-like graphs the scale runs
// stand up.
func BenchmarkSynthesizeInternetLike(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := SynthesizeInternetLike(n, rand.New(rand.NewSource(1))); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
