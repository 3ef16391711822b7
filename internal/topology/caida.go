package topology

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/idr"
)

// ReadCAIDA parses the CAIDA AS-relationship format:
//
//	# comment lines
//	<provider-as>|<customer-as>|-1
//	<peer-as>|<peer-as>|0
//
// Later serialisations add a fourth source field (e.g. "|bgp"), which
// is accepted and ignored. Duplicate links keep the first occurrence.
func ReadCAIDA(r io.Reader) (*Graph, error) {
	g := New()
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Split(text, "|")
		if len(fields) < 3 {
			return nil, fmt.Errorf("topology: caida line %d: want at least 3 |-separated fields, got %q", line, text)
		}
		a, err := parseASN(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topology: caida line %d: %v", line, err)
		}
		b, err := parseASN(fields[1])
		if err != nil {
			return nil, fmt.Errorf("topology: caida line %d: %v", line, err)
		}
		rel, err := strconv.Atoi(strings.TrimSpace(fields[2]))
		if err != nil {
			return nil, fmt.Errorf("topology: caida line %d: bad relationship %q", line, fields[2])
		}
		var r Relationship
		switch rel {
		case 0:
			r = P2P
		case -1:
			r = P2C
		default:
			return nil, fmt.Errorf("topology: caida line %d: unknown relationship code %d", line, rel)
		}
		if g.HasEdge(a, b) {
			continue
		}
		if err := g.AddEdge(Edge{A: a, B: b, Rel: r}); err != nil {
			return nil, fmt.Errorf("topology: caida line %d: %v", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading caida data: %w", err)
	}
	return g, nil
}

func parseASN(s string) (idr.ASN, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad AS number %q", s)
	}
	return idr.ASN(v), nil
}

// WriteCAIDA serialises the graph in the CAIDA AS-relationship format,
// edges in deterministic order.
func WriteCAIDA(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# AS relationships (format: <as>|<as>|<rel>; -1 = provider|customer, 0 = peer|peer)"); err != nil {
		return err
	}
	for _, e := range g.Edges() {
		code := 0
		if e.Rel == P2C {
			code = -1
		}
		if _, err := fmt.Fprintf(bw, "%d|%d|%d\n", uint32(e.A), uint32(e.B), code); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// The shape of every internet-like graph: the size of the
// fully-meshed tier-1 clique, the mean number of providers per
// non-tier-1 AS (after measured multihoming rates), and the
// probability that two ASes at similar hierarchy depth peer.
const (
	tier1s       = 3
	avgProviders = 1.8
	peerProb     = 0.05
)

// MinInternetLike is the fewest ASes SynthesizeInternetLike accepts.
const MinInternetLike = tier1s + 1

// SynthesizeInternetLike generates a CAIDA-style AS graph: a tier-1
// clique of peers, a provider hierarchy grown by degree-preferential
// attachment, and lateral peering between ASes of similar depth. The
// real CAIDA dataset is no longer redistributable with this repo, so
// experiments use this generator (see DESIGN.md substitutions); the
// output round-trips through WriteCAIDA/ReadCAIDA.
func SynthesizeInternetLike(ases int, rng *rand.Rand) (*Graph, error) {
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
