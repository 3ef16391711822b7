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
// AS 0 is refused, and so is a graph Validate refuses (a cycle of
// provider–customer links).
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
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("topology: caida data: %w", err)
	}
	return g, nil
}

// parseASN parses a decimal AS number. AS 0 is refused: it is reserved
// (RFC 7607), and a BGP speaker reads it as no AS at all.
func parseASN(s string) (idr.ASN, error) {
	v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 32)
	if err != nil {
		return 0, fmt.Errorf("bad AS number %q", s)
	}
	if v == 0 {
		return 0, fmt.Errorf("AS 0 is reserved")
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
	// The generator works on indices into asns, which ascend with them:
	// depth[i] is AS i's hierarchy depth, and customers[p] lists p's
	// customers in the order they attached, which is ascending.
	depth := make([]int, ases)
	customers := make([][]int32, ases)

	// Tier-1 clique.
	for i := 0; i < tier1s; i++ {
		g.AddNode(asns[i])
		for j := 0; j < i; j++ {
			if err := g.AddEdge(Edge{A: asns[j], B: asns[i], Rel: P2P}); err != nil {
				return nil, err
			}
		}
	}

	// Degree-weighted provider pool (each provider appears once per
	// customer it already has, plus once so everyone is reachable).
	pool := make([]int32, tier1s, 3*ases) // a newcomer adds itself and at most two providers
	for i := range pool {
		pool[i] = int32(i)
	}
	var chosen []int32
	for i := tier1s; i < ases; i++ {
		// 1 + Poisson-ish extra providers around avgProviders.
		n := 1
		for float64(n) < avgProviders && rng.Float64() < avgProviders-1 {
			n++
		}
		chosen = chosen[:0]
		for len(chosen) < n && len(chosen) < i {
			p := pool[rng.Intn(len(pool))]
			if !slices.Contains(chosen, p) {
				chosen = append(chosen, p)
			}
		}
		// Attach in ascending order, so the pool's growth does not
		// depend on the order the draws came in.
		slices.Sort(chosen)
		maxDepth := 0
		for _, p := range chosen {
			if err := g.AddEdge(Edge{A: asns[p], B: asns[i], Rel: P2C}); err != nil {
				return nil, err
			}
			customers[p] = append(customers[p], int32(i))
			pool = append(pool, p)
			maxDepth = max(maxDepth, depth[p]+1)
		}
		depth[i] = maxDepth
		pool = append(pool, int32(i))
	}

	// Lateral peering between similar-depth ASes. Each pair is visited
	// once and only here, so the one link it can already have is a
	// provider–customer link from above: i's customers, which ascend
	// as j does and are skipped in step.
	for i := tier1s; i < ases; i++ {
		skip := customers[i]
		for j := i + 1; j < ases; j++ {
			if len(skip) > 0 && int(skip[0]) == j {
				skip = skip[1:]
				continue
			}
			if dd := depth[i] - depth[j]; dd >= -1 && dd <= 1 && rng.Float64() < peerProb {
				if err := g.AddEdge(Edge{A: asns[i], B: asns[j], Rel: P2P}); err != nil {
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
