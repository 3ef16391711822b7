package lab

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"repro/internal/idr"
	"repro/internal/topology"
)

// TopoSpec names one topology generator and its parameters. The same
// spec syntax is accepted by the scenario DSL's "topology" directive
// and the convergence CLI's -topology flag, so "grid 4 4" means the
// same network everywhere.
//
// Kinds and their parameters:
//
//	clique N            complete peer mesh (the paper's Figure 2 uses 16)
//	line N              path graph
//	ring N              cycle (N >= 3)
//	star N              hub-and-spoke provider hierarchy
//	tree N F            complete F-ary provider hierarchy on N ASes
//	grid W H            W x H peer lattice
//	internet N          synthetic Internet-like AS graph (seeded)
//	er N P              Erdős–Rényi G(N, P) peer graph (seeded)
//	ba N M              Barabási–Albert preferential attachment (seeded)
type TopoSpec struct {
	// Kind is the generator name (see the table above).
	Kind string
	// N is the primary size parameter (AS count; grid width).
	N int
	// M is the secondary integer parameter: tree fanout, grid height,
	// or Barabási–Albert attachment degree.
	M int
	// P is the Erdős–Rényi edge probability.
	P float64
}

// ParseTopo parses a whitespace-split topology spec such as
// ["clique", "16"] or ["grid", "4", "4"].
func ParseTopo(fields []string) (TopoSpec, error) {
	if len(fields) == 0 {
		return TopoSpec{}, fmt.Errorf("lab: empty topology spec")
	}
	kind := strings.ToLower(fields[0])
	argInt := func(i int) (int, error) {
		if len(fields) <= i {
			return 0, fmt.Errorf("lab: topology %s: missing size argument", kind)
		}
		v, err := strconv.Atoi(fields[i])
		if err != nil {
			return 0, fmt.Errorf("lab: topology %s: bad integer %q", kind, fields[i])
		}
		if v < 1 {
			// Caught here so the size is what gets blamed, not whatever
			// is validated against Nodes() first (the SDN-count axis).
			return 0, fmt.Errorf("lab: topology %s: size %d < 1", kind, v)
		}
		return v, nil
	}
	spec := TopoSpec{Kind: kind}
	arity := 2
	var err error
	switch kind {
	case "clique", "line", "ring", "star", "internet":
		spec.N, err = argInt(1)
	case "tree", "grid", "ba":
		arity = 3
		if spec.N, err = argInt(1); err != nil {
			return TopoSpec{}, err
		}
		spec.M, err = argInt(2)
	case "er":
		arity = 3
		if spec.N, err = argInt(1); err != nil {
			return TopoSpec{}, err
		}
		if len(fields) <= 2 {
			return TopoSpec{}, fmt.Errorf("lab: topology er: missing edge probability")
		}
		spec.P, err = strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return TopoSpec{}, fmt.Errorf("lab: topology er: bad probability %q", fields[2])
		}
	default:
		return TopoSpec{}, fmt.Errorf("lab: unknown topology %q", kind)
	}
	if err != nil {
		return TopoSpec{}, err
	}
	if len(fields) > arity {
		return TopoSpec{}, fmt.Errorf("lab: topology %s takes %d argument(s), got extra %q", kind, arity-1, fields[arity:])
	}
	if err := spec.check(); err != nil {
		return TopoSpec{}, err
	}
	return spec, nil
}

// check refuses a size or probability the spec's generator would
// refuse, so the spec fails where it is written instead of in every
// run. The minimum sizes are the generators' own.
func (s TopoSpec) check() error {
	least := 1
	switch s.Kind {
	case "ring":
		least = topology.MinRing
	case "star":
		least = topology.MinStar
	case "internet":
		least = topology.MinInternetLike
	case "ba":
		least = s.M + 1 // the seed clique of m+1 ASes
	case "er":
		if !(s.P >= 0 && s.P <= 1) {
			return fmt.Errorf("lab: topology er: probability %v outside [0, 1]", s.P)
		}
	}
	if s.N < least {
		return fmt.Errorf("lab: topology %s: size %d < %d", s.Kind, s.N, least)
	}
	return nil
}

// ParseTopoString parses a topology spec given as one string, e.g.
// "grid 4 4".
func ParseTopoString(s string) (TopoSpec, error) {
	return ParseTopo(strings.Fields(s))
}

// String renders the spec in the form ParseTopo accepts, so specs
// round-trip between the CLI, the scenario DSL and structured output.
func (s TopoSpec) String() string {
	switch s.Kind {
	case "tree", "grid", "ba":
		return fmt.Sprintf("%s %d %d", s.Kind, s.N, s.M)
	case "er":
		return fmt.Sprintf("%s %d %s", s.Kind, s.N, strconv.FormatFloat(s.P, 'g', -1, 64))
	default:
		return fmt.Sprintf("%s %d", s.Kind, s.N)
	}
}

// Nodes returns the number of ASes the spec generates.
func (s TopoSpec) Nodes() int {
	if s.Kind == "grid" {
		return s.N * s.M
	}
	return s.N
}

// Build runs the generator. Random topologies (internet, er, ba) draw
// from rng; deterministic generators ignore it. rng must not be nil
// for the random kinds.
func (s TopoSpec) Build(rng *rand.Rand) (*topology.Graph, error) {
	switch s.Kind {
	case "clique":
		return topology.Clique(s.N)
	case "line":
		return topology.Line(s.N)
	case "ring":
		return topology.Ring(s.N)
	case "star":
		return topology.Star(s.N)
	case "tree":
		return topology.Tree(s.N, s.M)
	case "grid":
		return topology.Grid(s.N, s.M)
	case "internet":
		if rng == nil {
			return nil, fmt.Errorf("lab: topology internet needs a random source")
		}
		return topology.SynthesizeInternetLike(s.N, rng)
	case "er":
		return topology.ErdosRenyi(s.N, s.P, rng)
	case "ba":
		return topology.BarabasiAlbert(s.N, s.M, rng)
	default:
		return nil, fmt.Errorf("lab: unknown topology %q", s.Kind)
	}
}

// Placement strategies.
const (
	// PlaceLast selects the K highest-numbered ASes — the paper's
	// deployment model (the origin AS1 stays legacy until K = N), and
	// the zero-value default.
	PlaceLast = "last"
	// PlaceFirst selects the K lowest-numbered ASes (the origin joins
	// the cluster first).
	PlaceFirst = "first"
	// PlaceDegree selects the K highest-degree ASes (ties broken by
	// lower ASN) — centralize the best-connected networks first.
	PlaceDegree = "degree"
	// PlaceExplicit uses the listed ASNs as a set: order and
	// repetition do not matter, and every spelling of one set renders
	// as the sorted, duplicate-free list.
	PlaceExplicit = "explicit"
	// PlaceNone runs pure BGP regardless of K.
	PlaceNone = "none"
)

// Placement decides which ASes operate as SDN cluster members under
// the IDR controller. The zero value (strategy PlaceLast, K 0) means
// pure BGP.
type Placement struct {
	// Strategy is one of the Place* constants; empty means PlaceLast.
	Strategy string
	// K is the cluster size for the first/last/degree strategies.
	K int
	// ASNs lists the members for PlaceExplicit.
	ASNs []idr.ASN
}

// ParsePlacement parses a placement given as whitespace-split fields:
// "none", "last [K]", "first [K]", "degree [K]", or "as 2,3,5" /
// "2,3,5" for explicit members. A strategy without K leaves K to the
// sweep axis (the sdn-count axis sets it per cell); K must not be
// negative, and a strategy takes no field beyond it.
func ParsePlacement(fields []string) (Placement, error) {
	if len(fields) == 0 {
		return Placement{}, fmt.Errorf("lab: empty placement")
	}
	strategy := strings.ToLower(fields[0])
	switch strategy {
	case PlaceNone, PlaceLast, PlaceFirst, PlaceDegree:
		arity := 2
		if strategy == PlaceNone {
			arity = 1
		}
		if len(fields) > arity {
			return Placement{}, fmt.Errorf("lab: placement %s takes %d argument(s), got extra %q", strategy, arity-1, fields[arity:])
		}
		p := Placement{Strategy: strategy}
		if len(fields) > 1 {
			k, err := strconv.Atoi(fields[1])
			if err != nil || k < 0 {
				return Placement{}, fmt.Errorf("lab: placement %s: bad count %q", p.Strategy, fields[1])
			}
			p.K = k
		}
		return p, nil
	case "as":
		return parseExplicit(fields[1:])
	default:
		return parseExplicit(fields)
	}
}

// ParsePlacementString parses a placement given as one string, e.g.
// "degree 4" or "2,3,5".
func ParsePlacementString(s string) (Placement, error) {
	return ParsePlacement(strings.Fields(s))
}

func parseExplicit(fields []string) (Placement, error) {
	p := Placement{Strategy: PlaceExplicit}
	for _, f := range fields {
		for _, tok := range strings.Split(f, ",") {
			if tok == "" {
				continue
			}
			v, err := strconv.ParseUint(tok, 10, 32)
			if err != nil {
				return Placement{}, fmt.Errorf("lab: placement: bad ASN %q", tok)
			}
			p.ASNs = append(p.ASNs, idr.ASN(v))
		}
	}
	if len(p.ASNs) == 0 {
		return Placement{}, fmt.Errorf("lab: placement: no ASNs listed")
	}
	p.ASNs = p.members()
	return p, nil
}

// members is the explicit member set in its one form: sorted, without
// duplicates, in a slice of its own.
func (p Placement) members() []idr.ASN {
	return slices.Compact(slices.Sorted(slices.Values(p.ASNs)))
}

// String renders the placement in the form ParsePlacement accepts.
func (p Placement) String() string {
	switch p.Strategy {
	case PlaceNone:
		return PlaceNone
	case PlaceExplicit:
		asns := p.members()
		toks := make([]string, len(asns))
		for i, a := range asns {
			toks[i] = strconv.FormatUint(uint64(a), 10)
		}
		return "as " + strings.Join(toks, ",")
	case PlaceFirst, PlaceDegree:
		return fmt.Sprintf("%s %d", p.Strategy, p.K)
	default:
		return fmt.Sprintf("%s %d", PlaceLast, p.K)
	}
}

// Select resolves the placement against a concrete topology and
// returns the cluster member set.
func (p Placement) Select(g *topology.Graph) ([]idr.ASN, error) {
	switch p.Strategy {
	case PlaceNone:
		return nil, nil
	case PlaceExplicit:
		for _, a := range p.ASNs {
			if !g.HasNode(a) {
				return nil, fmt.Errorf("lab: placement member %v not in topology", a)
			}
		}
		return p.members(), nil
	}
	nodes := g.Nodes()
	if p.K < 0 || p.K > len(nodes) {
		return nil, fmt.Errorf("lab: SDN count %d outside 0..%d", p.K, len(nodes))
	}
	if p.K == 0 {
		return nil, nil
	}
	switch p.Strategy {
	case PlaceFirst:
		return nodes[:p.K], nil
	case PlaceDegree:
		slices.SortStableFunc(nodes, func(a, b idr.ASN) int {
			return cmp.Or(cmp.Compare(g.Degree(b), g.Degree(a)), cmp.Compare(a, b))
		})
		picked := slices.Clone(nodes[:p.K])
		slices.Sort(picked)
		return picked, nil
	case PlaceLast, "":
		return nodes[len(nodes)-p.K:], nil
	default:
		return nil, fmt.Errorf("lab: unknown placement strategy %q", p.Strategy)
	}
}
