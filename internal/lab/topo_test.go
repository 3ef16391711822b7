package lab

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/idr"
	"repro/internal/topology"
)

// TestTopoSpecRoundTrip pins the shared parser on every spec string
// the scenario DSL documents (plus the er/ba generators): parse,
// render, re-parse, and build a connected graph of the right size.
func TestTopoSpecRoundTrip(t *testing.T) {
	cases := []struct {
		in    string
		nodes int
	}{
		{"clique 16", 16},
		{"line 4", 4},
		{"ring 6", 6},
		{"star 5", 5},
		{"tree 7 2", 7},
		{"grid 4 4", 16},
		{"internet 20", 20},
		{"er 10 0.4", 10},
		{"ba 12 2", 12},
	}
	for _, c := range cases {
		spec, err := ParseTopoString(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if got := spec.String(); got != c.in {
			t.Fatalf("%q: String() = %q, does not round-trip", c.in, got)
		}
		again, err := ParseTopoString(spec.String())
		if err != nil || !reflect.DeepEqual(spec, again) {
			t.Fatalf("%q: re-parse = %+v (%v), want %+v", c.in, again, err, spec)
		}
		if spec.Nodes() != c.nodes {
			t.Fatalf("%q: Nodes() = %d, want %d", c.in, spec.Nodes(), c.nodes)
		}
		g, err := spec.Build(rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatalf("%q: Build: %v", c.in, err)
		}
		if g.NumNodes() != c.nodes {
			t.Fatalf("%q: built %d nodes, want %d", c.in, g.NumNodes(), c.nodes)
		}
		if !g.Connected() {
			t.Fatalf("%q: built graph not connected", c.in)
		}
	}
}

// TestTopoSpecSeededBuildDeterministic pins that random generators
// re-draw the same graph for the same seed (the property Trial relies
// on for reproducibility).
func TestTopoSpecSeededBuildDeterministic(t *testing.T) {
	for _, in := range []string{"internet 20", "er 10 0.4", "ba 12 2"} {
		spec, err := ParseTopoString(in)
		if err != nil {
			t.Fatal(err)
		}
		a, err := spec.Build(rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build(rand.New(rand.NewSource(7)))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Edges(), b.Edges()) {
			t.Fatalf("%q: same seed drew different graphs", in)
		}
	}
}

func TestTopoSpecParseErrors(t *testing.T) {
	for _, in := range []string{"", "mobius 4", "clique", "clique x", "grid 4", "er 10", "er 10 zero", "ba 12",
		"clique 8 16", "grid 4 4 9", "er 10 0.4 7"} {
		if _, err := ParseTopoString(in); err == nil {
			t.Fatalf("%q: want parse error", in)
		}
	}
	// A non-positive size is blamed on the size, by name, before any
	// axis is validated against Nodes(); so is a size or probability
	// the generator would refuse, instead of failing every run.
	for in, want := range map[string]string{
		"clique -3":  "lab: topology clique: size -3 < 1",
		"internet 0": "lab: topology internet: size 0 < 1",
		"er 0 0.5":   "lab: topology er: size 0 < 1",
		"tree 7 0":   "lab: topology tree: size 0 < 1",
		"grid 4 -1":  "lab: topology grid: size -1 < 1",
		"grid 0 4":   "lab: topology grid: size 0 < 1",
		"ba 12 0":    "lab: topology ba: size 0 < 1",
		"ring 2":     "lab: topology ring: size 2 < 3",
		"star 1":     "lab: topology star: size 1 < 2",
		"internet 3": "lab: topology internet: size 3 < 4",
		"ba 2 2":     "lab: topology ba: size 2 < 3",
		"er 5 2":     "lab: topology er: probability 2 outside [0, 1]",
		"er 5 NaN":   "lab: topology er: probability NaN outside [0, 1]",
	} {
		if _, err := ParseTopoString(in); err == nil || err.Error() != want {
			t.Errorf("%q: error %v, want %q", in, err, want)
		}
	}
	// The smallest size each kind accepts builds.
	for _, in := range []string{"clique 1", "line 1", "ring 3", "star 2", "tree 1 1", "grid 1 1", "internet 4", "er 1 0", "er 5 1", "ba 3 2"} {
		spec, err := ParseTopoString(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if _, err := spec.Build(rand.New(rand.NewSource(1))); err != nil {
			t.Errorf("%q parses but does not build: %v", in, err)
		}
	}
	if _, err := (TopoSpec{Kind: "internet", N: 8}).Build(nil); err == nil {
		t.Fatal("random topology without rng should error")
	}
}

func TestPlacementSelect(t *testing.T) {
	g, err := topology.Star(5) // AS1 hub (degree 4), AS2..AS5 leaves
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		in   string
		want []idr.ASN
	}{
		{"none", nil},
		{"last 2", []idr.ASN{4, 5}},
		{"first 2", []idr.ASN{1, 2}},
		{"degree 1", []idr.ASN{1}},
		{"degree 3", []idr.ASN{1, 2, 3}},
		{"as 2,4", []idr.ASN{2, 4}},
		{"3,5", []idr.ASN{3, 5}},
	}
	for _, c := range cases {
		p, err := ParsePlacementString(c.in)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		got, err := p.Select(g)
		if err != nil {
			t.Fatalf("%q: Select: %v", c.in, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%q: Select = %v, want %v", c.in, got, c.want)
		}
		// The rendered form must select the same members.
		back, err := ParsePlacementString(p.String())
		if err != nil {
			t.Fatalf("%q: re-parse %q: %v", c.in, p.String(), err)
		}
		got2, err := back.Select(g)
		if err != nil || !reflect.DeepEqual(got2, c.want) {
			t.Fatalf("%q: round-trip via %q selected %v (%v)", c.in, p.String(), got2, err)
		}
	}

	// The zero value is the paper's deployment: last K.
	zero := Placement{K: 2}
	got, err := zero.Select(g)
	if err != nil || !reflect.DeepEqual(got, []idr.ASN{4, 5}) {
		t.Fatalf("zero-value placement = %v (%v), want last 2", got, err)
	}
}

// TestDegreePlacementThenFailoverOrigin runs the one production order
// in which a graph is queried and then mutated before it is wired:
// Trial.prepare's degree placement builds the adjacency index, then the
// fail-over workload attaches its dual-homed origin with two AddEdges.
// The wiring that follows must see the new origin and its attachments.
func TestDegreePlacementThenFailoverOrigin(t *testing.T) {
	p, err := Trial{
		Topo:      TopoSpec{Kind: "star", N: 6},
		Placement: Placement{Strategy: PlaceDegree, K: 1},
		Event:     Failover,
	}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	g, origin := p.cfg.Graph, p.origin
	if want := []idr.ASN{topology.BaseASN}; !reflect.DeepEqual(p.cfg.SDNMembers, want) {
		t.Fatalf("degree placement picked %v, want the hub %v", p.cfg.SDNMembers, want)
	}
	primary, backup := topology.BaseASN+1, topology.BaseASN+2
	if got, want := g.Neighbors(origin), []idr.ASN{primary, backup}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(origin %v) = %v, want %v", origin, got, want)
	}
	if got, want := g.Providers(origin), []idr.ASN{primary, backup}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Providers(origin %v) = %v, want %v", origin, got, want)
	}
	if got, want := g.Customers(primary), []idr.ASN{origin}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Customers(%v) = %v, want %v", primary, got, want)
	}
	if got := g.Degree(backup); got != 2 {
		t.Fatalf("Degree(%v) = %d, want 2 (hub and origin)", backup, got)
	}
}

// TestExplicitPlacementHasOneSpelling pins that an explicit member
// list is a set, as the experiment uses it: every spelling of one set
// parses, renders and selects alike, has one canonical address, and
// snapshots like any other placement; ParseCanonical refuses the other
// spellings, which would alias that address.
func TestExplicitPlacementHasOneSpelling(t *testing.T) {
	for _, in := range []string{"as 3,2,2", "3 2", "as 2,3,3", "2,,3"} {
		p, err := ParsePlacementString(in)
		if err != nil {
			t.Fatalf("%q: %v", in, err)
		}
		if !reflect.DeepEqual(p.ASNs, []idr.ASN{2, 3}) || p.String() != "as 2,3" {
			t.Errorf("%q parses to %v, renders as %q", in, p.ASNs, p.String())
		}
	}
	sweep := func(asns ...idr.ASN) Sweep {
		return Sweep{
			Base: Trial{
				Topo:      TopoSpec{Kind: "clique", N: 5},
				Event:     Withdrawal,
				Timers:    snapTimers(false),
				Placement: Placement{Strategy: PlaceExplicit, ASNs: asns},
			},
			Axis: MRAIs(2 * time.Second),
		}
	}
	want, err := sweep(2, 3).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if got, err := sweep(3, 2, 2).Canonical(); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("[3 2 2] canonicalizes to %s (%v), [2 3] to %s", got, err, want)
	}
	if _, err := ParseCanonical(want); err != nil {
		t.Fatal(err)
	}
	for _, other := range []string{"as 3,2", "as 2,3,3"} {
		respelled := bytes.Replace(want, []byte(`"as 2,3"`), []byte(`"`+other+`"`), 1)
		if bytes.Equal(respelled, want) {
			t.Fatal("the canonical spec does not carry the placement as \"as 2,3\"")
		}
		if _, err := ParseCanonical(respelled); err == nil || !strings.Contains(err.Error(), "not in canonical form") {
			t.Errorf("ParseCanonical accepted %q as canonical (%v)", other, err)
		}
	}

	tr := sweep(2, 3, 3).Base
	raw, err := tr.WarmupSnapshot()
	if err != nil {
		t.Fatalf("WarmupSnapshot of members [2 3 3]: %v", err)
	}
	got, err := tr.RunFromSnapshot(raw)
	if err != nil {
		t.Fatal(err)
	}
	if plain, err := tr.Run(); err != nil || !reflect.DeepEqual(got, plain) {
		t.Fatalf("snapshot run %+v, plain run %+v (%v)", got, plain, err)
	}
}

func TestPlacementErrors(t *testing.T) {
	g, err := topology.Line(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{"", "as", "as x", "last x",
		// Surplus fields were once dropped, and a negative K passed until
		// Select.
		"degree 4 5", "last 3 junk", "none extra", "first -2"} {
		if _, err := ParsePlacementString(in); err == nil {
			t.Fatalf("%q: want parse error", in)
		}
	}
	if _, err := (Placement{Strategy: PlaceLast, K: 5}).Select(g); err == nil {
		t.Fatal("K beyond topology should error")
	}
	if _, err := (Placement{Strategy: PlaceExplicit, ASNs: []idr.ASN{9}}).Select(g); err == nil {
		t.Fatal("explicit member outside topology should error")
	}
	if _, err := (Placement{Strategy: "random", K: 1}).Select(g); err == nil {
		t.Fatal("unknown strategy should error")
	}
}

// TestEmptyClusterIgnoresPlacement is a metamorphic check, one that
// needs no oracle: a cluster of K = 0 members is pure BGP whichever
// strategy would have chosen them, so the trial's JSON Result is
// byte-identical under every placement.
func TestEmptyClusterIgnoresPlacement(t *testing.T) {
	timers := bgp.DefaultTimers()
	timers.MRAI = 5 * time.Second
	for _, topo := range []TopoSpec{{Kind: "clique", N: 8}, {Kind: "internet", N: 40}} {
		var want []byte
		for _, strategy := range []string{PlaceNone, PlaceLast, PlaceFirst, PlaceDegree} {
			tr := Trial{
				Topo:            topo,
				Placement:       Placement{Strategy: strategy},
				Timers:          timers,
				ProcessingDelay: 25 * time.Millisecond,
				Seed:            5,
				TopoSeed:        9,
			}
			res, err := tr.Run()
			if err != nil {
				t.Fatalf("%s, placement %s: %v", topo, strategy, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if want == nil {
				want = got
			} else if !bytes.Equal(got, want) {
				t.Fatalf("%s: placement %s 0 gives\n%s\nwant (placement none)\n%s", topo, strategy, got, want)
			}
		}
	}
}

// TestLongLineWarmsUp: on a line of 300 ASes the far end's AS path is
// 299 ASes long, more than one 255-ASN AS_PATH segment holds, and every
// AS must still have a route to the origin once warm-up converges.
func TestLongLineWarmsUp(t *testing.T) {
	p, err := Trial{Topo: TopoSpec{Kind: "line", N: 300}}.prepare()
	if err != nil {
		t.Fatal(err)
	}
	e, err := p.warmup()
	if err != nil {
		t.Fatal(err)
	}
	if !e.AllReachable(p.origin) {
		var lost []idr.ASN
		for _, asn := range e.ASNs() {
			if asn != p.origin && !e.Reachable(asn, p.origin) {
				lost = append(lost, asn)
			}
		}
		t.Fatalf("%d ASes have no route to the origin %v after warm-up: %v", len(lost), p.origin, lost)
	}
}
