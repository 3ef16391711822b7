package topology

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/idr"
)

func TestReadCAIDA(t *testing.T) {
	const data = `# serial 20140801
1|2|-1
2|3|0
1|3|-1|bgp
`
	g, err := ReadCAIDA(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 3 {
		t.Fatalf("nodes=%d edges=%d", g.NumNodes(), g.NumEdges())
	}
	if got := g.Customers(1); len(got) != 2 {
		t.Fatalf("Customers(1) = %v", got)
	}
	if got := g.Peers(2); len(got) != 1 || got[0] != 3 {
		t.Fatalf("Peers(2) = %v", got)
	}
}

func TestReadCAIDAErrors(t *testing.T) {
	cases := []string{
		"1|2",                    // too few fields
		"x|2|-1",                 // bad ASN
		"1|y|0",                  // bad ASN
		"1|2|banana",             // bad relationship
		"1|2|7",                  // unknown code
		"5|5|0",                  // self-loop
		"0|5|-1",                 // AS 0 (reserved)
		"5|0|0",                  // AS 0 (reserved)
		"1|2|-1\n2|3|-1\n3|1|-1", // provider-customer cycle
	}
	for _, c := range cases {
		if _, err := ReadCAIDA(strings.NewReader(c)); err == nil {
			t.Errorf("ReadCAIDA(%q) should error", c)
		}
	}
}

func TestReadCAIDADuplicateKeepsFirst(t *testing.T) {
	g, err := ReadCAIDA(strings.NewReader("1|2|-1\n2|1|0\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	e, _ := g.EdgeBetween(1, 2)
	if e.Rel != P2C {
		t.Fatal("first occurrence should win")
	}
}

func TestCAIDARoundTrip(t *testing.T) {
	g, err := SynthesizeInternetLike(40, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCAIDA(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed size: %d/%d -> %d/%d",
			g.NumNodes(), g.NumEdges(), back.NumNodes(), back.NumEdges())
	}
	for _, e := range g.Edges() {
		be, ok := back.EdgeBetween(e.A, e.B)
		if !ok || be.Rel != e.Rel {
			t.Fatalf("edge %v-%v lost or changed", e.A, e.B)
		}
	}
}

func TestSynthesizeInternetLike(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := SynthesizeInternetLike(100, rng)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if !g.Connected() {
		t.Fatal("internet-like graph must be connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Tier-1s (first 3 ASes) have no providers.
	for asn := BaseASN; asn < BaseASN+3; asn++ {
		if len(g.Providers(asn)) != 0 {
			t.Fatalf("tier-1 %v has providers", asn)
		}
	}
	// Everyone else has at least one provider.
	for _, n := range g.Nodes()[3:] {
		if len(g.Providers(n)) == 0 {
			t.Fatalf("%v has no provider", n)
		}
	}
	if _, err := SynthesizeInternetLike(2, rng); err == nil {
		t.Fatal("too-small config should error")
	}
	if _, err := SynthesizeInternetLike(50, nil); err == nil {
		t.Fatal("nil rng should error")
	}
}

func TestReadIPlane(t *testing.T) {
	const data = `# synthetic
1:0 2:0 10.5
2:1 3:0 20
1:0 1:1 2
`
	links, err := ReadIPlane(strings.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(links) != 3 {
		t.Fatalf("links = %d", len(links))
	}
	if links[0].RTT != 10500*time.Microsecond {
		t.Fatalf("RTT = %v", links[0].RTT)
	}
	if links[0].From.ASN != 1 || links[0].To.ASN != 2 {
		t.Fatal("endpoints wrong")
	}
}

func TestReadIPlaneErrors(t *testing.T) {
	cases := []string{
		"1:0",         // one field
		"1-0 2:0 5",   // bad pop syntax
		"x:0 2:0 5",   // bad asn
		"1:z 2:0 5",   // bad index
		"1:0 2:0 -3",  // negative latency
		"1:0 2:0 abc", // non-numeric latency
		"1:0 2:0 NaN",
		"1:0 2:0 Inf",
		"1:0 2:0 -Inf",
		"1:0 2:0 1e300",
		"1:0 2:0 9223372036855",        // ms past time.Duration's range
		"1:0 2:0 9223372036854.775808", // one nanosecond past it
		"0:0 2:0 5",                    // AS 0 (reserved)
	}
	for _, c := range cases {
		if _, err := ReadIPlane(strings.NewReader(c)); err == nil {
			t.Errorf("ReadIPlane(%q) should error", c)
		}
	}
}

// TestReadIPlaneLatencyIsExact pins the latency column's parse: exact
// to the nanosecond (no float rounding on the way), finer digits
// dropped, time.Duration's largest value accepted.
func TestReadIPlaneLatencyIsExact(t *testing.T) {
	for text, want := range map[string]time.Duration{
		"12.345":               12345 * time.Microsecond,
		"0.1":                  100 * time.Microsecond,
		".5":                   500 * time.Microsecond,
		"7.":                   7 * time.Millisecond,
		"0.0000019":            time.Nanosecond,
		"9223372036854.775807": math.MaxInt64,
	} {
		links, err := ReadIPlane(strings.NewReader("1:0 2:0 " + text))
		if err != nil {
			t.Fatalf("ReadIPlane(%q): %v", text, err)
		}
		if got := links[0].RTT; got != want {
			t.Errorf("latency %q = %v, want %v", text, got, want)
		}
	}
}

func TestIPlaneRoundTripAndCollapse(t *testing.T) {
	g, err := Clique(6)
	if err != nil {
		t.Fatal(err)
	}
	links, err := SynthesizeIPlane(g, 3, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteIPlane(&buf, links); err != nil {
		t.Fatal(err)
	}
	back, err := ReadIPlane(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(links) {
		t.Fatalf("round trip changed link count %d -> %d", len(links), len(back))
	}
	collapsed := CollapseToASGraph(back)
	if collapsed.NumNodes() != g.NumNodes() || collapsed.NumEdges() != g.NumEdges() {
		t.Fatalf("collapse: %d/%d, want %d/%d",
			collapsed.NumNodes(), collapsed.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// Collapsed edges carry one-way delays (half RTT, > 0).
	for _, e := range collapsed.Edges() {
		if e.Delay <= 0 {
			t.Fatalf("edge %v-%v has no delay", e.A, e.B)
		}
	}
}

func TestCollapseKeepsMinimumLatency(t *testing.T) {
	links := []PoPLink{
		{From: PoP{ASN: 1, Index: 0}, To: PoP{ASN: 2, Index: 0}, RTT: 40 * time.Millisecond},
		{From: PoP{ASN: 1, Index: 1}, To: PoP{ASN: 2, Index: 1}, RTT: 10 * time.Millisecond},
		{From: PoP{ASN: 1, Index: 0}, To: PoP{ASN: 1, Index: 1}, RTT: 1 * time.Millisecond}, // intra-AS
	}
	g := CollapseToASGraph(links)
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	e, _ := g.EdgeBetween(1, 2)
	if e.Delay != 5*time.Millisecond {
		t.Fatalf("delay = %v, want 5ms (half of min RTT)", e.Delay)
	}
}

func TestAnnotateRelationships(t *testing.T) {
	// AS graph from "iPlane" (all P2P) gets CAIDA relationships.
	g := New()
	for _, e := range []Edge{
		{A: 2, B: 1, Rel: P2P, Delay: 3 * time.Millisecond},
		{A: 2, B: 3, Rel: P2P},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	rel := New()
	if err := rel.AddEdge(Edge{A: 1, B: 2, Rel: P2C}); err != nil { // 1 provides 2
		t.Fatal(err)
	}
	n := AnnotateRelationships(g, rel)
	if n != 1 {
		t.Fatalf("annotated = %d, want 1", n)
	}
	e, _ := g.EdgeBetween(1, 2)
	if e.Rel != P2C || e.A != 1 || e.B != 2 {
		t.Fatalf("edge not annotated with provider orientation: %+v", e)
	}
	if e.Delay != 3*time.Millisecond {
		t.Fatal("annotation lost the latency")
	}
	e2, _ := g.EdgeBetween(2, 3)
	if e2.Rel != P2P {
		t.Fatal("unmatched edge should stay P2P")
	}
}

func TestWriteDOT(t *testing.T) {
	g, err := Star(3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	opts := DOTOptions{
		Highlight:  map[idr.ASN]bool{BaseASN: true},
		EdgeLabels: true,
	}
	if err := WriteDOT(&buf, g, opts); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", `"AS1"`, `"AS2"`, "fillcolor=lightblue", `label="p2c"`} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q:\n%s", want, out)
		}
	}
	// P2P edges render undirected.
	g2, _ := Line(2)
	buf.Reset()
	if err := WriteDOT(&buf, g2, DOTOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dir=none") {
		t.Error("P2P edge should carry dir=none")
	}
}

// FuzzReadCAIDA holds ReadCAIDA to two properties on any input: it
// never panics, and a graph it accepts writes (WriteCAIDA) and reads
// back as the same graph.
func FuzzReadCAIDA(f *testing.F) {
	g, err := SynthesizeInternetLike(40, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCAIDA(&buf, g); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# serial 20140801\n1|2|-1\n2|3|0\n1|3|-1|bgp\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadCAIDA(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteCAIDA(&out, g); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCAIDA(&out)
		if err != nil {
			t.Fatalf("WriteCAIDA's output does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back.Nodes(), g.Nodes()) || !reflect.DeepEqual(back.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the graph: %v %v -> %v %v", g.Nodes(), g.Edges(), back.Nodes(), back.Edges())
		}
	})
}

// FuzzReadIPlane holds ReadIPlane to the same two properties through
// WriteIPlane: no panic, and accepted links read back as themselves.
func FuzzReadIPlane(f *testing.F) {
	g, err := SynthesizeInternetLike(40, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	links, err := SynthesizeIPlane(g, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteIPlane(&buf, links); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("# synthetic\n1:0 2:0 10.5\n2:1 3:0 20\n1:0 1:1 2\n1:2 3:4 0.0000019\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		links, err := ReadIPlane(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := WriteIPlane(&out, links); err != nil {
			t.Fatal(err)
		}
		back, err := ReadIPlane(&out)
		if err != nil {
			t.Fatalf("WriteIPlane's output does not read back: %v\n%s", err, out.Bytes())
		}
		if !reflect.DeepEqual(back, links) {
			t.Fatalf("round trip changed the links: %v -> %v", links, back)
		}
	})
}
