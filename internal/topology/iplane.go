package topology

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/idr"
)

// PoP identifies a point of presence as "<asn>:<index>", following the
// iPlane convention of PoPs grouped by owning AS.
type PoP struct {
	ASN   idr.ASN
	Index int
}

// String renders the PoP in the textual dataset form.
func (p PoP) String() string { return fmt.Sprintf("%d:%d", uint32(p.ASN), p.Index) }

// PoPLink is one measured inter-PoP link with a round-trip latency.
type PoPLink struct {
	From, To PoP
	RTT      time.Duration
}

// ReadIPlane parses the iPlane inter-PoP links format used by this
// framework:
//
//	# comment
//	<asn>:<pop> <asn>:<pop> <latency-ms>
//
// The latency column is optional (defaults to 0 = experiment default).
// It is a decimal number of milliseconds, digits with an optional
// fraction, kept to the nanosecond (further digits are dropped); one
// that does not fit a time.Duration is refused.
func ReadIPlane(r io.Reader) ([]PoPLink, error) {
	var out []PoPLink
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 {
			return nil, fmt.Errorf("topology: iplane line %d: want 2+ fields, got %q", line, text)
		}
		from, err := parsePoP(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topology: iplane line %d: %v", line, err)
		}
		to, err := parsePoP(fields[1])
		if err != nil {
			return nil, fmt.Errorf("topology: iplane line %d: %v", line, err)
		}
		var rtt time.Duration
		if len(fields) >= 3 {
			if rtt, err = parseMillis(fields[2]); err != nil {
				return nil, fmt.Errorf("topology: iplane line %d: %v", line, err)
			}
		}
		out = append(out, PoPLink{From: from, To: to, RTT: rtt})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading iplane data: %w", err)
	}
	return out, nil
}

// parseMillis parses a latency in milliseconds, "<digits>[.<digits>]"
// (either side of the point may be empty, not both), exactly: decimal
// digits to nanoseconds with no float in between, so the value
// WriteIPlane prints reads back as itself.
func parseMillis(s string) (time.Duration, error) {
	whole, frac, _ := strings.Cut(s, ".")
	if whole == "" && frac == "" || !allDigits(whole) || !allDigits(frac) {
		return 0, fmt.Errorf("bad latency %q", s)
	}
	var ms uint64
	if whole != "" {
		var err error
		if ms, err = strconv.ParseUint(whole, 10, 64); err != nil {
			ms = math.MaxUint64 // only digits, so too many of them
		}
	}
	ns, _ := strconv.ParseUint((frac + "000000")[:6], 10, 64) // finer digits are dropped
	if ms > (math.MaxInt64-ns)/uint64(time.Millisecond) {
		return 0, fmt.Errorf("latency %q ms does not fit a time.Duration", s)
	}
	return time.Duration(ms*uint64(time.Millisecond) + ns), nil
}

func allDigits(s string) bool {
	for _, c := range []byte(s) {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func parsePoP(s string) (PoP, error) {
	asnStr, popStr, ok := strings.Cut(s, ":")
	if !ok {
		return PoP{}, fmt.Errorf("bad PoP %q: want <asn>:<index>", s)
	}
	asn, err := parseASN(asnStr)
	if err != nil {
		return PoP{}, err
	}
	idx, err := strconv.Atoi(popStr)
	if err != nil || idx < 0 {
		return PoP{}, fmt.Errorf("bad PoP index in %q", s)
	}
	return PoP{ASN: asn, Index: idx}, nil
}

// WriteIPlane serialises PoP links in the textual format accepted by
// ReadIPlane. A latency prints in milliseconds with three decimals, or
// six when it is not a whole number of microseconds: exactly, so it
// reads back as itself.
func WriteIPlane(w io.Writer, links []PoPLink) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "# iPlane inter-PoP links (format: <asn>:<pop> <asn>:<pop> <rtt-ms>)"); err != nil {
		return err
	}
	for _, l := range links {
		sign, ns := "", uint64(l.RTT)
		if l.RTT < 0 {
			sign, ns = "-", -ns
		}
		ms, frac := ns/uint64(time.Millisecond), ns%uint64(time.Millisecond)
		var err error
		if frac%uint64(time.Microsecond) == 0 {
			_, err = fmt.Fprintf(bw, "%s %s %s%d.%03d\n", l.From, l.To, sign, ms, frac/uint64(time.Microsecond))
		} else {
			_, err = fmt.Fprintf(bw, "%s %s %s%d.%06d\n", l.From, l.To, sign, ms, frac)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// CollapseToASGraph reduces PoP-level links to an AS-level graph, as
// the paper's framework does when building topologies from iPlane data
// ("every AS is emulated by a single network device"). Intra-AS links
// are dropped; parallel inter-AS links keep the minimum latency. Since
// iPlane carries no business relationships, edges default to P2P; pair
// it with CAIDA relationships via AnnotateRelationships.
func CollapseToASGraph(links []PoPLink) *Graph {
	g := New()
	for _, l := range links {
		a, b := l.From.ASN, l.To.ASN
		if a == b {
			continue
		}
		// One-way delay is half the measured RTT.
		delay := l.RTT / 2
		if prev, ok := g.EdgeBetween(a, b); ok {
			if prev.Delay <= delay && prev.Delay != 0 {
				continue
			}
			if delay == 0 {
				continue
			}
		}
		// Errors are impossible here: a != b is checked above.
		_ = g.AddEdge(Edge{A: a, B: b, Rel: P2P, Delay: delay})
	}
	return g
}

// AnnotateRelationships copies business relationships from rel (e.g. a
// CAIDA graph) onto the edges of g where both graphs have the link,
// returning how many edges were annotated.
func AnnotateRelationships(g, rel *Graph) int {
	n := 0
	for _, e := range g.Edges() {
		re, ok := rel.EdgeBetween(e.A, e.B)
		if !ok {
			continue
		}
		annotated := e
		annotated.Rel = re.Rel
		if re.Rel == P2C {
			// Preserve provider orientation from the relationship graph.
			annotated.A, annotated.B = re.A, re.B
		}
		// AddEdge replaces in place; endpoints unchanged so no error.
		_ = g.AddEdge(annotated)
		n++
	}
	return n
}

// SynthesizeIPlane produces a synthetic inter-PoP measurement set for
// the given AS graph: every AS gets 1..maxPoPs PoPs; every AS edge
// becomes one or more PoP-level links with geographic-ish latencies
// (5ms..120ms RTT); intra-AS backbone links connect each AS's PoPs in
// a chain. Output round-trips through WriteIPlane/ReadIPlane and
// collapses back to a graph whose edges match g.
func SynthesizeIPlane(g *Graph, maxPoPs int, rng *rand.Rand) ([]PoPLink, error) {
	if maxPoPs < 1 {
		return nil, fmt.Errorf("topology: maxPoPs %d < 1", maxPoPs)
	}
	if rng == nil {
		return nil, fmt.Errorf("topology: SynthesizeIPlane needs a random source")
	}
	popCount := make(map[idr.ASN]int)
	var links []PoPLink
	for _, asn := range g.Nodes() {
		popCount[asn] = 1 + rng.Intn(maxPoPs)
		// Chain the AS's PoPs with short backbone links.
		for i := 1; i < popCount[asn]; i++ {
			links = append(links, PoPLink{
				From: PoP{ASN: asn, Index: i - 1},
				To:   PoP{ASN: asn, Index: i},
				RTT:  time.Duration(1+rng.Intn(5)) * time.Millisecond,
			})
		}
	}
	for _, e := range g.Edges() {
		rtt := time.Duration(5+rng.Intn(115)) * time.Millisecond
		links = append(links, PoPLink{
			From: PoP{ASN: e.A, Index: rng.Intn(popCount[e.A])},
			To:   PoP{ASN: e.B, Index: rng.Intn(popCount[e.B])},
			RTT:  rtt,
		})
	}
	slices.SortFunc(links, func(a, b PoPLink) int {
		return cmp.Or(
			cmp.Compare(a.From.ASN, b.From.ASN),
			cmp.Compare(a.From.Index, b.From.Index),
			cmp.Compare(a.To.ASN, b.To.ASN),
			cmp.Compare(a.To.Index, b.To.Index),
		)
	})
	return links, nil
}
