// Package collector implements the framework's BGP route collector
// (paper §3: "All BGP routers peer with a BGP route collector, which
// collects routing updates for monitoring purposes").
//
// The collector is a real BGP speaker: it accepts sessions, imports
// everything into its RIB and exports nothing, while recording every
// UPDATE with a timestamp for offline analysis — a lightweight
// MRT-like feed in the spirit of RFC 6396's BGP4MP records, traded
// down to a self-describing JSON Lines serialisation.
//
// # Dump schema
//
// WriteJSONL emits one JSON object per collected UPDATE, in arrival
// order, with the following fields (see Record):
//
//	{
//	  "time": "2000-01-01T00:05:42.103Z",       // RFC 3339, virtual clock
//	  "from": 7,                                 // monitored router's ASN
//	  "announced": {"10.0.3.0/24": "7 3"},       // prefix -> AS path,
//	                                             //   omitted when empty
//	  "withdrawn": ["10.0.9.0/24"]               // omitted when empty
//	}
//
// "time" is the emulation's virtual clock (sim.Epoch-based), so dumps
// from the same seed are byte-identical. "announced" maps every NLRI
// prefix of the UPDATE to the advertised AS_PATH in the conventional
// "1 2 {3,4}" rendering; "withdrawn" lists withdrawn prefixes in
// UPDATE order. ReadJSONL parses the format back into Records, so a
// dump round-trips for offline analysis.
package collector

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/bgp/rib"
	"repro/internal/idr"
	"repro/internal/policy"
	"repro/internal/sim"
)

// DefaultASN is the collector's conventional private AS number.
const DefaultASN idr.ASN = 65000

// Record is one collected routing update — one line of the JSONL dump
// (see the package doc for the full schema).
type Record struct {
	// Time is the virtual-clock arrival instant of the UPDATE.
	Time time.Time `json:"time"`
	// From is the router the update came from.
	From idr.ASN `json:"from"`
	// Announced maps prefix -> AS path for the NLRI in the update
	// (omitted when the UPDATE announced nothing).
	Announced map[string]string `json:"announced,omitempty"`
	// Withdrawn lists withdrawn prefixes (omitted when none).
	Withdrawn []string `json:"withdrawn,omitempty"`
}

// silentPolicy imports everything and exports nothing: the collector
// listens only.
type silentPolicy struct{}

func (silentPolicy) Import(policy.Neighbor, *rib.Route) bool                  { return true }
func (silentPolicy) Export(policy.Neighbor, policy.Neighbor, *rib.Route) bool { return false }

// Collector is the route collector instance.
type Collector struct {
	router  *bgp.Router
	clock   sim.Clock
	records []Record
	last    time.Time
}

// Config configures the collector.
type Config struct {
	// ASN defaults to DefaultASN.
	ASN   idr.ASN
	Clock sim.Clock
	Rand  *rand.Rand
	// Timers defaults to bgp.DefaultTimers with MRAI irrelevant (the
	// collector never advertises).
	Timers bgp.Timers
}

// New builds a collector.
func New(cfg Config) (*Collector, error) {
	if cfg.ASN == 0 {
		cfg.ASN = DefaultASN
	}
	if cfg.Clock == nil {
		return nil, fmt.Errorf("collector: needs a clock")
	}
	c := &Collector{clock: cfg.Clock}
	router, err := bgp.New(bgp.Config{
		ASN:      cfg.ASN,
		RouterID: idr.RouterIDFromAddr(netip.AddrFrom4([4]byte{172, 31, 255, 1})),
		Clock:    cfg.Clock,
		Rand:     cfg.Rand,
		Policy:   silentPolicy{},
		Timers:   cfg.Timers,
		Trace:    c.onTrace,
	})
	if err != nil {
		return nil, err
	}
	c.router = router
	return c, nil
}

// Router exposes the collector's BGP speaker for session wiring.
func (c *Collector) Router() *bgp.Router { return c.router }

// ASN returns the collector's AS number.
func (c *Collector) ASN() idr.ASN { return c.router.ASN() }

// onTrace records each received UPDATE. The message is the session's
// to reuse once onTrace returns, so a record holds renderings, not
// slices of it.
func (c *Collector) onTrace(ev bgp.TraceEvent) {
	u := ev.Update
	if ev.Kind != bgp.TraceRecv || u == nil {
		return
	}
	rec := Record{Time: ev.Time, From: peerASNFromKey(ev.Peer)}
	if len(u.NLRI) > 0 {
		rec.Announced = make(map[string]string, len(u.NLRI))
		for _, p := range u.NLRI {
			rec.Announced[p.String()] = u.Attrs.ASPath.String()
		}
	}
	for _, p := range u.Withdrawn {
		rec.Withdrawn = append(rec.Withdrawn, p.String())
	}
	c.records = append(c.records, rec)
	c.last = ev.Time
}

// peerASNFromKey extracts the remote ASN from the framework's
// conventional peer keys ("from-AS<number>"). Unknown shapes yield 0.
func peerASNFromKey(key rib.PeerKey) idr.ASN {
	var n uint32
	if _, err := fmt.Sscanf(string(key), "from-AS%d", &n); err == nil {
		return idr.ASN(n)
	}
	return 0
}

// PeerKeyFor returns the conventional collector-side peer key for a
// monitored router.
func PeerKeyFor(asn idr.ASN) rib.PeerKey {
	return rib.PeerKey(fmt.Sprintf("from-AS%d", uint32(asn)))
}

// Records returns all collected updates in arrival order.
func (c *Collector) Records() []Record { return c.records }

// LastUpdate returns the time of the most recent update, or false when
// nothing was collected.
func (c *Collector) LastUpdate() (time.Time, bool) {
	if c.last.IsZero() {
		return time.Time{}, false
	}
	return c.last, true
}

// WriteJSONL streams the collected records as JSON lines in the
// package doc's dump schema, one record per line, in arrival order.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range c.records {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL parses a dump written by WriteJSONL back into records,
// preserving order — the offline-analysis half of the round trip.
// Blank lines are skipped; a malformed line errors with its number.
func ReadJSONL(r io.Reader) ([]Record, error) {
	dec := json.NewDecoder(r)
	var out []Record
	for {
		var rec Record
		if err := dec.Decode(&rec); err == io.EOF {
			return out, nil
		} else if err != nil {
			return nil, fmt.Errorf("collector: record %d: %w", len(out)+1, err)
		}
		out = append(out, rec)
	}
}
