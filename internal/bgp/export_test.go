package bgp

import (
	"net/netip"
	"testing"

	"repro/internal/bgp/rib"
	"repro/internal/bgp/wire"
)

// PoisonLent makes every router and session in the process, for the
// rest of the test, overwrite what it lent — a *wire.Update's prefix
// lists (in place, element by element) and attribute header, a
// *rib.Change — with garbage the moment the owner and trace hooks it
// was lent to have returned. The attribute slices' contents are left
// alone: those are the RIB's to keep.
func PoisonLent(t *testing.T) {
	garbage := netip.MustParsePrefix("203.0.113.0/24")
	junk := &rib.Route{Prefix: garbage, Peer: "poison", Local: true,
		Attrs: wire.PathAttrs{ASPath: wire.NewASPath(64999, 64999)}}
	lendEnded = func(u *wire.Update, c *rib.Change) {
		if u != nil {
			for i := range u.NLRI {
				u.NLRI[i] = garbage
			}
			for i := range u.Withdrawn {
				u.Withdrawn[i] = garbage
			}
			u.Attrs = junk.Attrs
			u.NLRI, u.Withdrawn = append(u.NLRI, garbage), append(u.Withdrawn, garbage)
		}
		if c != nil {
			*c = rib.Change{Prefix: garbage, Old: junk, New: junk}
		}
	}
	t.Cleanup(func() { lendEnded = nil })
}

// NextAdv returns when p's MRAI hold-down lapses, in nanoseconds since
// sim.Epoch (sim.TimeNone: the next flush may go at once).
func NextAdv(p *Peer) int64 { return p.nextAdv }
