package bgp

import (
	"fmt"
	"io"
)

// WriteRIB renders the router's Loc-RIB in a `show ip bgp`-like form,
// one line per best route, sorted by prefix — the framework's log/RIB
// inspection tool.
func (r *Router) WriteRIB(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s RIB (%d routes, %d sessions established)\n",
		r.cfg.ASN, len(r.table.BestRoutes()), r.EstablishedCount()); err != nil {
		return err
	}
	for _, rt := range r.table.BestRoutes() {
		origin := "learned"
		path := rt.Attrs.ASPath.String()
		if rt.Local {
			origin = "local"
			path = "-"
		}
		nh := "-"
		if rt.Attrs.NextHop.IsValid() {
			nh = rt.Attrs.NextHop.String()
		}
		if _, err := fmt.Fprintf(w, "  %-18s %-8s nh=%-15s lp=%-4d path=[%s]\n",
			rt.Prefix, origin, nh, rt.LocalPref(), path); err != nil {
			return err
		}
	}
	return nil
}
