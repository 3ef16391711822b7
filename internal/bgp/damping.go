package bgp

import (
	"math"
	"net/netip"
	"time"

	"repro/internal/bgp/rib"
	"repro/internal/sim"
)

// DampingConfig enables RFC 2439 route-flap damping, BGP's native
// stability mechanism (Quagga ships it as `bgp dampening`). It is the
// distributed counterpart to the paper's centralized delayed
// recomputation: both rate-limit flaps, but damping punishes
// individual routes at every router while the controller batches its
// own decisions. Penalties and thresholds are the usual vendor
// defaults (the constants below); only the decay half-life is set per
// run.
type DampingConfig struct {
	// HalfLife is the exponential decay half-life (default 15 min).
	HalfLife time.Duration
}

// The damping parameters every router runs with: the penalty each
// withdrawal or changed re-advertisement adds, the penalty at which a
// route is suppressed and the decayed one at which it is reused, and
// the longest a route stays suppressed.
const (
	withdrawPenalty   = 1000
	updatePenalty     = 500
	suppressThreshold = 2000
	reuseThreshold    = 750
	maxSuppress       = time.Hour
)

// Resolved returns the configuration with a zero HalfLife replaced by
// its documented default — the exact value a router configured with c
// runs with. The canonical spec serialization behind the artifact
// store uses this instead of duplicating the default.
func (c DampingConfig) Resolved() DampingConfig {
	if c.HalfLife == 0 {
		c.HalfLife = 15 * time.Minute
	}
	return c
}

// maxPenalty is the ceiling implied by maxSuppress: a penalty that
// would take longer than maxSuppress to decay to the reuse threshold
// is clipped.
func (c *DampingConfig) maxPenalty() float64 {
	halfLives := float64(maxSuppress) / float64(c.HalfLife)
	return reuseThreshold * math.Pow(2, halfLives)
}

// dampState tracks one (session, prefix) flap history.
type dampState struct {
	penalty    float64
	updatedAt  time.Time
	suppressed bool
	// latest holds the most recent advertised route while suppressed,
	// so reuse can reinstate it.
	latest     *rib.Route
	reuseTimer sim.Timer
}

// decayedPenalty returns the penalty decayed to now.
func (d *dampState) decayedPenalty(cfg *DampingConfig, now time.Time) float64 {
	dt := now.Sub(d.updatedAt)
	if dt <= 0 {
		return d.penalty
	}
	halfLives := float64(dt) / float64(cfg.HalfLife)
	return d.penalty * math.Pow(0.5, halfLives)
}

// damping is the per-router damping engine.
type damping struct {
	cfg    DampingConfig
	router *Router
	state  map[rib.PeerKey]map[netip.Prefix]*dampState
}

func newDamping(cfg DampingConfig, r *Router) *damping {
	return &damping{
		cfg:    cfg.Resolved(),
		router: r,
		state:  make(map[rib.PeerKey]map[netip.Prefix]*dampState),
	}
}

func (d *damping) get(peer rib.PeerKey, prefix netip.Prefix) *dampState {
	m := d.state[peer]
	if m == nil {
		m = make(map[netip.Prefix]*dampState)
		d.state[peer] = m
	}
	s := m[prefix]
	if s == nil {
		s = &dampState{updatedAt: d.router.cfg.Clock.Now()}
		m[prefix] = s
	}
	return s
}

// penalize records a flap and returns the new decayed penalty.
func (d *damping) penalize(peer rib.PeerKey, prefix netip.Prefix, penalty float64) *dampState {
	now := d.router.cfg.Clock.Now()
	s := d.get(peer, prefix)
	p := s.decayedPenalty(&d.cfg, now) + penalty
	if max := d.cfg.maxPenalty(); p > max {
		p = max
	}
	s.penalty = p
	s.updatedAt = now
	return s
}

// onWithdraw records a withdrawal flap. A withdrawal of a suppressed
// route simply clears the stored reinstate candidate.
func (d *damping) onWithdraw(peer rib.PeerKey, prefix netip.Prefix) {
	s := d.penalize(peer, prefix, withdrawPenalty)
	s.latest = nil
}

// onUpdate decides the fate of a newly received route: returned true
// means "install normally"; false means the route is suppressed (held
// back from the decision process).
func (d *damping) onUpdate(peer rib.PeerKey, prefix netip.Prefix, rt *rib.Route, changed bool) bool {
	now := d.router.cfg.Clock.Now()
	s := d.get(peer, prefix)
	if changed {
		s = d.penalize(peer, prefix, updatePenalty)
	}
	p := s.decayedPenalty(&d.cfg, now)
	if s.suppressed || p >= suppressThreshold {
		d.suppress(peer, prefix, s, rt, p)
		return false
	}
	return true
}

// suppress holds rt back and schedules reuse once the penalty decays.
func (d *damping) suppress(peer rib.PeerKey, prefix netip.Prefix, s *dampState, rt *rib.Route, penalty float64) {
	s.suppressed = true
	s.latest = rt
	// Time until penalty decays to the reuse threshold.
	ratio := penalty / reuseThreshold
	if ratio < 1 {
		ratio = 1
	}
	wait := time.Duration(float64(d.cfg.HalfLife) * math.Log2(ratio))
	if wait > maxSuppress {
		wait = maxSuppress
	}
	if wait < time.Second {
		wait = time.Second
	}
	// The reuse callback is identical for the lifetime of a dampState
	// (it closes over the fixed peer/prefix/s triple), so repeated
	// suppressions re-key the existing timer in place.
	if s.reuseTimer != nil {
		s.reuseTimer.Reset(wait)
		return
	}
	s.reuseTimer = d.router.cfg.Clock.AfterFunc(wait, func() {
		d.reuse(peer, prefix, s)
	})
}

// reuse reinstates the held-back route after decay.
func (d *damping) reuse(peer rib.PeerKey, prefix netip.Prefix, s *dampState) {
	if !s.suppressed {
		return
	}
	s.suppressed = false
	if s.latest == nil {
		return // withdrawn while suppressed: nothing to reinstate
	}
	rt := s.latest
	s.latest = nil
	change := d.router.table.SetAdjIn(rt)
	d.router.onChange(change)
}

// Suppressed reports whether the (peer, prefix) route is currently
// damped (monitoring/test hook).
func (r *Router) Suppressed(peer rib.PeerKey, prefix netip.Prefix) bool {
	if r.damping == nil {
		return false
	}
	if m := r.damping.state[peer]; m != nil {
		if s := m[prefix]; s != nil {
			return s.suppressed
		}
	}
	return false
}

// DampingPenalty returns the current decayed penalty for the
// (peer, prefix) pair, or 0 when damping is off.
func (r *Router) DampingPenalty(peer rib.PeerKey, prefix netip.Prefix) float64 {
	if r.damping == nil {
		return 0
	}
	if m := r.damping.state[peer]; m != nil {
		if s := m[prefix]; s != nil {
			return s.decayedPenalty(&r.damping.cfg, r.cfg.Clock.Now())
		}
	}
	return 0
}
