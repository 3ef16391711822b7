package lab

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"sync"
)

// The warm-up snapshot key: the canonical trial (canonical.go) with
// everything after the fork point blanked, plus the few inputs the
// sweep derives per run instead of serializing. Two trials with equal
// WarmupKey() bytes reach byte-identical converged state, so they may
// share one cached snapshot; blanking the measurement schedule, drain
// and flap shape is what lets different measurements reuse the same
// warm-up. Coverage is by construction: a new canonical field splits
// warm-ups until someone blanks it here with a reason.

// warmupKeyVersion bumps when warm-up semantics change in a way the
// key fields cannot express (every cached snapshot is then stale). It
// is independent of experiment.SnapshotVersion, which versions the
// snapshot *encoding*; this versions what the warm-up *means*.
// Version 2: the key became a projection of the canonical trial.
const warmupKeyVersion = 2

// warmupKey is the canonical warm-up prefix of a trial. Field order is
// the encoding order; renaming or reordering is a deliberate cache
// invalidation.
type warmupKey struct {
	Version  int            `json:"version"`
	Trial    canonicalTrial `json:"trial"`
	TopoSeed int64          `json:"topo_seed"`
	// The resolved schedule's opening event decides whether the origin
	// prefix stays unannounced (the fresh-announcement measurement),
	// and a trial-origin failover adds the dual-homed stub to the
	// graph. Both change the warmed-up state, so the raw ingredients
	// participate instead of the whole (post-fork) schedule.
	FirstKind       string `json:"first_kind"`
	FirstAS         uint32 `json:"first_as"`
	DualHomedOrigin bool   `json:"dual_homed_origin"`
	// Seed participates only when the warm-up consumes seeded draws
	// (MRAI jitter or link loss); otherwise the warm-up is
	// byte-identical for every seed and one snapshot serves all of
	// them — the restore re-derives the run's streams from its own
	// seed (the fork).
	SeedShared bool  `json:"seed_shared"`
	Seed       int64 `json:"seed"`
}

// WarmupKey returns the trial's canonical warm-up prefix encoding: a
// stable byte serialization of every field that shapes the warmed-up
// converged state (and nothing after the fork point). Equal bytes mean
// the trials can share one warm-up snapshot.
func (t Trial) WarmupKey() ([]byte, error) {
	w, _, err := t.withDefaults().workload()
	if err != nil {
		return nil, err
	}
	c := t.canonical()
	// Everything after the fork point is blanked, so different
	// measurements share one warm-up.
	c.Event = ""       // the schedule is post-fork; its opening event is keyed below
	c.Workload = nil   // likewise
	c.DrainNS = 0      // post-measurement settle window
	c.FlapCycles = 0   // flap storm shape; the sugar always opens with the same withdrawal
	c.FlapPeriodNS = 0 // flap storm shape
	k := warmupKey{
		Version:         warmupKeyVersion,
		Trial:           c,
		TopoSeed:        t.TopoSeed,
		FirstKind:       w[0].Kind.String(),
		FirstAS:         uint32(w[0].AS),
		DualHomedOrigin: w.needsDualHomedOrigin(),
		SeedShared:      !c.MRAIJitter && c.LinkLoss == 0,
	}
	if !k.SeedShared {
		k.Seed = t.Seed
	}
	return json.Marshal(k)
}

// WarmupKeyHash returns the hex SHA-256 of WarmupKey() — the address a
// SnapshotCache files the trial's warm-up snapshot under.
func (t Trial) WarmupKeyHash() (string, error) {
	b, err := t.WarmupKey()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// SnapshotCache stores encoded warm-up snapshots by warm-up key. Like
// Sweep.Cache it cannot change results — a restored warm-up is
// byte-identical to a fresh one — so it does not participate in
// Canonical(). Implementations must be safe for concurrent use
// (Sweep.Run calls them from worker goroutines).
type SnapshotCache interface {
	// Load returns the snapshot bytes filed under key, and whether
	// they exist. An error means the cache itself failed.
	Load(key string) ([]byte, bool, error)
	// Store files the snapshot bytes under key.
	Store(key string, snap []byte) error
}

// MemorySnapshotCache is the in-process SnapshotCache: one sweep's
// warm-ups shared across its cells and runs (the artifact store
// provides the durable, cross-invocation implementation).
type MemorySnapshotCache struct {
	mu    sync.Mutex
	snaps map[string][]byte
	hits  int
}

// NewMemorySnapshotCache returns an empty in-process snapshot cache.
func NewMemorySnapshotCache() *MemorySnapshotCache {
	return &MemorySnapshotCache{snaps: make(map[string][]byte)}
}

// Load returns the snapshot filed under key.
func (c *MemorySnapshotCache) Load(key string) ([]byte, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	b, ok := c.snaps[key]
	if ok {
		c.hits++
	}
	return b, ok, nil
}

// Store files snap under key.
func (c *MemorySnapshotCache) Store(key string, snap []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.snaps[key] = snap
	return nil
}

// Hits reports how many Loads found their key; Len how many distinct
// warm-ups are cached.
func (c *MemorySnapshotCache) Hits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits
}

// Len reports the number of cached warm-up snapshots.
func (c *MemorySnapshotCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.snaps)
}
