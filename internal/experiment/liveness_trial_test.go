package experiment_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/experiment"
	"repro/internal/lab"
)

// TestQuietLivenessTrials holds whole trials to the modelled
// KEEPALIVEs: random lossless trials of up to 32 ASes — permit-all and
// gao-rexford, with and without a cluster and a processing delay, on
// workloads of
// withdrawals, announcements, session resets, link failures,
// migrations, controller crashes and partitions — must produce the
// same lab.Result JSON, or the same error, with their sessions quiet
// and with every KEEPALIVE a frame, both when run whole and when
// measured from a restored warm-up snapshot.
func TestQuietLivenessTrials(t *testing.T) {
	trials := int64(24)
	if testing.Short() || experiment.Racing() {
		trials = 4
	}
	for seed := int64(1); seed <= trials; seed++ {
		tr, err := randomTrial(seed)
		if err != nil {
			t.Fatal(err)
		}
		quiet, modelled := playTrial(tr, false), playTrial(tr, true)
		if quiet != modelled {
			t.Fatalf("seed %d, %+v:\nquiet:    %s\nmodelled: %s", seed, tr, quiet, modelled)
		}
	}
}

// playTrial runs tr whole and from its own warm-up snapshot and renders
// both outcomes.
func playTrial(tr lab.Trial, modelled bool) string {
	experiment.ModelKeepalives(modelled)
	defer experiment.ModelKeepalives(false)
	render := func(res lab.Result, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		out, err := json.Marshal(res)
		if err != nil {
			return "error: " + err.Error()
		}
		return string(out)
	}
	whole := render(tr.Run())
	raw, err := tr.WarmupSnapshot()
	if err != nil {
		return whole + "\nsnapshot error: " + err.Error()
	}
	return whole + "\n" + render(tr.RunFromSnapshot(raw))
}

// randomTrial draws one lossless trial and a workload over its graph.
func randomTrial(seed int64) (lab.Trial, error) {
	rng := rand.New(rand.NewSource(seed))
	holds := []time.Duration{9 * time.Second, 30 * time.Second, 90 * time.Second}
	tr := lab.Trial{
		Topo:      lab.TopoSpec{Kind: "internet", N: 8 + rng.Intn(25)},
		Placement: lab.Placement{Strategy: lab.PlaceLast, K: rng.Intn(3)},
		Timers: bgp.Timers{
			HoldTime:   holds[rng.Intn(len(holds))],
			MRAI:       time.Duration(1+rng.Intn(5)) * time.Second,
			MRAIJitter: rng.Intn(2) == 0,
		},
		LinkDelay: []time.Duration{0, 5 * time.Millisecond, 100 * time.Millisecond}[rng.Intn(3)],
		Debounce:  100 * time.Millisecond,
		Seed:      seed,
		TopoSeed:  seed,
	}
	if rng.Intn(2) == 0 {
		tr.Policy = lab.PolicySpec{Kind: "gao-rexford"}
	}
	// Routers that queue their work, as TestQuietLivenessModel's.
	if tr.Timers.HoldTime >= 30*time.Second && rng.Intn(2) == 0 {
		tr.ProcessingDelay = 25 * time.Millisecond
	}
	g, err := tr.Topo.Build(rand.New(rand.NewSource(tr.TopoSeed)))
	if err != nil {
		return tr, err
	}
	// Each event is one the state the earlier ones left admits.
	edges := g.Edges()
	var events []string
	at := time.Duration(0)
	withdrawn, partitioned, crashed := false, false, false
	down := map[int]bool{}
	for range 2 + rng.Intn(4) {
		i := rng.Intn(len(edges))
		link := fmt.Sprintf("%d %d", uint32(edges[i].A), uint32(edges[i].B))
		var verb string
		switch kind := rng.Intn(6); {
		case kind == 0 && withdrawn:
			verb, withdrawn = "announce", false
		case kind == 0:
			verb, withdrawn = "withdraw", true
		case kind == 1 && !partitioned && !down[i]:
			verb = "session-reset " + link
		case kind == 1 || kind == 2:
			verb = map[bool]string{false: "linkdown ", true: "linkup "}[down[i]] + link
			down[i] = !down[i]
		case kind == 3:
			verb = map[bool]string{false: "partition", true: "heal"}[partitioned]
			partitioned = !partitioned
		case kind == 4 && tr.Placement.K > 0 && !crashed:
			verb = fmt.Sprintf("migrate %d", uint32(edges[i].A))
		case tr.Placement.K > 0:
			verb = map[bool]string{false: "ctrl-down", true: "ctrl-up"}[crashed]
			crashed = !crashed
		default:
			verb = "session-reset " + link
			if partitioned || down[i] {
				verb = "linkup " + link
				down[i] = false
			}
		}
		events = append(events, fmt.Sprintf("at %v %s", at, verb))
		at += time.Duration(rng.Int63n(int64(3 * time.Minute)))
	}
	tr.Workload, err = lab.ParseWorkload(strings.Join(events, "; "))
	return tr, err
}
