package scenario

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func run(t *testing.T, script string) (string, error) {
	t.Helper()
	s, err := Parse(strings.NewReader(script))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	r := NewRunner(&out)
	err = r.Run(s)
	return out.String(), err
}

const header = `
topology line 3
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
`

func TestBasicScenario(t *testing.T) {
	out, err := run(t, header+`
announce all
wait-converged 30m
probe 1 3
print loss
print summary
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"started: 3 ASes (0 SDN), 2 links",
		"all sessions established", "converged", "AS1 -> AS3", "loss=0.0%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMeasureWithdraw(t *testing.T) {
	out, err := run(t, header+`
announce all
wait-converged 30m
measure withdraw 1 1h
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "measure withdraw: convergence") {
		t.Fatalf("output = %s", out)
	}
}

func TestHybridScenario(t *testing.T) {
	out, err := run(t, `
topology line 4
sdn last 2
seed 3
mrai 2s
no-mrai-jitter
debounce 200ms
start
wait-established 2m
announce all
wait-converged 30m
print timeline 1
print paths 1
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "started: 4 ASes (2 SDN), 3 links") {
		t.Fatalf("output = %s", out)
	}
	if !strings.Contains(out, "digraph") {
		t.Fatal("paths DOT missing")
	}
}

func TestLinkCommands(t *testing.T) {
	_, err := run(t, `
topology ring 4
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
fail-link 1 2
wait-converged 30m
restore-link 1 2
wait-converged 30m
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestExplicitSDNMembersAndPolicies(t *testing.T) {
	_, err := run(t, `
topology star 4
sdn 2 3
policy gao-rexford
seed 1
mrai 2s
no-mrai-jitter
processing-delay 5ms
link-delay 2ms
hold-time 60s
debounce 100ms
start
wait-established 2m
announce all
wait-converged 30m
run-for 10s
`)
	if err != nil {
		t.Fatal(err)
	}
}

// TestPrefixFilterPolicyDirective covers the shared-parser policy
// directive end to end: the prefix-filter template resolves its
// customer cones against the scripted topology at start.
func TestPrefixFilterPolicyDirective(t *testing.T) {
	out, err := run(t, `
seed 5
topology internet 12
policy prefix-filter
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "started: 12 ASes") {
		t.Fatalf("output = %q", out)
	}
}

func TestInternetTopology(t *testing.T) {
	_, err := run(t, `
seed 5
topology internet 12
policy gao-rexford
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("")); err == nil {
		t.Fatal("empty script should fail")
	}
	if _, err := Parse(strings.NewReader("# only comments\n\n")); err == nil {
		t.Fatal("comment-only script should fail")
	}
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name   string
		script string
	}{
		{"unknown directive", "bogus 1\n"},
		{"start without topology", "start\n"},
		{"sdn before topology", "sdn last 2\n"},
		{"bad topology kind", "topology mobius 4\n"},
		{"bad topology size", "topology clique x\n"},
		{"bad policy", "topology line 2\npolicy anarchy\n"},
		{"bad collector", "topology line 2\ncollector on\n"},
		{"sdn bad asn", "topology line 2\nsdn x\n"},
		{"sdn last out of range", "topology line 2\nsdn last 5\n"},
		{"lifecycle before start", "topology line 2\nannounce 1\n"},
		{"unknown command after start", header + "dance\n"},
		{"bad measure trigger", header + "measure explode 1\n"},
		{"measure fail-link with one AS", header + "measure fail-link 1\n"},
		{"bad print", header + "print everything\n"},
		{"withdraw before announce", header + "withdraw 1\n"},
		{"probe unknown", header + "probe 1 9\n"},
		{"bad duration", header + "run-for xyz\n"},
		{"fail unknown link", header + "fail-link 1 3\n"},
		{"loss NaN", "topology line 2\nloss NaN\n"},
		{"mrai surplus argument", "topology line 2\nmrai 5s 10s\n"},
		{"zero mrai", "topology line 2\nmrai 0s\n"},
		// An OPEN cannot carry these: every session would fail to open.
		{"hold time under 3s", "topology line 2\nhold-time 2s\n"},
		{"hold time over 65535s", "topology line 2\nhold-time 18h13m\n"},
		{"sdn surplus field", "topology line 3\nsdn last 2 junk\n"},
		{"seed surplus argument", "seed 1 2\n"},
		{"negative settle", "topology line 2\nsettle -1s\nstart\n"},
		{"settle", "topology line 2\nmrai 5s\nsettle 10s\nstart\n"},
		{"negative run-for", header + "run-for -5s\n"},
		{"wait-converged surplus argument", header + "wait-converged 1m 2m\n"},
	}
	// A script written for a directive that no longer exists must fail
	// on its line, not run without it.
	exact := map[string]string{
		"bad collector": "scenario: line 2 (collector): unknown or out-of-order directive",
		// The quiescence window follows the MRAI (monitor.Window).
		"settle": "scenario: line 3 (settle): unknown or out-of-order directive",
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := run(t, c.script)
			if err == nil {
				t.Fatalf("script should fail:\n%s", c.script)
			}
			if want, ok := exact[c.name]; ok && err.Error() != want {
				t.Fatalf("error %q, want %q", err, want)
			}
		})
	}
}

// TestDebounceDirective pins the DSL's debounce values to the CLI's
// -debounce: an explicit 0 disables the delay, as a negative value
// does, instead of running the controller default.
func TestDebounceDirective(t *testing.T) {
	for _, c := range []struct {
		arg  string
		want time.Duration
	}{
		{"0", -1},
		{"0s", -1},
		{"-1s", -time.Second},
		{"250ms", 250 * time.Millisecond},
	} {
		s, err := Parse(strings.NewReader("debounce " + c.arg + "\n"))
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(io.Discard)
		if err := r.Run(s); err != nil {
			t.Fatal(err)
		}
		if r.trial.Debounce != c.want {
			t.Errorf("debounce %s: Trial.Debounce = %v, want %v", c.arg, r.trial.Debounce, c.want)
		}
	}
}

func TestCommentsAndWhitespace(t *testing.T) {
	_, err := run(t, `
# a comment
topology line 2   # trailing comment

seed 9
mrai 2s
no-mrai-jitter
start
wait-established 2m
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrintRIB(t *testing.T) {
	out, err := run(t, header+`
announce all
wait-converged 30m
print rib 1
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"AS1 RIB", "10.0.1.0/24", "local", "path=[2 3]"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rib output missing %q:\n%s", want, out)
		}
	}
	// Cluster members have no router RIB.
	if _, err := run(t, `
topology line 3
sdn 2
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
print rib 2
`); err == nil {
		t.Fatal("print rib for a cluster member should error")
	}
}

func TestShippedScenarioFiles(t *testing.T) {
	// Every script under examples/scenarios must stay runnable and
	// print exactly its golden, testdata/<name>.out; a script without
	// a golden and a golden without a script both fail.
	// path-exploration.lab ends in `print timeline`: its golden,
	// generated at the last commit whose event log kept every path
	// unasked, is the byte pin on the runner asking for them.
	scripts, err := filepath.Glob("../../examples/scenarios/*.lab")
	if err != nil {
		t.Fatal(err)
	}
	goldens, err := filepath.Glob("testdata/*.out")
	if err != nil {
		t.Fatal(err)
	}
	unmatched := map[string]bool{}
	for _, g := range goldens {
		unmatched[strings.TrimSuffix(filepath.Base(g), ".out")] = true
	}
	for _, path := range scripts {
		name := filepath.Base(path)
		delete(unmatched, strings.TrimSuffix(name, ".lab"))
		t.Run(name, func(t *testing.T) {
			if testing.Short() && name == "fig2-point.lab" {
				t.Skip("full Figure 2 point is slow")
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			s, err := Parse(f)
			if err != nil {
				t.Fatal(err)
			}
			var out strings.Builder
			if err := NewRunner(&out).Run(s); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile("testdata/" + strings.TrimSuffix(name, ".lab") + ".out")
			if err != nil {
				t.Fatal(err)
			}
			if out.String() != string(want) {
				t.Errorf("output drifted:\n got:\n%s\nwant:\n%s", out.String(), want)
			}
		})
	}
	for name := range unmatched {
		t.Errorf("testdata/%s.out has no script examples/scenarios/%s.lab", name, name)
	}
}

// TestWorkloadCommands drives the scheduled-workload directives: "at"
// clauses accumulate through the shared lab parser and "run-workload"
// executes them with one report line per epoch.
func TestWorkloadCommands(t *testing.T) {
	out, err := run(t, `
topology ring 5
sdn last 1
seed 3
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
at 0s withdraw 1
at 1m migrate 2
at 2m announce 1
run-workload 1 1h
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"epoch 0 @0s withdraw: convergence ",
		"epoch 1 @1m0s migrate: convergence ",
		"epoch 2 @2m0s announce: convergence ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMigrateCommand toggles an AS across the legacy/SDN boundary
// through the direct lifecycle command.
func TestMigrateCommand(t *testing.T) {
	out, err := run(t, `
topology line 4
sdn last 1
seed 3
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
migrate 2
wait-converged 30m
migrate 2
wait-converged 30m
`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "migrated AS2 into the SDN cluster") {
		t.Fatalf("missing migrate-in banner:\n%s", out)
	}
	if !strings.Contains(out, "migrated AS2 back to legacy BGP") {
		t.Fatalf("missing migrate-out banner:\n%s", out)
	}
}

func TestWorkloadCommandErrors(t *testing.T) {
	for name, script := range map[string]string{
		"run-workload without at":     header + "run-workload 1\n",
		"at with bad offset":          header + "at x withdraw 1\n",
		"at with unknown verb":        header + "at 0s explode\n",
		"run-workload missing origin": header + "at 0s withdraw 1\nrun-workload\n",
		"run-workload bad timeout":    header + "at 0s withdraw 1\nrun-workload 1 soon\n",
		"at before start":             "topology line 3\nat 0s withdraw 1\n",
		"migrate unknown as":          header + "migrate 9\n",
	} {
		if _, err := run(t, script); err == nil {
			t.Fatalf("%s: script should fail", name)
		}
	}
}

func TestPrintStats(t *testing.T) {
	out, err := run(t, `
topology line 3
sdn 3
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
print stats
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"network: delivered=", "bgp: updates sent=", "controller: recomputes="} {
		if !strings.Contains(out, want) {
			t.Fatalf("stats output missing %q:\n%s", want, out)
		}
	}
}

func TestDampingDirective(t *testing.T) {
	if _, err := run(t, `
topology line 3
damping on
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
`); err != nil {
		t.Fatal(err)
	}
	if _, err := run(t, "topology line 2\ndamping maybe\n"); err == nil {
		t.Fatal("bad damping arg should error")
	}
}

// TestSharedTopologyParser pins that the scenario DSL rides the shared
// lab.TopoSpec parser: every documented spec string — including the
// er/ba generators and multi-argument forms like "grid 4 4" — builds
// and starts, and placement strategies beyond "last" work.
func TestSharedTopologyParser(t *testing.T) {
	for _, topo := range []string{
		"clique 4", "line 4", "ring 4", "star 4", "tree 5 2",
		"grid 2 2", "internet 8", "er 6 0.8", "ba 6 2",
	} {
		out, err := run(t, "seed 5\ntopology "+topo+"\nstart\n")
		if err != nil {
			t.Fatalf("topology %q: %v", topo, err)
		}
		if !strings.Contains(out, "started:") {
			t.Fatalf("topology %q: no start banner:\n%s", topo, out)
		}
	}
}

func TestPlacementStrategies(t *testing.T) {
	for _, sdn := range []string{"first 2", "degree 2", "last 2", "none", "2 3"} {
		if _, err := run(t, "topology ring 4\nsdn "+sdn+"\nstart\n"); err != nil {
			t.Fatalf("sdn %q: %v", sdn, err)
		}
	}
	if _, err := run(t, "topology ring 4\nsdn degree\nstart\n"); err == nil {
		t.Fatal("strategy without K should error")
	}
}

// TestChaosDirectives pins the fault-injection surface of the DSL: the
// loss configuration knob and the immediate fault verbs
// (controller crash/recovery, session reset, partition/heal), plus the
// fault event kinds in "at" schedules.
func TestChaosDirectives(t *testing.T) {
	out, err := run(t, `
topology clique 4
sdn last 2
seed 1
mrai 2s
no-mrai-jitter
loss 0.01
start
wait-established 2m
announce all
wait-converged 30m
session-reset 1 2
wait-converged 30m
ctrl-down
wait-converged 30m
ctrl-up
wait-converged 30m
partition
wait-converged 30m
heal
wait-converged 30m
probe 1 4
print loss
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"controller down: members fell back to legacy BGP",
		"controller up: members re-joined the cluster",
		"partitioned:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if _, err := run(t, "topology line 2\nloss 1.5\n"); err == nil {
		t.Fatal("out-of-range loss should error")
	}
	if _, err := run(t, "topology line 2\nloss\n"); err == nil {
		t.Fatal("missing loss argument should error")
	}
	if _, err := run(t, "topology line 2\njitter 2ms\n"); err == nil {
		t.Fatal("the jitter directive is gone and should error")
	}
}

// TestScheduledFaultEvents pins that the fault kinds flow through the
// shared workload parser in "at" directives.
func TestScheduledFaultEvents(t *testing.T) {
	out, err := run(t, `
topology clique 4
sdn last 2
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
at 0s ctrl-down
at 10s withdraw 1
at 10m ctrl-up
run-workload 1 1h
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"epoch 0 @0s ctrl-down", "epoch 1 @10s withdraw", "epoch 2 @10m0s ctrl-up"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMeasureAnyEvent pins that measure takes every workload verb, with
// or without a timeout, and that an event's banner prints before the
// convergence it caused.
func TestMeasureAnyEvent(t *testing.T) {
	out, err := run(t, `
topology clique 4
sdn last 2
seed 1
mrai 2s
no-mrai-jitter
start
wait-established 2m
announce all
wait-converged 30m
measure session-reset 1 2 30m
measure ctrl-down
measure ctrl-up 30m
measure migrate 1 30m
measure hijack 3
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"measure session-reset: convergence ",
		"controller down: members fell back to legacy BGP\nmeasure ctrl-down: convergence ",
		"measure ctrl-up: convergence ",
		"migrated AS1 into the SDN cluster\nmeasure migrate: convergence ",
		"measure hijack: convergence ",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}
