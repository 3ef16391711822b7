package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"repro/internal/benchfmt"
	"repro/internal/stats"
)

// A set is every workload run several times untraced and once traced
// on one commit and one host: the unit -compare takes two of.

// set is the -out document.
type set struct {
	Host      benchfmt.Report `json:"host"`
	Seed      int64           `json:"seed"`
	Seconds   int             `json:"seconds"`
	Workloads []setWorkload   `json:"workloads"`
}

// setWorkload is one workload's runs: Runs[i] is untraced under seed
// Seed+i, Trace is the traced pass under Seed.
type setWorkload struct {
	Name  string   `json:"name"`
	Runs  []report `json:"runs"`
	Trace report   `json:"trace"`
}

// runSet runs every workload in child processes of this binary, one
// after another and never two at once, so each run has the machine,
// a fresh heap and its own peak RSS.
func runSet(path string, seed int64, seconds, runs int, out io.Writer) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	doc := set{Host: hostStamp(), Seed: seed, Seconds: seconds}
	for _, sp := range workloads(full) {
		sw := setWorkload{Name: sp.name}
		for r := 0; r < runs; r++ {
			rep, err := child(exe, sp.name, seed+int64(r), seconds, false, "")
			if err != nil {
				return err
			}
			sw.Runs = append(sw.Runs, *rep)
			fmt.Fprintf(out, "%-18s seed %-4d op_wall_ms_p50 %10.3f ms (n=%d)  failed %d/%d\n",
				sp.name, rep.Seed, rep.Metrics["op_wall_ms_p50"].Value, rep.Samples, rep.Failed, rep.Attempted)
		}
		spans := strings.TrimSuffix(path, ".json") + "." + sp.name + ".spans.jsonl"
		rep, err := child(exe, sp.name, seed, seconds, true, spans)
		if err != nil {
			return err
		}
		sw.Trace = *rep
		fmt.Fprintf(out, "%-18s traced   overhead %.2f%%  attributed %.1f%%  failed %d/%d  spans in %s\n", sp.name,
			rep.Metrics["lab.trace_overhead_pct"].Value, rep.Metrics["lab.attributed_pct"].Value, rep.Failed, rep.Attempted, spans)
		doc.Workloads = append(doc.Workloads, sw)
	}
	fmt.Fprintf(out, "\nmedian [q1, q3] over %d runs\n", runs)
	for _, sw := range doc.Workloads {
		for _, d := range endToEnd {
			xs := values(sw.Runs, d.name)
			q1, q3 := quartiles(xs)
			fmt.Fprintf(out, "%-18s %-16s %14.4f [%.4f, %.4f] %s\n", sw.Name, d.name, stats.Median(xs), q1, q3, d.unit)
		}
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// child runs one workload once in a child process and returns the
// report from its detail line.
func child(exe, workload string, seed int64, seconds int, trace bool, spans string) (*report, error) {
	args := []string{"-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-trace", "0"}
	if trace {
		args[len(args)-1] = "1"
		args = append(args, "-spans", spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if detail, ok := strings.CutPrefix(sc.Text(), detailPrefix); ok {
			var rep report
			if err := json.Unmarshal([]byte(detail), &rep); err != nil {
				return nil, err
			}
			return &rep, nil
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("%s seed %d: no detail line in the child's output", workload, seed)
}

// values lists one metric over runs.
func values(runs []report, name string) []float64 {
	xs := make([]float64, len(runs))
	for i, r := range runs {
		xs[i] = r.Metrics[name].Value
	}
	return xs
}

// compareFiles reads two sets and compares them.
func compareFiles(a, b string, out io.Writer) (bool, error) {
	var sa, sb set
	for _, f := range []struct {
		path string
		into *set
	}{{a, &sa}, {b, &sb}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(data, f.into); err != nil {
			return false, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	return compareSets(sa, sb, out), nil
}

// compareSets judges b against baseline a. Per workload and
// end-to-end metric: b's median may be worse than a's by at most the
// declared bound; where either set's own quartile spread exceeds the
// bound the pair is unresolved rather than unchanged. Count metrics
// and digests of runs under the same seed must be identical, and no
// op may fail. It reports whether nothing is in breach.
func compareSets(a, b set, out io.Writer) bool {
	ok := true
	breach := func(format string, args ...any) {
		ok = false
		fmt.Fprintf(out, "BREACH  "+format+"\n", args...)
	}
	byName := map[string]setWorkload{}
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, found := byName[wa.Name]
		if !found {
			breach("%s: missing from the second set", wa.Name)
			continue
		}
		for _, d := range endToEnd {
			xa, xb := values(wa.Runs, d.name), values(wb.Runs, d.name)
			if len(xa) == 0 || len(xb) == 0 {
				breach("%s %s: no runs to compare", wa.Name, d.name)
				continue
			}
			ma, mb := stats.Median(xa), stats.Median(xb)
			if ma == 0 {
				breach("%s %s: baseline median is 0", wa.Name, d.name)
				continue
			}
			worse := (mb - ma) / ma
			if d.better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > d.bound:
				verdict = "BREACH"
				ok = false
			case max(spread(xa), spread(xb)) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(out, "%-10s %-18s %-16s %14.4f -> %14.4f %-5s %+7.2f%% (bound %.0f%%, spread %.1f%% / %.1f%%)\n",
				verdict, wa.Name, d.name, ma, mb, d.unit, 100*(mb-ma)/ma, 100*d.bound, 100*spread(xa), 100*spread(xb))
		}
		for _, ra := range append(append([]report(nil), wa.Runs...), wa.Trace) {
			for _, rb := range append(append([]report(nil), wb.Runs...), wb.Trace) {
				if ra.Seed != rb.Seed || ra.Trace != rb.Trace {
					continue
				}
				if ra.Digest != rb.Digest {
					breach("%s seed %d trace=%v: sim_digest %.12s vs %.12s", wa.Name, ra.Seed, ra.Trace, ra.Digest, rb.Digest)
				}
				if rb.Failed > 0 || !rb.Correct {
					breach("%s seed %d trace=%v: %d of %d ops failed: %v", wa.Name, rb.Seed, rb.Trace, rb.Failed, rb.Attempted, rb.Errors)
				}
			}
		}
		if wa.Trace.Seed == wb.Trace.Seed {
			same := 0
			for _, d := range perLayer {
				if d.kind != "count" {
					continue
				}
				va, vb := wa.Trace.Metrics[d.name].Value, wb.Trace.Metrics[d.name].Value
				if va != vb {
					breach("%s count %s: %v vs %v", wa.Name, d.name, va, vb)
				} else {
					same++
				}
			}
			fmt.Fprintf(out, "%-10s %-18s %d count metrics and the digests of %d runs identical\n", "exact", wa.Name, same, len(wa.Runs)+1)
		}
	}
	return ok
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / stats.Median(xs)
}
