// Command labctl is the thin client for the labd daemon: it submits
// sweeps (canonical spec files or registry presets with the same
// override flags as `convergence`), watches their telemetry streams
// and fetches their results. Result bytes go to stdout and are
// byte-identical to the same spec run via `convergence -out`;
// everything else goes to stderr, so labctl pipes cleanly.
//
// Usage:
//
//	labctl [-addr host:port] <command> [args]
//
//	labctl presets                             # the experiment registry
//	labctl submit -exp fig2                    # submit a preset
//	labctl submit -exp fig2 -mrai 5s -runs 3   # with the override flags
//	                                           # convergence takes
//	                                           # (figures.Overrides.Bind)
//	labctl submit -spec sweep.json             # submit canonical spec bytes
//	labctl submit -exp fig2 -client alice      # tenant for fair queueing
//	labctl submit -exp fig2 -wait -format csv  # block until done, then
//	                                           # write the result to stdout
//	labctl jobs                                # all jobs, submission order
//	labctl job 3fa9c1d2                        # one job (hash prefix ok)
//	labctl result 3fa9c1d2 -format markdown    # fetch a done job's result
//	labctl watch 3fa9c1d2                      # follow the SSE event log
//	labctl status                              # daemon status
//
// The default daemon address is http://127.0.0.1:8080; -addr accepts
// host:port or a full http:// URL.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"repro/internal/labd"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "labd address (host:port or http:// URL)")
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	base := *addr
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		base = "http://" + base
	}
	base = strings.TrimSuffix(base, "/")
	cmd, args := flag.Arg(0), flag.Args()[1:]
	switch cmd {
	case "presets":
		runPresets(base)
	case "submit":
		runSubmit(base, args)
	case "jobs":
		runJobs(base)
	case "job":
		runJob(base, args)
	case "result":
		runResult(base, args)
	case "watch":
		runWatch(base, args)
	case "status":
		runStatus(base)
	default:
		fatal(fmt.Errorf("unknown command %q (run labctl -h)", cmd))
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `labctl — client for the labd sweep daemon

usage: labctl [-addr host:port] <command> [args]

commands:
  presets                list the experiment registry
  submit [flags]         submit a sweep (-exp preset or -spec file)
  jobs                   list all jobs in submission order
  job <id>               show one job (spec-hash prefix of ≥8 digits)
  result <id> [-format]  fetch a done job's result (table|csv|json|markdown)
  watch <id> [-from n]   follow the job's SSE event log
  status                 daemon status (workers, queues, job states)

run "labctl submit -h" for the submit flag set.
`)
	flag.PrintDefaults()
}

// runSubmit submits a preset or a canonical spec file.
func runSubmit(base string, args []string) {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	client := fs.String("client", "", "tenant name for fair scheduling (default anonymous)")
	name := fs.String("name", "", "sweep name for outputs (default: preset name or spec hash)")
	exp := fs.String("exp", "", "experiment preset to build server-side (see labctl presets)")
	specFile := fs.String("spec", "", "canonical spec file to submit verbatim (- for stdin)")
	var opt labd.PresetOptions
	opt.Bind(fs)
	wait := fs.Bool("wait", false, "follow the job to completion, then write the result to stdout")
	format := fs.String("format", "table", "result format with -wait: table|csv|json|markdown")
	//lint:errcheck ExitOnError flag sets never return an error
	fs.Parse(args)
	if fs.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %q", fs.Args()))
	}

	req := labd.SubmitRequest{Client: *client, Name: *name}
	switch {
	case *exp != "" && *specFile != "":
		fatal(fmt.Errorf("use -exp or -spec, not both"))
	case *exp != "":
		req.Preset = *exp
		req.Options = &opt
	case *specFile != "":
		var data []byte
		var err error
		if *specFile == "-" {
			data, err = io.ReadAll(os.Stdin)
		} else {
			data, err = os.ReadFile(*specFile)
		}
		if err != nil {
			fatal(err)
		}
		req.Spec = data
	default:
		fatal(fmt.Errorf("submit needs -exp <preset> or -spec <file>"))
	}

	body, err := json.Marshal(req)
	if err != nil {
		fatal(err)
	}
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		fatal(err)
	}
	data := readBody(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated {
		fatal(apiError(data, resp.StatusCode))
	}
	var sub labd.SubmitResponse
	if err := json.Unmarshal(data, &sub); err != nil {
		fatal(err)
	}
	verb := "accepted"
	if sub.Coalesced {
		verb = "coalesced onto existing job"
	}
	fmt.Fprintf(os.Stderr, "labctl: %s %.12s (%s, %s)\n", verb, sub.Job.ID, sub.Job.Name, sub.Job.State)
	if !*wait {
		fmt.Println(sub.Job.ID)
		return
	}
	if st := follow(base, sub.Job.ID, 0); st != labd.StateDone {
		fatal(fmt.Errorf("job %.12s finished %s", sub.Job.ID, st))
	}
	out := fetch(base, "/v1/jobs/"+sub.Job.ID+"/result?format="+*format)
	//lint:errcheck a failed stdout write surfaces at process exit
	os.Stdout.Write(out)
}

// runPresets lists the registry.
func runPresets(base string) {
	var v struct {
		Presets []labd.Preset `json:"presets"`
	}
	getJSON(base, "/v1/presets", &v)
	for _, p := range v.Presets {
		fmt.Printf("%-12s %s\n", p.Name, p.Title)
	}
}

// runJobs lists every job.
func runJobs(base string) {
	var v struct {
		Jobs []labd.JobStatus `json:"jobs"`
	}
	getJSON(base, "/v1/jobs", &v)
	for _, j := range v.Jobs {
		fmt.Printf("%.12s  %-11s %3d/%-3d runs  %-12s clients=%s\n",
			j.ID, j.State, j.Completed, j.Total, j.Name, strings.Join(j.Clients, ","))
	}
}

// runJob prints one job's status JSON.
func runJob(base string, args []string) {
	if len(args) != 1 {
		fatal(fmt.Errorf("usage: labctl job <id>"))
	}
	//lint:errcheck a failed stdout write surfaces at process exit
	os.Stdout.Write(fetch(base, "/v1/jobs/"+args[0]))
}

// runResult fetches a done job's encoded result to stdout.
func runResult(base string, args []string) {
	fs := flag.NewFlagSet("result", flag.ExitOnError)
	format := fs.String("format", "table", "output format: table|csv|json|markdown")
	rest, id := splitID(fs, args, "result")
	//lint:errcheck ExitOnError flag sets never return an error
	fs.Parse(rest)
	//lint:errcheck a failed stdout write surfaces at process exit
	os.Stdout.Write(fetch(base, "/v1/jobs/"+id+"/result?format="+*format))
}

// runWatch follows a job's event stream, printing one line per event.
func runWatch(base string, args []string) {
	fs := flag.NewFlagSet("watch", flag.ExitOnError)
	from := fs.Int("from", 0, "replay the log from this sequence number")
	rest, id := splitID(fs, args, "watch")
	//lint:errcheck ExitOnError flag sets never return an error
	fs.Parse(rest)
	st := follow(base, id, *from)
	fmt.Fprintf(os.Stderr, "labctl: job %s is %s\n", id, st)
	if st != labd.StateDone {
		os.Exit(1)
	}
}

// runStatus prints the daemon status JSON.
func runStatus(base string) {
	//lint:errcheck a failed stdout write surfaces at process exit
	os.Stdout.Write(fetch(base, "/v1/status"))
}

// splitID pulls the positional <id> argument off a subcommand's
// argument list, allowing flags before or after it.
func splitID(fs *flag.FlagSet, args []string, cmd string) ([]string, string) {
	var rest []string
	id := ""
	for i := 0; i < len(args); i++ {
		if !strings.HasPrefix(args[i], "-") && id == "" {
			id = args[i]
			continue
		}
		rest = append(rest, args[i])
		// A flag consumes the next token unless written -flag=value.
		if !strings.Contains(args[i], "=") && i+1 < len(args) {
			rest = append(rest, args[i+1])
			i++
		}
	}
	if id == "" {
		fatal(fmt.Errorf("usage: labctl %s <id> [flags]", cmd))
	}
	return rest, id
}

// follow streams a job's SSE events until the stream ends, printing
// one stderr line per event and returning the terminal state.
func follow(base, id string, from int) string {
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s/events?from=%d", base, id, from))
	if err != nil {
		fatal(err)
	}
	//lint:errcheck response body Close cannot lose data the scanner already read
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(apiError(readBody(resp), resp.StatusCode))
	}
	state := ""
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev labd.Event
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev); err != nil {
			fatal(err)
		}
		switch ev.Type {
		case "state":
			state = ev.State
			fmt.Fprintf(os.Stderr, "labctl: job %.12s %s\n", ev.Job, ev.State)
			if ev.Error != "" {
				fmt.Fprintf(os.Stderr, "labctl:   %s\n", ev.Error)
			}
		case "run":
			if ev.Run == nil {
				continue
			}
			src := "ran"
			if ev.Run.Cached {
				src = "cached"
			}
			fmt.Fprintf(os.Stderr, "labctl: %s run %d — %.3fs (%s)\n",
				ev.Run.Label, ev.Run.Run, ev.Run.Result.Convergence.Seconds(), src)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	return state
}

// fetch GETs a path, failing on any non-200.
func fetch(base, path string) []byte {
	resp, err := http.Get(base + path)
	if err != nil {
		fatal(err)
	}
	data := readBody(resp)
	if resp.StatusCode != http.StatusOK {
		fatal(apiError(data, resp.StatusCode))
	}
	return data
}

// getJSON GETs a path and decodes its JSON body.
func getJSON(base, path string, v any) {
	if err := json.Unmarshal(fetch(base, path), v); err != nil {
		fatal(err)
	}
}

// readBody drains and closes a response body.
func readBody(resp *http.Response) []byte {
	//lint:errcheck response body Close cannot lose data ReadAll already drained
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatal(err)
	}
	return data
}

// apiError turns an error response body into an error.
func apiError(data []byte, code int) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("labd (%d): %s", code, e.Error)
	}
	return fmt.Errorf("labd returned %d: %s", code, bytes.TrimSpace(data))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "labctl:", err)
	os.Exit(1)
}
