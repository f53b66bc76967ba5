// Command dlion-ctl is the control-plane client: it submits, lists,
// inspects, and halts training jobs against a dlion-controller's REST API.
//
// Usage:
//
//	dlion-ctl [-api http://127.0.0.1:8081] <command> [args]
//
//	submit  -system <preset> -workers N -max-iters N [...]  submit a job
//	list                                                    all jobs
//	get     <job-id>                                        one job record
//	metrics <job-id>                                        folded obs + accuracy
//	halt    <job-id>                                        stop a job
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"strings"

	"dlion/cmd/internal/cli"
	"dlion/internal/jobs"
)

func main() { cli.Main("dlion-ctl", run) }

func run(_ context.Context, args []string, stdout, stderr io.Writer) error {
	fs := cli.Flags("dlion-ctl", stderr)
	api := fs.String("api", "http://127.0.0.1:8081", "controller API base URL")
	fs.Usage = func() { usage(fs) }
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		usage(fs)
		return cli.ErrUsage
	}
	jobsURL := strings.TrimRight(*api, "/") + "/v1/jobs"
	cmd, args := fs.Arg(0), fs.Args()[1:]
	switch cmd {
	case "submit":
		return cmdSubmit(stdout, stderr, jobsURL, args)
	case "list":
		return call(stdout, http.MethodGet, jobsURL, nil)
	case "get", "metrics", "halt":
		if len(args) != 1 {
			return fmt.Errorf("need exactly one job id")
		}
		method, url := http.MethodGet, jobsURL+"/"+args[0]
		switch cmd {
		case "metrics":
			url += "/metrics"
		case "halt":
			method = http.MethodDelete
		}
		return call(stdout, method, url, nil)
	}
	fmt.Fprintf(stderr, "dlion-ctl: unknown command %q\n", cmd)
	usage(fs)
	return cli.ErrUsage
}

// usage prints the command lines, then fs's flags with their defaults.
func usage(fs *flag.FlagSet) {
	out := fs.Output()
	fmt.Fprintln(out, "usage: dlion-ctl [-api URL] {submit|list|get|metrics|halt} [args]")
	fmt.Fprintln(out, "  submit -system <preset> -workers N -max-iters N [-quant M] [-tenant T] [-slots N] [-scale F] [-seed N] [-lbs N] [-name S]")
	fmt.Fprintln(out, "  get|metrics|halt <job-id>")
	fs.PrintDefaults()
}

func cmdSubmit(stdout, stderr io.Writer, jobsURL string, args []string) error {
	fs := cli.Flags("submit", stderr)
	var spec jobs.Spec
	fs.StringVar(&spec.Name, "name", "", "human label")
	fs.StringVar(&spec.Tenant, "tenant", "", "quota bucket (default: default)")
	fs.StringVar(&spec.System, "system", "dlion", "system preset (baseline, ako, gaia, hop, dlion, ...)")
	fs.StringVar(&spec.Quant, "quant", "", "wire precision: i8, f16, auto")
	fs.IntVar(&spec.Workers, "workers", 2, "worker group size")
	fs.IntVar(&spec.Slots, "slots", 0, "address space incl. joiner slots (0 = workers)")
	fs.Int64Var(&spec.MaxIters, "max-iters", 100, "per-worker iteration budget")
	fs.Float64Var(&spec.Scale, "scale", 0, "dataset scale (0 = default)")
	fs.Uint64Var(&spec.Seed, "seed", 0, "cluster seed (0 = default)")
	fs.IntVar(&spec.LBS, "lbs", 0, "initial local batch size (0 = preset's)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		return err
	}
	return call(stdout, http.MethodPost, jobsURL, bytes.NewReader(raw))
}

// call sends one request to the API and relays its JSON to stdout; a
// non-2xx response (the structured error envelope) is returned as an error.
func call(stdout io.Writer, method, url string, body io.Reader) error {
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	stdout.Write(raw)
	if len(raw) > 0 && raw[len(raw)-1] != '\n' {
		fmt.Fprintln(stdout)
	}
	if resp.StatusCode >= 300 {
		return fmt.Errorf("HTTP %s", resp.Status)
	}
	return nil
}
