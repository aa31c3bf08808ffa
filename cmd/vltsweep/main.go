package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"vlt/internal/api"
	"vlt/internal/report"
	"vlt/internal/vltclient"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point: it parses args, sweeps, writes to
// stdout/stderr and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vltsweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	server := fs.String("server", "http://127.0.0.1:8317", "vltd base URL")
	workloadsFlag := fs.String("workloads", "", "comma-separated workload names (required)")
	machinesFlag := fs.String("machines", "", "comma-separated machine names (required)")
	scalesFlag := fs.String("scales", "", "comma-separated problem scales (default 1)")
	lanes := fs.Int("lanes", 0, "vector lane override (0 = machine default)")
	threads := fs.Int("threads", 0, "software thread override (0 = workload default)")
	timeout := fs.Duration("timeout", 10*time.Minute, "whole-sweep deadline (propagated to the server)")
	retries := fs.Int("retries", 3, "transient-failure retries after the first attempt (0 = none)")
	jsonOut := fs.Bool("json", false, "emit the raw NDJSON lines instead of the table")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vltsweep -workloads a,b -machines x,y [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "vltsweep: unexpected argument %q\n", fs.Arg(0))
		fs.Usage()
		return 2
	}
	if *workloadsFlag == "" || *machinesFlag == "" {
		fs.Usage()
		return 2
	}
	if *retries < 0 {
		fmt.Fprintf(stderr, "vltsweep: -retries %d: want 0 (no retries) or a positive count\n", *retries)
		return 2
	}
	maxRetries := *retries
	if maxRetries == 0 {
		maxRetries = -1 // vltclient reads 0 as its default budget and a negative count as none
	}
	scales, err := parseScales(*scalesFlag)
	if err != nil {
		fmt.Fprintln(stderr, "vltsweep:", err)
		return 2
	}

	req := api.SweepRequest{
		Workloads: splitList(*workloadsFlag),
		Machines:  splitList(*machinesFlag),
		Scales:    scales,
		Lanes:     *lanes,
		Threads:   *threads,
	}
	client := vltclient.New(vltclient.Config{
		BaseURL:    strings.TrimRight(*server, "/"),
		MaxRetries: maxRetries,
	})
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	errCells := 0
	trailer, err := client.Sweep(ctx, req, func(cell api.SweepCell) error {
		if *jsonOut {
			line, err := json.Marshal(cell)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s\n", line)
			return nil
		}
		name := api.RunRequest{Workload: cell.Workload, Machine: cell.Machine, Scale: cell.Scale,
			Lanes: *lanes, Threads: *threads}.Cell()
		if cell.Error != nil {
			errCells++
			fmt.Fprintf(stdout, "%-24s ERROR %s: %s\n", name, cell.Error.Code, cell.Error.Message)
			return nil
		}
		var res api.RunResponse
		if err := json.Unmarshal(cell.Result, &res); err != nil {
			return fmt.Errorf("cell %s: bad result: %w", name, err)
		}
		fmt.Fprintf(stdout, "%-24s cycles=%-12d ipc=%-6.3f busy=%5.1f%% verified=%t\n",
			name, res.Cycles, res.IPC, res.Util.BusyPct, res.Verified)
		return nil
	})
	if err != nil {
		fmt.Fprint(stderr, report.Diagnose("vltsweep", err))
		return 2
	}
	fmt.Fprintf(stdout, "vltsweep: %d cells, %d errors\n", trailer.Cells, trailer.Errors)
	if trailer.Errors > 0 || errCells > 0 {
		return 1
	}
	return 0
}

// splitList parses a comma-separated flag into trimmed names.
func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}

// parseScales parses the -scales flag ("" = server default of 1).
func parseScales(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range splitList(s) {
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad scale %q: want a positive integer", f)
		}
		out = append(out, n)
	}
	return out, nil
}
