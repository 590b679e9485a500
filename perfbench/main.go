// Command perfbench is PushdownDB's end-to-end and per-layer benchmark.
// Each workload runs as a closed loop from this one process over TPC-H
// CSV at SF 0.01 in simulated S3 (s3api.InProc, 4 partitions per table),
// checks every answer, and prints one JSON result line:
//
//	bash perfbench/run.sh --workload tpch-cold --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it reports the end-to-end metrics with no tracing
// installed; with --trace 1 it reports per-layer metrics measured from
// outside the program (a timing wrapper around s3api.Backend, the calls
// into engine.DB and server.Client, and the program's own obs span tree
// folded into self time per layer), and writes the span trees as a Chrome
// trace plus the fold under .bench_out/.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"
)

func main() {
	// The run-scale constants are fixed here; the smoke test runs the same
	// code in miniature by filling config itself.
	cfg := config{
		sf: 0.01, setups: 9,
		goldenDir: "internal/tpch/testdata/golden", outDir: ".bench_out",
	}
	fs := flag.NewFlagSet("perfbench", flag.ExitOnError)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: tpch-cold, serve-zipf or point-lookup")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are drawn from")
	fs.Float64Var(&cfg.seconds, "seconds", 35, "length of the timed loop in seconds")
	fs.IntVar(&cfg.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	writeDigestsTo := fs.String("write-digests", "", "answer every SQL string the workloads can send on the reference engine, write the digests here and exit")
	_ = fs.Parse(os.Args[1:]) // ExitOnError

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *writeDigestsTo != "" {
		if err := writeDigests(ctx, cfg.sf, *writeDigestsTo); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(ctx, cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	sf        float64 // TPC-H scale factor
	setups    int     // setup_s is their median; the last one is measured
	goldenDir string  // the SF 0.002 golden answers
	outDir    string  // where the traced run writes its span trees
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }
