// Command benchvec measures query tracing overhead: the same pushed
// filter + aggregate over TPC-H lineitem, with and without an obs.Trace in
// context, written to a JSON report (BENCH_vec.json by default).
//
//	benchvec                      # SF 0.01, write BENCH_vec.json
//	benchvec -sf 0.002 -check     # CI smoke: exit non-zero on overhead
//
// With -check the command exits 1 if the traced run exceeds the untraced
// by more than 50%.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"pushdowndb/internal/harness"
)

// TraceReport is the tracing-overhead measurement: the same query end to
// end with and without an obs.Trace in context.
type TraceReport struct {
	OffNsPerOp   int64   `json:"off_ns_per_op"`
	OnNsPerOp    int64   `json:"on_ns_per_op"`
	OverheadFrac float64 `json:"overhead_frac"`
}

// Report is the BENCH_vec.json layout.
type Report struct {
	SF    float64     `json:"sf"`
	Trace TraceReport `json:"trace"`
}

func main() {
	var (
		sf    = flag.Float64("sf", 0.01, "TPC-H scale factor for the fixture")
		out   = flag.String("o", "BENCH_vec.json", "report path (empty = stdout only)")
		check = flag.Bool("check", false, "exit non-zero if tracing overhead is above 50%")
	)
	flag.Parse()

	report := Report{SF: *sf}

	// Tracing overhead: the full query with and without a trace in
	// context. The gate is generous (50%) because the smoke runs a
	// millisecond-scale query where constant costs loom large; the point
	// is to catch span bookkeeping becoming a per-row cost, which shows
	// up as a multiple, not a margin.
	tf, err := harness.NewTraceBenchFixture(context.Background(), *sf)
	if err != nil {
		fatal(err)
	}
	if err := tf.TraceBenchVerify(context.Background()); err != nil {
		fatal(err)
	}
	timeTrace := func(traced bool) int64 {
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tf.Run(context.Background(), traced); err != nil {
					b.Fatal(err)
				}
			}
		})
		return r.NsPerOp()
	}
	off, on := timeTrace(false), timeTrace(true)
	report.Trace = TraceReport{
		OffNsPerOp:   off,
		OnNsPerOp:    on,
		OverheadFrac: float64(on)/float64(off) - 1,
	}
	fmt.Printf("%-8s off %12d ns/op   on  %12d ns/op   %+.1f%%\n",
		"trace", off, on, report.Trace.OverheadFrac*100)
	tracingSlow := float64(on) > float64(off)*1.50

	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		fatal(err)
	}
	data = append(data, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			fatal(err)
		}
	} else {
		os.Stdout.Write(data)
	}

	if *check && tracingSlow {
		fatal(fmt.Errorf("tracing overhead above 50%% (see report above)"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchvec:", err)
	os.Exit(1)
}
