package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
)

// TestSmoke runs every workload of BENCHMARK.json in miniature (SF 0.002,
// a fraction of a second) in both modes and requires checked answers and
// every named metric with its unit.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type spec struct{ Name, Unit string }
	var b struct {
		Workloads []spec
		EndToEnd  []spec `json:"end_to_end"`
		PerLayer  []spec `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		for trace, want := range [][]spec{b.EndToEnd, b.PerLayer} {
			cfg := config{
				workload: w.Name, seed: 7, seconds: 0.2, trace: trace, sf: 0.002, setups: 2,
				goldenDir: "../internal/tpch/testdata/golden", outDir: t.TempDir(),
			}
			rep, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", w.Name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v failed=%d attempted=%d", w.Name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", w.Name, trace, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := rep.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%d: metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}

// TestSelfTime pins the fold's self time: a span's duration minus the
// union of its (possibly overlapping) children, clipped to the span.
func TestSelfTime(t *testing.T) {
	sp := &obs.SpanData{Name: "plan probe lineitem", StartUS: 100, DurUS: 100, Children: []*obs.SpanData{
		{Name: "select tpch/lineitem/part0000.csv", StartUS: 110, DurUS: 30},
		{Name: "select tpch/lineitem/part0001.csv", StartUS: 120, DurUS: 30},
		{Name: "decode", StartUS: 170, DurUS: 10},
		{Name: "filter", StartUS: 190, DurUS: 50},
	}}
	if got := coveredUS(sp); got != 40+10+10 {
		t.Fatalf("covered = %d, want 60", got)
	}
	f := newFold()
	f.add(sp)
	if f.Layers["engine.plan"] != 40 || f.Layers["engine.decode"] != 10 || f.Layers["vec.local"] != 50 {
		t.Errorf("layers = %v", f.Layers)
	}
	if f.Kinds["select"] != 60 || f.Kinds["plan probe"] != 40 {
		t.Errorf("kinds = %v", f.Kinds)
	}
}

// TestOracleRequiresCommittedDigest: at the run scale, which has
// committed digests, a SQL string without one is an error rather than a
// silent fallback to the reference engine.
func TestOracleRequiresCommittedDigest(t *testing.T) {
	o, err := newOracle(0.01, s3api.NewInProc(store.New()))
	if err != nil {
		t.Fatal(err)
	}
	if len(o.committed) == 0 {
		t.Fatal("no committed digests at SF 0.01")
	}
	if _, err := o.expect(context.Background(), "SELECT COUNT(*) FROM nation"); err == nil || !strings.Contains(err.Error(), "--write-digests") {
		t.Errorf("expect without a committed digest: err = %v", err)
	}
}
