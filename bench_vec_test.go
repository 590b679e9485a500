// Query tracing overhead benchmark: cmd/benchvec times the same fixture
// outside the testing framework and writes BENCH_vec.json.
//
//	go test -bench=BenchmarkTraceOverhead -benchtime=10x
package pushdowndb_test

import (
	"context"
	"testing"

	"pushdowndb/internal/harness"
)

const vecBenchSF = 0.01

// BenchmarkTraceOverhead pins the cost of query tracing: the same pushed
// filter + aggregate with and without an obs.Trace in context. The "off"
// path is what every untraced query pays (one nil context lookup per
// span site); cmd/benchvec -check gates the on/off ratio so span
// bookkeeping can't quietly grow into query latency.
func BenchmarkTraceOverhead(b *testing.B) {
	f, err := harness.NewTraceBenchFixture(context.Background(), vecBenchSF)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		label  string
		traced bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.label, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.Run(context.Background(), mode.traced); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
