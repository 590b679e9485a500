package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/obs"
	"pushdowndb/internal/server"
	"pushdowndb/internal/tpch"
)

// workload is one traffic mix. Every workload is a closed loop: a client
// sends its next query only once the previous answer has arrived.
type workload struct {
	name    string
	clients int
	serve   bool // through an in-process pushdownd server
	index   bool // CREATE INDEX ON lineitem (l_orderkey) in set-up
	// streams makes client c's query stream, sent in units (a round of
	// the five TPC-H templates, or one lookup); before the timed loop
	// every client sends warmUnits units untimed.
	streams   func(ts []template, seed int64, c int, sf float64) stream
	warmUnits int
}

type stream interface{ next() []string }

var workloads = []*workload{
	{
		name: "tpch-cold", clients: 1,
		streams: func(ts []template, seed int64, _ int, _ float64) stream {
			return &roundStream{rng: rand.New(rand.NewSource(seed)), golden: goldenQueries(ts)}
		},
		warmUnits: 1, // planner statistics
	},
	{
		name: "serve-zipf", clients: 2, serve: true,
		streams:   func(ts []template, seed int64, c int, _ float64) stream { return newZipfStream(ts, seed, c) },
		warmUnits: 2, // starts filling the result cache with the Zipf head
	},
	{
		name: "point-lookup", clients: 1, index: true,
		streams: func(_ []template, seed int64, _ int, sf float64) stream {
			return &lookupStream{rng: rand.New(rand.NewSource(seed)), orders: tpch.SizesFor(sf).Orders}
		},
		warmUnits: 1, // index manifest
	},
}

func workloadNamed(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// sample is one timed query.
type sample struct {
	sql    string
	lat    time.Duration // send to answer
	cycle  time.Duration // lat plus the answer's rendering and, when traced, the trace's capture
	simSec float64
	usd    float64
	answer string // render() of the answer
	access string // planner's access choice for a single-table query
	traced bool
	trace  *obs.TraceData
	err    error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runner drives one set-up environment.
type runner struct {
	w       *workload
	env     *env
	clients []*server.Client
	reqSeq  atomic.Int64
}

// do sends one query and captures its answer, meters and (traced) span
// tree. Only the direct-DB workloads install a trace of their own.
func (r *runner) do(ctx context.Context, c int, sql string, traced bool) sample {
	s := sample{sql: sql, traced: traced}
	id := fmt.Sprintf("perfbench-%d", r.reqSeq.Add(1))
	start := time.Now()
	if r.w.serve {
		cl := r.clients[c]
		res, err := cl.QueryID(ctx, sql, id)
		s.lat = time.Since(start)
		if err != nil {
			s.err = err
			return s
		}
		s.simSec, s.usd = res.RuntimeSec, res.Cost.Total()
		s.answer = render(res.Relation.Cols, res.Relation.Rows)
		// The server traces every query (pushdownd's default retention),
		// so fetching the trace is the only difference a traced unit
		// makes, and it is not the program's cost: the cycle ends here.
		s.cycle = time.Since(start)
		if traced {
			s.trace, s.err = cl.Trace(ctx, id)
		}
		return s
	}
	qctx := ctx
	var tr *obs.Trace
	if traced {
		tr = obs.New(id, "query")
		qctx = obs.WithTrace(ctx, tr)
	}
	rel, ex, err := r.env.db.QueryContext(qctx, sql)
	s.lat = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	tr.Finish()
	s.simSec, s.usd = ex.RuntimeSeconds(), ex.Cost().Total()
	if ap := ex.Access(); ap != nil {
		s.access = ap.Strategy
	}
	s.answer = render(rel.Cols, rel.Rows)
	s.trace = tr.Snapshot()
	s.cycle = time.Since(start)
	return s
}

// loop runs every client's stream until more returns false. A client
// asks between units, so each run holds whole rounds. In trace mode the
// units alternate between untraced and traced, which measures the tracing
// overhead.
func (r *runner) loop(ctx context.Context, streams []stream, more func(unit int) bool, traceMode bool) ([]sample, time.Duration) {
	start := time.Now()
	per := make([][]sample, len(streams))
	var wg sync.WaitGroup
	for c := range streams {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for unit := 0; more(unit) && ctx.Err() == nil; unit++ {
				for _, sql := range streams[c].next() {
					per[c] = append(per[c], r.do(ctx, c, sql, traceMode && unit%2 == 1))
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []sample
	for _, s := range per {
		all = append(all, s...)
	}
	return all, elapsed
}

// run performs one benchmark run and returns its result line. Errors are
// reserved for runs that cannot produce a result (set-up failed, the
// golden answers differ); wrong or failed timed queries are counted.
func run(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	w, err := workloadNamed(cfg.workload)
	if err != nil {
		return nil, err
	}
	if cfg.setups < 1 {
		return nil, fmt.Errorf("setups must be at least 1")
	}
	ts := templates()
	if err := checkGoldens(ctx, cfg.goldenDir, goldenQueries(ts)); err != nil {
		return nil, err
	}

	traceMode := cfg.trace != 0
	var meter *meteredBackend
	if traceMode {
		meter = &meteredBackend{}
	}
	var e *env
	var setupSecs []float64
	for i := 0; i < cfg.setups; i++ {
		last := i == cfg.setups-1
		var m *meteredBackend
		if last {
			m = meter
		}
		runtime.GC() // every set-up starts from the same heap
		start := time.Now()
		env, err := setup(ctx, w, cfg.sf, m)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupSecs = append(setupSecs, time.Since(start).Seconds())
		if last {
			e = env
		} else if err := env.close(); err != nil {
			return nil, err
		}
	}
	defer e.close()

	r := &runner{w: w, env: e}
	streams := make([]stream, w.clients)
	for c := range streams {
		streams[c] = w.streams(ts, cfg.seed, c, cfg.sf)
		if w.serve {
			r.clients = append(r.clients, e.client(fmt.Sprintf("tenant-%d", c)))
		}
	}
	warm, _ := r.loop(ctx, streams, func(unit int) bool { return unit < w.warmUnits }, false)
	for _, s := range warm {
		if s.err != nil {
			return nil, fmt.Errorf("warm-up: %w", s.err)
		}
	}

	var sim simMeter
	if traceMode {
		e.db.SetQueryHook(sim.add)
	}
	before := takeCounters(e, meter, &sim)
	deadline := time.Now().Add(cfg.duration())
	samples, elapsed := r.loop(ctx, streams, func(int) bool { return time.Now().Before(deadline) }, traceMode)
	after := takeCounters(e, meter, &sim)
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	o, err := newOracle(cfg.sf, e.inproc)
	if err != nil {
		return nil, err
	}
	failed, err := checkAnswers(ctx, o, w, samples)
	if err != nil {
		return nil, err
	}
	rep := &report{Correct: failed == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	if traceMode {
		f := foldTraces(samples)
		layerMetrics(rep, w, samples, f, before, after)
		if err := writeTraces(cfg, samples, f, rep); err != nil {
			return nil, err
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		endToEnd(rep, samples, elapsed, before, after, setupSecs, rss)
	}
	summarize(log, w, ts, samples, before, after)
	return rep, nil
}

// checkAnswers counts failed queries and answers that differ from the
// reference: the committed or recomputed digest for tpch-cold and
// serve-zipf, the same lookups on a DB with no index for point-lookup.
func checkAnswers(ctx context.Context, o *oracle, w *workload, samples []sample) (int, error) {
	failed := 0
	var lookups []sample
	for _, s := range samples {
		switch {
		case s.err != nil:
			failed++
		case w.index:
			lookups = append(lookups, s)
		default:
			want, err := o.expect(ctx, s.sql)
			if err != nil {
				return 0, err
			}
			if digest(s.answer) != want {
				failed++
			}
		}
	}
	if len(lookups) == 0 {
		return failed, nil
	}
	keys := make([]int, len(lookups))
	seen := map[int]bool{}
	var distinct []int
	for i, s := range lookups {
		if _, err := fmt.Sscanf(s.sql, lookupSQL, &keys[i]); err != nil {
			return 0, fmt.Errorf("lookup key of %q: %w", s.sql, err)
		}
		if !seen[keys[i]] {
			seen[keys[i]] = true
			distinct = append(distinct, keys[i])
		}
	}
	rel, _, err := o.db.QueryContext(ctx, lookupCheckSQL(distinct))
	if err != nil {
		return 0, fmt.Errorf("reference lookups: %w", err)
	}
	col := -1
	for i, c := range rel.Cols {
		if c == "l_orderkey" {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("reference lookups: no l_orderkey column in %v", rel.Cols)
	}
	byKey := map[int][]engine.Row{}
	for _, row := range rel.Rows {
		k, err := strconv.Atoi(row[col].String())
		if err != nil {
			return 0, fmt.Errorf("reference lookups: key %q: %w", row[col].String(), err)
		}
		byKey[k] = append(byKey[k], row)
	}
	for i, s := range lookups {
		if s.answer != render(rel.Cols, byKey[keys[i]]) {
			failed++
		}
	}
	return failed, nil
}

// counters is a snapshot of every cumulative meter a run reads.
type counters struct {
	allocBytes     uint64
	gcCPU, busyCPU float64
	meter          meterSnapshot
	sim            simTotals
	cacheHits      int64
	cacheMisses    int64
	evictions      int64
	shareSelects   int64
	coalesced      int64
	sharedPasses   int64
	sharers        int64
}

func takeCounters(e *env, meter *meteredBackend, sim *simMeter) counters {
	var c counters
	rs := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(rs)
	c.allocBytes = rs[0].Value.Uint64()
	c.gcCPU = rs[1].Value.Float64()
	c.busyCPU = rs[2].Value.Float64() - rs[3].Value.Float64()
	if meter != nil {
		c.meter = meter.snapshot()
	}
	c.sim = sim.snapshot()
	if st, ok := e.db.ResultCacheStats(); ok {
		c.cacheHits, c.cacheMisses, c.evictions = st.Hits, st.Misses, st.Evictions
	}
	if st, ok := e.db.ScanShareStats(); ok {
		c.shareSelects, c.coalesced, c.sharedPasses, c.sharers = st.Selects, st.Coalesced, st.SharedPasses, st.Sharers
	}
	return c
}

// simMeter sums the cloudsim meters of every query the DB runs, read
// through the engine's query hook (the only way to see server-side
// executions from outside).
type simMeter struct {
	mu sync.Mutex
	t  simTotals
}

type simTotals struct {
	queries         int64
	requests, scanB float64
}

func (m *simMeter) add(_ context.Context, _ string, ex *engine.Exec, _ error) {
	if ex == nil {
		return
	}
	req, scan, _, _ := ex.Metrics.Totals()
	sreq, sscan, _, _ := ex.Metrics.SharedTotals()
	m.mu.Lock()
	m.t.queries++
	m.t.requests += float64(req) + sreq
	m.t.scanB += float64(scan) + sscan
	m.mu.Unlock()
}

func (m *simMeter) snapshot() simTotals {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.t
}

func ok(samples []sample) []sample {
	var out []sample
	for _, s := range samples {
		if s.err == nil {
			out = append(out, s)
		}
	}
	return out
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank percentile of sorted values.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// ceil(p*n)-1, tolerant of p*n landing a rounding error above an integer
	i := int(p*float64(len(sorted))+0.999999999) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func endToEnd(rep *report, samples []sample, elapsed time.Duration, before, after counters, setupSecs []float64, rss float64) {
	good := ok(samples)
	n := float64(len(good))
	lat := make([]float64, len(good))
	var simSec, usd float64
	for i, s := range good {
		lat[i] = float64(s.lat) / float64(time.Millisecond)
		simSec += s.simSec
		usd += s.usd
	}
	sort.Float64s(lat)
	m := rep.Metrics
	m["setup_s"] = metric{median(setupSecs), "s"}
	m["latency_p50_ms"] = metric{percentile(lat, 0.50), "ms"}
	m["latency_p95_ms"] = metric{percentile(lat, 0.95), "ms"}
	m["throughput_qps"] = metric{n / elapsed.Seconds(), "1/s"}
	m["sim_s_per_query"] = metric{div(simSec, n), "s"}
	m["usd_per_query"] = metric{div(usd, n), "USD"}
	m["alloc_mb_per_query"] = metric{div(float64(after.allocBytes-before.allocBytes)/1e6, float64(len(samples))), "MB"}
	m["peak_rss_mb"] = metric{rss, "MB"}
}

func layerMetrics(rep *report, w *workload, samples []sample, f *fold, before, after counters) {
	good := ok(samples)
	n := float64(len(good))
	var nt, wireMS float64
	var cyc [2]struct {
		sum time.Duration
		n   int
	}
	for _, s := range good {
		t := 0
		if s.traced {
			t = 1
			nt++
			if w.serve {
				// The server's trace root covers ExecStatement; the rest of
				// the client's wait is HTTP, JSON and admission.
				wireMS += float64(s.lat)/float64(time.Millisecond) - float64(s.trace.Root.DurUS)/1e3
			}
		}
		cyc[t].sum += s.cycle
		cyc[t].n++
	}
	ms := after.meter.sub(before.meter)
	sim := simTotals{
		queries:  after.sim.queries - before.sim.queries,
		requests: after.sim.requests - before.sim.requests,
		scanB:    after.sim.scanB - before.sim.scanB,
	}
	hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses
	selfMS := func(layer string) float64 { return div(float64(f.Layers[layer])/1e3, nt) }
	m := rep.Metrics
	m["selectengine.busy_ms_per_query"] = metric{div(float64(ms.selectNS)/1e6, n), "ms"}
	m["selectengine.calls_per_query"] = metric{div(float64(ms.selects), n), "count"}
	m["selectengine.rows_scanned_per_query"] = metric{div(float64(ms.rowsScanned), n), "count"}
	m["selectengine.returned_mb_per_query"] = metric{div(float64(ms.bytesReturned)/1e6, n), "MB"}
	m["s3api.get_calls_per_query"] = metric{div(float64(ms.gets), n), "count"}
	m["s3api.get_ms_per_query"] = metric{div(float64(ms.getNS)/1e6, n), "ms"}
	m["s3api.get_mb_per_query"] = metric{div(float64(ms.getBytes)/1e6, n), "MB"}
	m["engine.plan_ms_per_query"] = metric{selfMS("engine.plan"), "ms"}
	m["engine.decode_ms_per_query"] = metric{selfMS("engine.decode"), "ms"}
	m["vec.local_ms_per_query"] = metric{selfMS("vec.local"), "ms"}
	m["index.select_ms_per_query"] = metric{selfMS("index.select"), "ms"}
	m["index.fetch_ranges_per_query"] = metric{div(float64(ms.multiRanges), n), "count"}
	m["rescache.hit_rate"] = metric{div(float64(hits), float64(hits+misses)), "ratio"}
	m["rescache.evictions_per_query"] = metric{div(float64(after.evictions-before.evictions), n), "count"}
	m["scanshare.coalesced_frac"] = metric{div(float64(after.coalesced-before.coalesced), float64(after.shareSelects-before.shareSelects)), "ratio"}
	m["scanshare.sharers_avg"] = metric{div(float64(after.sharers-before.sharers), float64(after.sharedPasses-before.sharedPasses)), "count"}
	m["server.wire_ms_per_query"] = metric{div(wireMS, nt), "ms"}
	m["cloudsim.requests_per_query"] = metric{div(sim.requests, float64(sim.queries)), "count"}
	m["cloudsim.scan_mb_per_query"] = metric{div(sim.scanB/1e6, float64(sim.queries)), "MB"}
	m["runtime.gc_cpu_frac"] = metric{div(after.gcCPU-before.gcCPU, after.busyCPU-before.busyCPU), "ratio"}
	untraced := div(float64(cyc[0].sum), float64(cyc[0].n))
	traced := div(float64(cyc[1].sum), float64(cyc[1].n))
	m["bench.trace_overhead_frac"] = metric{div(traced, untraced) - 1, "ratio"}
}

func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, found := strings.CutPrefix(line, "VmHWM:"); found {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
