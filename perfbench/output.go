package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// writeTraces writes the traced queries' span trees as one Chrome
// trace-event file (each query a process, placed at its start time) and
// the per-layer fold next to it.
func writeTraces(cfg config, samples []sample, f *fold, rep *report) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	var origin time.Time
	for _, s := range samples {
		if s.trace != nil && (origin.IsZero() || s.trace.Start.Before(origin)) {
			origin = s.trace.Start
		}
	}
	var events []map[string]any
	traced := 0
	for _, s := range samples {
		if s.trace == nil {
			continue
		}
		traced++
		var evs []map[string]any
		if err := json.Unmarshal(s.trace.ChromeTrace(), &evs); err != nil {
			return fmt.Errorf("chrome trace of %s: %w", s.trace.ID, err)
		}
		shift := float64(s.trace.Start.Sub(origin).Microseconds())
		for _, ev := range evs {
			ev["ts"] = ev["ts"].(float64) + shift
			ev["pid"] = traced
			events = append(events, ev)
		}
	}
	chrome, err := json.Marshal(events)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".trace.json", chrome, 0o644); err != nil {
		return err
	}
	perQuery := func(us map[string]int64) map[string]float64 {
		out := map[string]float64{}
		for k, v := range us {
			out[k] = div(float64(v)/1e3, float64(traced))
		}
		return out
	}
	doc := map[string]any{
		"workload":                    cfg.workload,
		"seed":                        cfg.seed,
		"traced_queries":              traced,
		"layer_self_ms_per_query":     perQuery(f.Layers),
		"span_kind_self_ms_per_query": perQuery(f.Kinds),
		"metrics":                     rep.Metrics,
	}
	fold, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".fold.json", fold, 0o644)
}

// summarize prints what the result line cannot carry: latency by query,
// the share of exact repeats, the result cache's view and the planner's
// access choices.
func summarize(log io.Writer, w *workload, ts []template, samples []sample, before, after counters) {
	name := map[string]string{}
	for _, t := range ts {
		for _, sql := range t.bindings {
			name[sql] = t.name
		}
	}
	byName := map[string][]float64{}
	access := map[string]int{}
	seen := map[string]bool{}
	repeats := 0
	for _, s := range ok(samples) {
		n := name[s.sql]
		if n == "" {
			n = "lookup"
		}
		byName[n] = append(byName[n], float64(s.lat)/float64(time.Millisecond))
		if s.access != "" {
			access[s.access]++
		}
		if seen[s.sql] {
			repeats++
		}
		seen[s.sql] = true
	}
	var parts []string
	for n, lat := range byName {
		parts = append(parts, fmt.Sprintf("%s n=%d p50=%.1fms", n, len(lat), median(lat)))
	}
	sort.Strings(parts)
	fmt.Fprintf(log, "perfbench %s: %s\n", w.name, strings.Join(parts, "; "))
	fmt.Fprintf(log, "perfbench %s: %d queries, %d distinct, exact-repeat share %.3f\n",
		w.name, len(ok(samples)), len(seen), div(float64(repeats), float64(len(ok(samples)))))
	if hits, misses := after.cacheHits-before.cacheHits, after.cacheMisses-before.cacheMisses; hits+misses > 0 {
		fmt.Fprintf(log, "perfbench %s: result cache hit rate %.3f, %d evictions\n",
			w.name, div(float64(hits), float64(hits+misses)), after.evictions-before.evictions)
	}
	if len(access) > 0 {
		fmt.Fprintf(log, "perfbench %s: planner access choices %v\n", w.name, access)
	}
}
