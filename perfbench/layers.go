package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"pushdowndb/internal/obs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/store"
)

// meteredBackend times and counts every call across the storage-side
// boundary (s3api.InProc → selectengine → csvx) from outside the program.
// Only the traced run installs it, so the end-to-end run measures the
// program as users run it.
type meteredBackend struct {
	s3api.Backend
	m backendMeter
}

// backendMeter holds the counters; snapshot copies them for deltas.
type backendMeter struct {
	selects, selectNS, rowsScanned, bytesReturned atomic.Int64
	gets, getNS, getBytes, multiRanges            atomic.Int64
}

type meterSnapshot struct {
	selects, selectNS, rowsScanned, bytesReturned int64
	gets, getNS, getBytes, multiRanges            int64
}

func (b *meteredBackend) snapshot() meterSnapshot {
	m := &b.m
	return meterSnapshot{
		m.selects.Load(), m.selectNS.Load(), m.rowsScanned.Load(), m.bytesReturned.Load(),
		m.gets.Load(), m.getNS.Load(), m.getBytes.Load(), m.multiRanges.Load(),
	}
}

func (s meterSnapshot) sub(o meterSnapshot) meterSnapshot {
	return meterSnapshot{
		s.selects - o.selects, s.selectNS - o.selectNS, s.rowsScanned - o.rowsScanned, s.bytesReturned - o.bytesReturned,
		s.gets - o.gets, s.getNS - o.getNS, s.getBytes - o.getBytes, s.multiRanges - o.multiRanges,
	}
}

func (b *meteredBackend) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	start := time.Now()
	res, err := b.Backend.Select(ctx, bucket, key, req)
	b.m.selectNS.Add(int64(time.Since(start)))
	b.m.selects.Add(1)
	if res != nil {
		b.m.rowsScanned.Add(res.Stats.RowsScanned)
		b.m.bytesReturned.Add(res.Stats.BytesReturned)
	}
	return res, err
}

func (b *meteredBackend) noteGet(start time.Time, n int) {
	b.m.getNS.Add(int64(time.Since(start)))
	b.m.gets.Add(1)
	b.m.getBytes.Add(int64(n))
}

func (b *meteredBackend) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.Get(ctx, bucket, key)
	b.noteGet(start, len(data))
	return data, err
}

func (b *meteredBackend) GetRange(ctx context.Context, bucket, key string, first, last int64) ([]byte, error) {
	start := time.Now()
	data, err := b.Backend.GetRange(ctx, bucket, key, first, last)
	b.noteGet(start, len(data))
	return data, err
}

func (b *meteredBackend) GetRanges(ctx context.Context, bucket, key string, ranges [][2]int64) ([][]byte, error) {
	start := time.Now()
	parts, err := b.Backend.GetRanges(ctx, bucket, key, ranges)
	n := 0
	for _, p := range parts {
		n += len(p)
	}
	b.noteGet(start, n)
	b.m.multiRanges.Add(int64(len(ranges)))
	return parts, err
}

// Put passes writes through: CREATE INDEX builds through the backend.
func (b *meteredBackend) Put(ctx context.Context, bucket, key string, data []byte) error {
	p, ok := b.Backend.(s3api.Putter)
	if !ok {
		return fmt.Errorf("perfbench: backend does not accept writes")
	}
	return p.Put(ctx, bucket, key, data)
}

// withoutIndexes hides every secondary-index object, so a reference DB
// over the same store plans as if no index had been built.
type withoutIndexes struct{ s3api.Backend }

func (b withoutIndexes) Get(ctx context.Context, bucket, key string) ([]byte, error) {
	if strings.Contains(key, "/_index/") {
		return nil, s3api.NewError("get", bucket, key, s3api.KindNotFound, store.ErrNotFound)
	}
	return b.Backend.Get(ctx, bucket, key)
}

// Per-layer fold of the program's own span tree. A span's self time is its
// duration minus the union of the intervals its children cover (partition
// selects run in parallel, so children may overlap).

// layerOf maps a span name onto the layer it measures ("" = none named).
func layerOf(name string) string {
	switch {
	case name == "plan", strings.HasPrefix(name, "plan "), strings.HasPrefix(name, "header "):
		return "engine.plan"
	case name == "decode":
		return "engine.decode"
	case name == "filter", name == "project", name == "groupby", name == "aggregate",
		name == "hash join", name == "hash join local":
		return "vec.local"
	case strings.HasPrefix(name, "index select "):
		return "index.select"
	case strings.HasPrefix(name, "index fetch "):
		return "index.fetch"
	}
	return ""
}

// spanKind strips the object and table names engines put in span names
// ("select tpch/lineitem/part0003.csv" → "select"), so the fold by kind
// stays small.
func spanKind(name string) string {
	fields := strings.Fields(name)
	for i, f := range fields {
		if i > 0 && (strings.Contains(f, "/") || tables[f]) {
			return strings.Join(fields[:i], " ")
		}
	}
	return name
}

var tables = map[string]bool{
	"lineitem": true, "orders": true, "customer": true, "part": true,
	"supplier": true, "nation": true, "region": true,
}

// fold accumulates self time in microseconds by layer and by span kind.
type fold struct {
	Layers map[string]int64 `json:"layer_self_us"`
	Kinds  map[string]int64 `json:"kind_self_us"`
}

func newFold() *fold { return &fold{Layers: map[string]int64{}, Kinds: map[string]int64{}} }

// foldTraces folds the span trees of every traced sample.
func foldTraces(samples []sample) *fold {
	f := newFold()
	for _, s := range samples {
		if s.trace != nil {
			f.add(s.trace.Root)
		}
	}
	return f
}

func (f *fold) add(sp *obs.SpanData) {
	self := sp.DurUS - coveredUS(sp)
	if self < 0 {
		self = 0
	}
	if l := layerOf(sp.Name); l != "" {
		f.Layers[l] += self
	}
	f.Kinds[spanKind(sp.Name)] += self
	for _, c := range sp.Children {
		f.add(c)
	}
}

// coveredUS is the length of the union of sp's children's intervals,
// clipped to sp's own interval.
func coveredUS(sp *obs.SpanData) int64 {
	lo, hi := sp.StartUS, sp.StartUS+sp.DurUS
	iv := make([][2]int64, 0, len(sp.Children))
	for _, c := range sp.Children {
		s, e := max(c.StartUS, lo), min(c.StartUS+c.DurUS, hi)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	for i, v := range iv {
		switch {
		case i == 0:
			curS, curE = v[0], v[1]
		case v[0] > curE:
			total += curE - curS
			curS, curE = v[0], v[1]
		case v[1] > curE:
			curE = v[1]
		}
	}
	if len(iv) > 0 {
		total += curE - curS
	}
	return total
}
