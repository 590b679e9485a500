package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"pushdowndb/internal/engine"
	"pushdowndb/internal/rescache"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/scanshare"
	"pushdowndb/internal/selectengine"
	"pushdowndb/internal/server"
	"pushdowndb/internal/store"
	"pushdowndb/internal/tpch"
)

// pushdownd's defaults, which serve-zipf runs the server with.
const (
	cacheBudget = 64 << 20
	shareWindow = 2 * time.Millisecond
	shareBatch  = 16
)

// env is one set-up instance of a workload: the loaded store, the DB the
// timed loop queries and, for serve-zipf, the in-process server.
type env struct {
	inproc *s3api.InProc
	db     *engine.DB
	srv    *server.Server
	served chan error
	http   *http.Client
	url    string
}

func loadTPCH(ctx context.Context, sf float64) (*s3api.InProc, error) {
	st := store.New()
	if _, err := tpch.Load(ctx, st, tpch.Dataset{SF: sf, Seed: 42, Bucket: "tpch", Partitions: 4}); err != nil {
		return nil, err
	}
	return s3api.NewInProc(st), nil
}

// setup generates and loads the data, opens the DB, builds the index and
// starts the server, as the workload needs. meter, when non-nil, is
// installed between the DB and the store.
func setup(ctx context.Context, w *workload, sf float64, meter *meteredBackend) (*env, error) {
	inproc, err := loadTPCH(ctx, sf)
	if err != nil {
		return nil, err
	}
	e := &env{inproc: inproc}
	var be s3api.Backend = inproc
	if meter != nil {
		meter.Backend = inproc
		be = meter
	}
	opts := []engine.Option{engine.WithBackend("s3", be)}
	if w.serve {
		opts = append(opts, engine.WithResultCache(cacheBudget),
			engine.WithScanSharing(scanshare.Config{Window: shareWindow, MaxBatch: shareBatch}))
	}
	if e.db, err = engine.Open("tpch", opts...); err != nil {
		return nil, err
	}
	if w.index {
		if _, _, err := e.db.ExecStatement(ctx, "CREATE INDEX ON lineitem (l_orderkey)"); err != nil {
			return nil, err
		}
	}
	if w.serve {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		e.srv = server.New(e.db, server.Config{})
		e.served = make(chan error, 1)
		go func() { e.served <- e.srv.Serve(l) }()
		e.url = "http://" + l.Addr().String()
		e.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients + 1}}
		if err := server.NewClient(e.url).Health(ctx); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *env) client(tenant string) *server.Client {
	c := server.NewClient(e.url)
	c.Tenant = tenant
	c.HTTPClient = e.http
	return c
}

// close stops the server and waits for it to exit.
func (e *env) close() error {
	if e.srv == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.srv.Shutdown(ctx)
	if serr := <-e.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.http.CloseIdleConnections()
	e.srv = nil
	return err
}

// renderGolden is internal/tpch's golden-file rendering.
func renderGolden(rel *engine.Relation) string {
	var b strings.Builder
	b.WriteString(strings.Join(rel.Cols, "|"))
	b.WriteByte('\n')
	for _, row := range rel.Rows {
		parts := make([]string, len(row))
		for j, v := range row {
			parts[j] = v.String()
		}
		b.WriteString(strings.Join(parts, "|"))
		b.WriteByte('\n')
	}
	return b.String()
}

// render is renderGolden with every cell's kind, so an answer that
// changes type across the wire (int 5 vs float 5) does not compare equal.
func render(cols []string, rows []engine.Row) string {
	var b strings.Builder
	b.WriteString(strings.Join(cols, "|"))
	b.WriteByte('\n')
	for _, row := range rows {
		for j, v := range row {
			if j > 0 {
				b.WriteByte('|')
			}
			b.WriteString(v.Kind().String())
			b.WriteByte(':')
			b.WriteString(v.String())
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// checkGoldens answers the five golden queries at SF 0.002 and requires
// them byte-identical to internal/tpch's golden files.
func checkGoldens(ctx context.Context, dir string, golden []string) error {
	inproc, err := loadTPCH(ctx, 0.002)
	if err != nil {
		return err
	}
	db, err := engine.Open("tpch", engine.WithBackend("s3", inproc))
	if err != nil {
		return err
	}
	for i, name := range []string{"q1", "q3", "q6", "q14", "q19"} {
		want, err := os.ReadFile(filepath.Join(dir, name+".golden"))
		if err != nil {
			return fmt.Errorf("golden check: %w", err)
		}
		rel, _, err := db.QueryContext(ctx, golden[i])
		if err != nil {
			return fmt.Errorf("golden check %s: %w", name, err)
		}
		if got := renderGolden(rel); got != string(want) {
			return fmt.Errorf("golden check %s: answer differs from %s\ngot:\n%s", name, dir, got)
		}
	}
	return nil
}

// digests.tsv holds the reference engine's answer digest for every SQL
// string serve-zipf and tpch-cold can send at run scale, keyed by scale
// factor and SQL digest. Regenerate with -write-digests.
//
//go:embed digests.tsv
var digestsTSV []byte

func digestKey(sf float64, sql string) string {
	return strconv.FormatFloat(sf, 'g', -1, 64) + "\t" + digest(sql)
}

// committedDigests returns the committed answer digests at scale sf,
// keyed by SQL digest.
func committedDigests(sf float64) map[string]string {
	scale := strconv.FormatFloat(sf, 'g', -1, 64)
	out := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(digestsTSV))
	for sc.Scan() {
		if f := strings.Split(sc.Text(), "\t"); len(f) == 3 && f[0] == scale {
			out[f[1]] = f[2]
		}
	}
	return out
}

// oracle gives the expected answer digest of a SQL string. At a scale
// with committed digests every SQL string must have one; at any other
// scale (the smoke test's) the expected answer is that of a reference DB
// over the same store with no cache, no sharing and no index.
type oracle struct {
	db        *engine.DB
	committed map[string]string
	memo      map[string]string
}

func newOracle(sf float64, be s3api.Backend) (*oracle, error) {
	db, err := engine.Open("tpch", engine.WithBackend("s3", withoutIndexes{be}))
	if err != nil {
		return nil, err
	}
	return &oracle{db: db, committed: committedDigests(sf), memo: map[string]string{}}, nil
}

func (o *oracle) expect(ctx context.Context, sql string) (string, error) {
	if len(o.committed) > 0 {
		d, ok := o.committed[digest(sql)]
		if !ok {
			return "", fmt.Errorf("no committed answer digest for %q; regenerate digests.tsv with run.sh --write-digests perfbench/digests.tsv", sql)
		}
		return d, nil
	}
	if d, ok := o.memo[sql]; ok {
		return d, nil
	}
	rel, _, err := o.db.QueryContext(ctx, sql)
	if err != nil {
		return "", fmt.Errorf("reference answer: %w", err)
	}
	d := digest(render(rel.Cols, rel.Rows))
	o.memo[sql] = d
	return d, nil
}

// writeDigests answers every SQL string of the binding domains on the
// reference engine and writes digests.tsv. It also reports the size of
// the domain's distinct select-result working set, in the result cache's
// own accounting, for comparison with the 64 MiB budget.
func writeDigests(ctx context.Context, sf float64, path string) error {
	inproc, err := loadTPCH(ctx, sf)
	if err != nil {
		return err
	}
	sizer := &sizingBackend{Backend: inproc, sizes: map[string]int64{}}
	o, err := newOracle(sf, sizer)
	if err != nil {
		return err
	}
	o.committed = nil // answer everything on the reference DB
	var b strings.Builder
	n := 0
	for _, t := range templates() {
		for _, sql := range t.bindings {
			d, err := o.expect(ctx, sql)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "%s\t%s\n", digestKey(sf, sql), d)
			n++
		}
	}
	var ws int64
	for _, size := range sizer.sizes {
		ws += size
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d SQL strings; distinct select-result working set %.1f MiB in %d responses (cache budget %d MiB)\n",
		n, float64(ws)/(1<<20), len(sizer.sizes), cacheBudget>>20)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

// sizingBackend records the result-cache footprint of every distinct
// Select response, measured by a throwaway cache so nothing is retained.
type sizingBackend struct {
	s3api.Backend
	mu    sync.Mutex // partition selects run concurrently
	sizes map[string]int64
}

func (b *sizingBackend) Select(ctx context.Context, bucket, key string, req selectengine.Request) (*selectengine.Result, error) {
	res, err := b.Backend.Select(ctx, bucket, key, req)
	if err == nil {
		c := rescache.New(1 << 40)
		c.Put(rescache.Key{Bucket: bucket, Object: key, Query: req.SQL}, 0, res)
		b.mu.Lock()
		b.sizes[key+"\x00"+req.SQL] = c.Stats().UsedBytes
		b.mu.Unlock()
	}
	return res, err
}
