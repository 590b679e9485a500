package engine

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pushdowndb/internal/colformat"
	"pushdowndb/internal/localfs"
	"pushdowndb/internal/s3api"
	"pushdowndb/internal/store"
	"pushdowndb/internal/value"
)

// The corpus goldens are the answers the engine's former row-at-a-time
// local operators gave, rendered with render(), recorded before those
// operators were replaced by the internal/vec kernels. They are a fixed
// reference: a mismatch is a change of answer, so they are never rewritten
// from the code they check. Each file is a list of sections, a line
// "== name" followed by the rendered relation.

// goldenSections reads testdata/<file> into its named sections.
func goldenSections(t *testing.T, file string) map[string]string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", file))
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	parts := strings.Split("\n"+strings.TrimSuffix(string(data), "\n"), "\n== ")
	for _, part := range parts[1:] {
		name, body, _ := strings.Cut(part, "\n")
		sections[name] = body
	}
	return sections
}

// checkGolden fails unless got equals the golden section name.
func checkGolden(t *testing.T, golden map[string]string, name, got string) {
	t.Helper()
	want, ok := golden[name]
	if !ok {
		t.Errorf("%s: no golden section", name)
	} else if got != want {
		t.Errorf("%s: answer differs from the row-operator golden\ngot:\n%s\nwant:\n%s", name, got, want)
	}
}

// TestVecRowDifferentialCorpus runs the cross-backend corpus on the
// in-process and localfs backends, cold and warm (result cache on), and
// pins every answer to the row-operator golden.
func TestVecRowDifferentialCorpus(t *testing.T) {
	golden := goldenSections(t, "corpus.golden")
	backends := map[string]s3api.Backend{}
	inproc := s3api.NewInProc(store.New())
	diffLoad(t, inproc)
	backends["inproc"] = inproc
	fs := localfs.New(t.TempDir())
	diffLoad(t, fs)
	backends["localfs"] = fs

	for name, backend := range backends {
		t.Run(name, func(t *testing.T) {
			db, err := Open(diffBucket,
				WithBackend(name, backend),
				WithResultCache(testCacheBudget))
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range diffQueries {
				for _, pass := range []string{"cold", "warm"} {
					rel, _, err := db.Query(q.sql)
					if err != nil {
						t.Fatalf("%s (%s): %v", q.name, pass, err)
					}
					checkGolden(t, golden, q.name, render(rel, q.ordered))
				}
			}
		})
	}
}

// columnarFixture writes a nasty columnar table: NULLs in every column, a
// numeric-looking string column, dates, floats with a NaN.
func columnarFixture(t *testing.T) *store.Store {
	t.Helper()
	st := store.New()
	schema := colformat.Schema{
		{Name: "id", Kind: value.KindInt},
		{Name: "price", Kind: value.KindFloat},
		{Name: "ship", Kind: value.KindDate},
		{Name: "code", Kind: value.KindString},
	}
	var rows [][]value.Value
	for i := 0; i < 57; i++ {
		row := []value.Value{
			value.Int(int64(i)),
			value.Float(float64(i) * 1.25),
			value.Date(int64(19000 + i%17)),
			value.Str([]string{"00501", "A", " 7", "7"}[i%4]),
		}
		switch i % 9 {
		case 3:
			row[1] = value.Null()
		case 5:
			row[3] = value.Null()
		case 7:
			row[2] = value.Null()
		}
		rows = append(rows, row)
	}
	if err := PartitionTableColumnar(st, diffBucket, "c", schema, rows, 3, 8, true); err != nil {
		t.Fatal(err)
	}
	return st
}

// columnarQueries run over columnarFixture's table c.
var columnarQueries = []struct {
	name    string
	sql     string
	ordered bool
}{
	{"col-filter", "SELECT id, price FROM c WHERE price >= 20 AND code = '00501'", false},
	{"col-date", "SELECT id FROM c WHERE ship >= '2022-01-05'", false},
	{"col-null", "SELECT id FROM c WHERE price IS NULL", false},
	{"col-group", "SELECT code, COUNT(*) AS n, SUM(price) AS s FROM c GROUP BY code ORDER BY code", true},
	{"col-agg", "SELECT COUNT(*) AS n, AVG(price) AS av, MIN(ship) AS lo FROM c", false},
}

// TestVecRowColumnarTable pins the columnar decode path: queries over a
// colformat table match the row-operator golden, the plain-GET load path
// decodes the binary layout instead of mis-parsing it as CSV, and
// TableHeader answers from the footer schema.
func TestVecRowColumnarTable(t *testing.T) {
	golden := goldenSections(t, "columnar.golden")
	db, err := Open(diffBucket, WithBackend("inproc", s3api.NewInProc(columnarFixture(t))))
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range columnarQueries {
		rel, _, err := db.Query(q.sql)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		checkGolden(t, golden, q.name, render(rel, q.ordered))
	}

	// The server-side baseline fetches partitions whole with plain GETs;
	// colformat objects must decode through the columnar reader.
	rel, err := db.NewExec().ServerSideFilter("c", "id < 10", "id, code")
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, golden, "server-side-filter", render(rel, false))
	if len(rel.Rows) != 10 {
		t.Errorf("ServerSideFilter over columnar table kept %d rows, want 10", len(rel.Rows))
	}

	header, err := db.NewExec().TableHeader("hdr", 0, "c")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"id", "price", "ship", "code"}
	if len(header) != len(want) {
		t.Fatalf("TableHeader over columnar table = %v, want %v", header, want)
	}
	for i := range want {
		if header[i] != want[i] {
			t.Fatalf("TableHeader over columnar table = %v, want %v", header, want)
		}
	}
}

// TestProbeStatsColumnar pins the planner's format detection: the stats
// probe marks columnar tables (every partition answered by the columnar
// select path) and leaves CSV tables unmarked — with no extra requests.
func TestProbeStatsColumnar(t *testing.T) {
	st := columnarFixture(t)
	ctxPut := s3api.NewInProc(st)
	diffLoad(t, ctxPut) // CSV tables p/ord/item next to columnar c
	db, err := Open(diffBucket, WithBackend("inproc", ctxPut))
	if err != nil {
		t.Fatal(err)
	}
	e := db.NewExec()
	colStats, _, _, err := e.probeStats("c", "id < 10", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !colStats.Columnar {
		t.Error("probeStats over a colformat table did not set Columnar")
	}
	csvStats, _, _, err := e.probeStats("p", "", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if csvStats.Columnar {
		t.Error("probeStats over a CSV table set Columnar")
	}
	// The flag must survive the stats cache.
	again, _, cached, err := e.probeStats("c", "id < 10", "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !cached || !again.Columnar {
		t.Errorf("cached probeStats: cached=%v Columnar=%v, want true/true", cached, again.Columnar)
	}
}

// TestVecOperatorWrappers pins operator edge cases the vec package's own
// tests cannot reach: the empty-predicate identity, the empty-input
// aggregate row and the error every operator gives a ragged relation.
func TestVecOperatorWrappers(t *testing.T) {
	rel := &Relation{
		Cols: []string{"a", "b"},
		Rows: []Row{
			{value.Int(1), value.Str("x")},
			{value.Int(2), value.Null()},
			{value.Int(3), value.Str("y")},
		},
	}
	out, err := FilterLocalN(rel, "", 2)
	if err != nil || out != rel {
		t.Errorf("FilterLocalN with empty predicate: got (%p, %v), want the input relation", out, err)
	}

	empty := &Relation{Cols: []string{"a", "b"}}
	for items, want := range map[string]string{
		"COUNT(*) AS n, SUM(a) AS s":      "n|s\n0|",
		"COUNT(*) + 0 AS n, AVG(a) AS av": "n|av\n0|",
	} {
		agg, err := AggregateLocalN(empty, items, 2)
		if err != nil {
			t.Fatalf("AggregateLocalN(empty, %q): %v", items, err)
		}
		if got := render(agg, true); got != want {
			t.Errorf("empty-input aggregate %q:\n%s\nwant:\n%s", items, got, want)
		}
	}

	ragged := &Relation{
		Cols: []string{"a", "b", "c"},
		Rows: []Row{
			{value.Int(1), value.Str("x"), value.Int(5)},
			{value.Int(2)},
		},
	}
	const want = "engine: ragged relation: row 1 has 1 values, want 3"
	for name, op := range map[string]func() (*Relation, error){
		"filter":     func() (*Relation, error) { return FilterLocalN(ragged, "a >= 1", 2) },
		"project":    func() (*Relation, error) { return ProjectLocalN(ragged, "a, b", 2) },
		"groupby":    func() (*Relation, error) { return GroupByLocalN(ragged, "a", "a, COUNT(*) AS n", 2) },
		"aggregate":  func() (*Relation, error) { return AggregateLocalN(ragged, "SUM(a) AS s", 2) },
		"join left":  func() (*Relation, error) { return HashJoinLocalN(ragged, rel, "a", "a", 2) },
		"join right": func() (*Relation, error) { return HashJoinLocalN(rel, ragged, "a", "a", 2) },
	} {
		if out, err := op(); err == nil || err.Error() != want {
			t.Errorf("%s over a ragged relation: (%v, %v), want error %q", name, out, err, want)
		}
	}
}
