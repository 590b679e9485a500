package vec_test

import (
	"fmt"
	"testing"

	"pushdowndb/internal/sqlparse"
	"pushdowndb/internal/value"
	"pushdowndb/internal/vec"
)

// The differential battery: every kernel must agree with the naive oracle
// (oracle_test.go) byte-for-byte on data that exercises the value layer's
// coercion corners — NULLs, NaN, dates, numeric-looking strings, space
// padding, and mixed-kind (boxed) columns — at several worker counts,
// including counts that split rows mid-word.

var workerCounts = []int{1, 2, 3, 7}

// nastyData builds a CSV-shaped table:
//
//	id    dense ints 1..n
//	qty   ints with NULLs
//	price floats with NaN and NULLs
//	ship  dates with NULLs
//	flag  pure strings (typed string vector)
//	name  strings mixed with numeric-looking cells (boxed vector)
//	mix   alternating int/float/string (boxed vector)
func nastyData() ([]string, [][]string) {
	cols := []string{"id", "qty", "price", "ship", "flag", "name", "mix"}
	seed := uint64(42)
	next := func(m int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int((seed >> 33) % uint64(m))
	}
	dates := []string{"1993-12-31", "1994-03-15", "1994-07-01", "1995-01-01", "1996-10-09"}
	flags := []string{"A", "R", "N", "a"}
	names := []string{"item alpha", "item beta", "ITEM gamma", " 7", "7", "00501", "", "naNish"}
	var rows [][]string
	for i := 0; i < 137; i++ {
		qty := ""
		if next(10) != 0 {
			qty = fmt.Sprint(next(50))
		}
		var price string
		switch next(12) {
		case 0:
			price = "NaN"
		case 1:
			price = ""
		default:
			price = fmt.Sprintf("%d.%02d", next(900), next(100))
		}
		ship := ""
		if next(8) != 0 {
			ship = dates[next(len(dates))]
		}
		var mix string
		switch i % 3 {
		case 0:
			mix = fmt.Sprint(next(5))
		case 1:
			mix = fmt.Sprintf("%d.5", next(5))
		default:
			mix = "x" + fmt.Sprint(next(5))
		}
		rows = append(rows, []string{
			fmt.Sprint(i + 1), qty, price, ship,
			flags[next(len(flags))], names[next(len(names))], mix,
		})
	}
	return cols, rows
}

// sameVal is the byte-identity check: same kind, same rendered form.
// (Compare would call " 7" and "7" equal; the renderer does not.)
func sameVal(a, b value.Value) bool {
	return a.Kind() == b.Kind() && a.String() == b.String()
}

func sameErr(t *testing.T, label string, want, got error) bool {
	t.Helper()
	if (want != nil) != (got != nil) {
		t.Errorf("%s: oracle err=%v vec err=%v", label, want, got)
		return false
	}
	if want != nil {
		if want.Error() != got.Error() {
			t.Errorf("%s: oracle err=%q vec err=%q", label, want, got)
		}
		return false
	}
	return true
}

func TestFromStringsDiff(t *testing.T) {
	cols, srows := nastyData()
	want := typed(cols, srows)
	for _, w := range workerCounts {
		b, err := vec.FromStrings(cols, srows, w)
		if err != nil {
			t.Fatalf("w=%d: FromStrings refused rectangular data: %v", w, err)
		}
		if b.Len() != len(want.rows) || len(b.Vecs) != len(cols) {
			t.Fatalf("w=%d: shape %dx%d want %dx%d", w, b.Len(), len(b.Vecs), len(want.rows), len(cols))
		}
		for i := range want.rows {
			for c := range cols {
				if wv, gv := want.rows[i][c], b.Vecs[c].Value(i); !sameVal(wv, gv) {
					t.Fatalf("w=%d: cell[%d][%s]: oracle=%#v vec=%#v", w, i, cols[c], wv, gv)
				}
			}
		}
	}
	// A batch has one length per column, so ragged rows are an error.
	ragged := [][]string{{"1", "2"}, {"3"}}
	if _, err := vec.FromStrings([]string{"a", "b"}, ragged, 2); err == nil {
		t.Fatalf("ragged rows vectorized")
	}
}

func TestFilterDiff(t *testing.T) {
	cols, srows := nastyData()
	preds := []string{
		// compiled comparisons, typed fast paths
		"qty > 24",
		"qty >= 24 AND qty <= 30",
		"price < 100.5 OR price > 800",
		"price = 'NaN'",
		"ship >= '1994-01-01' AND ship < '1995-01-01'",
		"ship = '1994-03-15'",
		"flag = 'A' OR flag = 'R'",
		"flag <> 'a'",
		"name = '7'",
		"name = ' 7'",
		// compiled BETWEEN / IN / IS NULL / LIKE / NOT
		"qty BETWEEN 10 AND 40",
		"qty NOT BETWEEN 10 AND 40",
		"flag IN ('A', 'N')",
		"flag NOT IN ('A', 'N')",
		"qty IS NULL",
		"qty IS NOT NULL AND price > 1",
		"name LIKE 'item%'",
		"name NOT LIKE '%a'",
		"flag LIKE '_'",
		"NOT (flag = 'A')",
		// boxed columns and column-vs-column
		"mix > 2",
		"mix = '1.5'",
		"id = mix",
		"name > flag",
		// constants
		"1 = 1",
		"1 = 0 OR flag = 'A'",
		// fallback shapes (arithmetic, a per-row LIKE pattern)
		"qty + 1 > 25",
		"id - 1 < 100 AND qty > 24",
		"name LIKE flag",
	}
	tbl := typed(cols, srows)
	for _, w := range workerCounts {
		b, _ := vec.FromStrings(cols, srows, w)
		for _, pred := range preds {
			label := fmt.Sprintf("w=%d pred=%q", w, pred)
			pe, perr := sqlparse.ParseExpr(pred)
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			want, wantErr := oracleFilter(tbl, pe)
			idx, gotErr := vec.Filter(b, pe, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			if fmt.Sprint(idx) != fmt.Sprint(want) {
				t.Errorf("%s: kept rows %v, oracle kept %v", label, idx, want)
			}
		}
	}
}

func TestFilterErrDiff(t *testing.T) {
	cols, srows := nastyData()
	b, _ := vec.FromStrings(cols, srows, 3)
	// NOT over a non-boolean column errors in the evaluator; the kernel
	// must surface the error of the first failing row.
	pe, err := sqlparse.ParseExpr("NOT name")
	if err != nil {
		t.Fatal(err)
	}
	_, wantErr := oracleFilter(typed(cols, srows), pe)
	_, gotErr := vec.Filter(b, pe, 3)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("oracle err=%v vec err=%v", wantErr, gotErr)
	}
}

func TestProjectDiff(t *testing.T) {
	cols, srows := nastyData()
	itemLists := []string{
		"*",
		"id, flag",
		"flag AS f, qty",
		"id, qty + 1 AS q1, price * 2 AS p2",
		"'x' AS lit, id",
		"ship, mix, name",
	}
	tbl := typed(cols, srows)
	for _, w := range workerCounts {
		b, _ := vec.FromStrings(cols, srows, w)
		for _, items := range itemLists {
			label := fmt.Sprintf("w=%d items=%q", w, items)
			sel, perr := sqlparse.Parse("SELECT " + items + " FROM t")
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			wantCols, wantRows, wantErr := oracleProject(tbl, sel)
			out, gotErr := vec.Project(b, sel, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			sameRows(t, label, wantCols, wantRows, out.Cols, out.ToRows())
		}
	}
}

func TestGroupByDiff(t *testing.T) {
	cols, srows := nastyData()
	cases := []struct{ groupBy, items string }{
		{"flag", "flag, COUNT(*) AS n, SUM(qty) AS sq, AVG(price) AS ap, MIN(name) AS mn, MAX(ship) AS mx"},
		{"flag, ship", "flag, ship, COUNT(*) AS n, SUM(price) AS sp"},
		{"qty", "qty, COUNT(*) AS n"},
		{"mix", "mix, SUM(id) AS s"},
		{"flag", "flag, SUM(qty + 1) AS s1, AVG(qty) AS aq"},
	}
	tbl := typed(cols, srows)
	for _, w := range workerCounts {
		b, _ := vec.FromStrings(cols, srows, w)
		for _, tc := range cases {
			label := fmt.Sprintf("w=%d group=%q items=%q", w, tc.groupBy, tc.items)
			sel, perr := sqlparse.Parse("SELECT " + tc.items + " FROM t GROUP BY " + tc.groupBy)
			if perr != nil {
				t.Fatalf("%s: parse: %v", label, perr)
			}
			wantCols, wantRows, wantErr := oracleGroupBy(tbl, sel)
			gotCols, gotRows, gotErr := vec.GroupBy(b, sel, w)
			if !sameErr(t, label, wantErr, gotErr) {
				continue
			}
			sameRows(t, label, wantCols, wantRows, gotCols, gotRows)
		}
	}
}

func TestJoinPairsDiff(t *testing.T) {
	cols, srows := nastyData()
	rcols := []string{"rid", "tag"}
	var rrows [][]string
	for i := 0; i < 53; i++ {
		rid := fmt.Sprint(i * 3 % 140) // overlaps id range, with misses
		switch i % 7 {
		case 0:
			rid = "" // NULL key: never joins
		case 1:
			rid = fmt.Sprint(i % 9) // duplicate keys
		case 2:
			rid = "x" + fmt.Sprint(i) // string key
		}
		rrows = append(rrows, []string{rid, fmt.Sprintf("tag%d", i)})
	}
	left, right := typed(cols, srows), typed(rcols, rrows)
	for _, w := range workerCounts {
		lb, _ := vec.FromStrings(cols, srows, w)
		rb, _ := vec.FromStrings(rcols, rrows, w)
		for _, key := range []string{"id", "mix"} {
			label := fmt.Sprintf("w=%d key=%s", w, key)
			wantB, wantP := oracleJoin(left.column(lb.ColIndex(key)), right.column(0))
			bi, pi := vec.JoinPairs(lb.Vecs[lb.ColIndex(key)], rb.Vecs[rb.ColIndex("rid")], w)
			if fmt.Sprint(bi, pi) != fmt.Sprint(wantB, wantP) {
				t.Errorf("%s: pairs %v %v, oracle %v %v", label, bi, pi, wantB, wantP)
			}
		}
	}
}

func TestEmptyRelations(t *testing.T) {
	cols := []string{"a", "b"}
	b, err := vec.FromStrings(cols, nil, 3)
	if err != nil || b.Len() != 0 {
		t.Fatalf("empty FromStrings: err=%v len=%d", err, b.Len())
	}
	pe, _ := sqlparse.ParseExpr("a > 1")
	idx, err := vec.Filter(b, pe, 3)
	if err != nil || len(idx) != 0 {
		t.Fatalf("empty filter: idx=%v err=%v", idx, err)
	}
	sel, _ := sqlparse.Parse("SELECT a, COUNT(*) AS n FROM t GROUP BY a")
	wantCols, wantRows, _ := oracleGroupBy(table{cols: cols}, sel)
	gotCols, gotRows, err := vec.GroupBy(b, sel, 3)
	if err != nil {
		t.Fatal(err)
	}
	sameRows(t, "empty group-by", wantCols, wantRows, gotCols, gotRows)
}

// sameRows fails unless the kernel's output has the oracle's columns and
// byte-identical rows in the same order.
func sameRows(t *testing.T, label string, wantCols []string, want [][]value.Value, gotCols []string, got [][]value.Value) {
	t.Helper()
	if fmt.Sprint(gotCols) != fmt.Sprint(wantCols) {
		t.Errorf("%s: cols %v want %v", label, gotCols, wantCols)
		return
	}
	if len(got) != len(want) {
		t.Errorf("%s: %d rows want %d", label, len(got), len(want))
		return
	}
	for i := range got {
		for c := range wantCols {
			if !sameVal(want[i][c], got[i][c]) {
				t.Fatalf("%s: cell[%d][%s]: oracle=%#v vec=%#v", label, i, wantCols[c], want[i][c], got[i][c])
			}
		}
	}
}
