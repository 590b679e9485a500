package selectengine

import (
	"fmt"
	"strings"
	"testing"

	"pushdowndb/internal/csvx"
)

// wideCSV is a 16-column object shaped like lineitem: keys, small ints,
// decimals, text, a date, a quoted field with a comma on every tenth row,
// and a last column that is empty on every row.
func wideCSV(rows int, header bool) []byte {
	var h []string
	if header {
		for c := 0; c < 16; c++ {
			h = append(h, fmt.Sprintf("c%d", c))
		}
	}
	data := make([][]string, rows)
	for i := range data {
		note := "plain note"
		if i%10 == 0 {
			note = "quoted, note"
		}
		data[i] = []string{
			fmt.Sprint(i), fmt.Sprint(i % 7), fmt.Sprintf("%.2f", float64(i)*1.25),
			fmt.Sprintf("name-%04d", i), fmt.Sprint(i % 50), note,
			"1995-03-15", "R", "O", fmt.Sprintf("%.2f", float64(i%11)/100),
			"DELIVER IN PERSON", "TRUCK", strings.Repeat("x", i%5), fmt.Sprint(i * 3),
			"N", "",
		}
	}
	return csvx.Encode(h, data)
}

// pinnedStats is the part of Stats the cost model reads from a CSV scan.
type pinnedStats struct {
	BytesScanned, RowsScanned, CellsDecoded, RowsReturned, BytesReturned int64
}

// TestCSVStatsPinned hard-codes the Stats of representative CSV Selects.
// Fields are materialized lazily, but the accounting must not notice:
// CellsDecoded charges every column of every scanned row (the paper's CSV
// cost model), and a LIMIT or ScanRange charges only the bytes it read.
func TestCSVStatsPinned(t *testing.T) {
	wide := wideCSV(1000, true)
	bare := wideCSV(40, false)
	cases := []struct {
		name   string
		data   []byte
		req    Request
		want   pinnedStats
		result string // first result row, comma-joined
	}{
		{
			name:   "narrow projection",
			data:   wide,
			req:    Request{SQL: "SELECT c3 FROM S3Object WHERE c1 = 3", HasHeader: true},
			want:   pinnedStats{91884, 1000, 16000, 143, 1430},
			result: "name-0003",
		},
		{
			name:   "limit ends the scan",
			data:   wide,
			req:    Request{SQL: "SELECT c0, c5 FROM S3Object WHERE c4 > 40 LIMIT 5", HasHeader: true},
			want:   pinnedStats{4099, 46, 736, 5, 70},
			result: "41,plain note",
		},
		{
			name: "scan range",
			data: wide,
			req: Request{SQL: "SELECT c0, c2 FROM S3Object WHERE c2 >= 100", HasHeader: true,
				ScanRange: &ScanRange{Start: 5000, End: 9000}},
			want:   pinnedStats{4029, 44, 704, 21, 211},
			result: "80,100.00",
		},
		{
			name:   "positional names",
			data:   wide,
			req:    Request{SQL: "SELECT _1, _16, _6 FROM S3Object WHERE _2 = 0 AND _14 < 100", HasHeader: true},
			want:   pinnedStats{91884, 1000, 16000, 5, 75},
			result: "0,,quoted, note",
		},
		{
			name:   "select star with limit",
			data:   wide,
			req:    Request{SQL: "SELECT * FROM S3Object WHERE c0 >= 990 LIMIT 3", HasHeader: true},
			want:   pinnedStats{91229, 993, 15888, 3, 278},
			result: "990,3,1237.50,name-0990,40,quoted, note,1995-03-15,R,O,0.00,DELIVER IN PERSON,TRUCK,,2970,N,",
		},
		{
			// Without a header, * expands to each row's own fields, as
			// S3 Select does.
			name:   "header-less select star",
			data:   bare,
			req:    Request{SQL: "SELECT * FROM S3Object"},
			want:   pinnedStats{3510, 40, 640, 40, 3502},
			result: "0,0,0.00,name-0000,0,quoted, note,1995-03-15,R,O,0.00,DELIVER IN PERSON,TRUCK,,0,N,",
		},
		{
			name:   "header-less positional names",
			data:   bare,
			req:    Request{SQL: "SELECT _1, _4 FROM S3Object WHERE _2 = 1 AND _17 IS NULL"},
			want:   pinnedStats{3510, 40, 640, 6, 76},
			result: "1,name-0001",
		},
		{
			name:   "header-less count",
			data:   bare,
			req:    Request{SQL: "SELECT COUNT(*) FROM S3Object"},
			want:   pinnedStats{3510, 40, 640, 1, 3},
			result: "40",
		},
	}
	for _, c := range cases {
		res, err := Execute(c.data, c.req)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s := res.Stats
		got := pinnedStats{s.BytesScanned, s.RowsScanned, s.CellsDecoded, s.RowsReturned, s.BytesReturned}
		first := ""
		if len(res.Rows) > 0 {
			first = strings.Join(res.Rows[0], ",")
		}
		if got != c.want || first != c.result {
			t.Errorf("%s: stats = pinnedStats{%d, %d, %d, %d, %d}, first row %q; want %+v, %q",
				c.name, got.BytesScanned, got.RowsScanned, got.CellsDecoded, got.RowsReturned, got.BytesReturned,
				first, c.want, c.result)
		}
	}

	// Without a header, * names its columns by position, as wide as the
	// widest row; with one, positional names stop at the header's width.
	res, err := Execute(bare, Request{SQL: "SELECT * FROM S3Object LIMIT 1"})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(res.Columns, ","); got != "_1,_2,_3,_4,_5,_6,_7,_8,_9,_10,_11,_12,_13,_14,_15,_16" {
		t.Errorf("header-less * columns = %s", got)
	}
	if _, err := Execute(wide, Request{SQL: "SELECT _17 FROM S3Object", HasHeader: true}); err == nil ||
		!strings.Contains(err.Error(), "unknown column _17") {
		t.Errorf("_17 past a 16-column header: err = %v, want unknown column", err)
	}
}

// TestCSVScanAllocs gates the lazy field path by allocation count, which,
// unlike wall time, does not drift with the machine. Over a 1,000-row ×
// 16-column object, a WHERE that rejects every row may materialize only
// its predicate column, never the other fifteen.
func TestCSVScanAllocs(t *testing.T) {
	data := wideCSV(1000, true)
	allocs := func(sql string) float64 {
		req := Request{SQL: sql, HasHeader: true}
		return testing.AllocsPerRun(5, func() {
			if _, err := Execute(data, req); err != nil {
				t.Fatal(err)
			}
		})
	}
	// c15 is empty on every row, so there is nothing to build: rejecting
	// all rows costs what parsing the request and the header costs.
	if n := allocs("SELECT * FROM S3Object WHERE c15 IS NOT NULL"); n > 200 {
		t.Errorf("rejecting 1000 rows on an empty column: %.0f allocs, want O(1) (<= 200)", n)
	}
	// c3 is never empty: each rejected row builds that one field.
	if n := allocs("SELECT * FROM S3Object WHERE c3 = 'none'"); n > 1000+200 {
		t.Errorf("rejecting 1000 rows on one column: %.0f allocs, want <= one per row + 200", n)
	}
}
