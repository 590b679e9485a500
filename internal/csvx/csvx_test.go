package csvx

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	header := []string{"a", "b", "c"}
	rows := [][]string{
		{"1", "plain", "2.5"},
		{"2", "with,comma", "x"},
		{"3", `with"quote`, "y"},
		{"4", "with\nnewline", "z"},
		{"5", "", "empty-mid"},
	}
	data := Encode(header, rows)
	h2, r2, err := Decode(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h2, header) {
		t.Errorf("header = %v", h2)
	}
	if !reflect.DeepEqual(r2, rows) {
		t.Errorf("rows = %v, want %v", r2, rows)
	}
}

func TestWriterOffsets(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	f1, l1, err := w.WriteRow([]string{"ab", "cd"}) // "ab,cd\n" bytes 0..4
	if err != nil {
		t.Fatal(err)
	}
	if f1 != 0 || l1 != 4 {
		t.Errorf("row1 range = [%d,%d], want [0,4]", f1, l1)
	}
	f2, l2, _ := w.WriteRow([]string{"x"}) // starts at 6
	if f2 != 6 || l2 != 6 {
		t.Errorf("row2 range = [%d,%d], want [6,6]", f2, l2)
	}
	// The ranges must slice the raw bytes back to the row text.
	data := sb.String()
	if data[f1:l1+1] != "ab,cd" || data[f2:l2+1] != "x" {
		t.Errorf("slicing by range broken: %q, %q", data[f1:l1+1], data[f2:l2+1])
	}
}

func TestScannerRanges(t *testing.T) {
	data := Encode(nil, [][]string{{"aa", "bb"}, {"c,c", "d"}, {"e"}})
	sc := NewScanner(data)
	var got [][2]int64
	for sc.Scan() {
		a, b := sc.Range()
		got = append(got, [2]int64{a, b})
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != 3 {
		t.Fatalf("rows = %d", len(got))
	}
	// Every range must slice to a parseable single row with same fields.
	_, rows, _ := Decode(data, false)
	for i, r := range got {
		frag := data[r[0] : r[1]+1]
		_, one, err := Decode(frag, false)
		if err != nil || len(one) != 1 {
			t.Fatalf("row %d fragment %q: %v", i, frag, err)
		}
		if !reflect.DeepEqual(one[0], rows[i]) {
			t.Errorf("row %d fragment fields = %v, want %v", i, one[0], rows[i])
		}
	}
}

func TestNoTrailingNewline(t *testing.T) {
	_, rows, err := Decode([]byte("a,b\nc,d"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[1][0] != "c" || rows[1][1] != "d" {
		t.Errorf("rows = %v", rows)
	}
}

func TestCRLF(t *testing.T) {
	_, rows, err := Decode([]byte("a,b\r\nc,d\r\n"), false)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0][1] != "b" {
		t.Errorf("rows = %v", rows)
	}
}

func TestQuotedEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`"a","b"` + "\n", []string{"a", "b"}},
		{`"a""b",c` + "\n", []string{`a"b`, "c"}},
		{`"",x` + "\n", []string{"", "x"}},
		{`a"b,c` + "\n", []string{`a"b`, "c"}}, // quote mid-field is literal
	}
	for _, c := range cases {
		_, rows, err := Decode([]byte(c.in), false)
		if err != nil {
			t.Fatalf("%q: %v", c.in, err)
		}
		if !reflect.DeepEqual(rows[0], c.want) {
			t.Errorf("Decode(%q) = %v, want %v", c.in, rows[0], c.want)
		}
	}
}

func TestUnterminatedQuote(t *testing.T) {
	sc := NewScanner([]byte(`"abc`))
	for sc.Scan() {
	}
	if sc.Err() == nil {
		t.Error("expected error for unterminated quote")
	}
}

func TestRowRanges(t *testing.T) {
	data := Encode([]string{"h1", "h2"}, [][]string{{"1", "2"}, {"3", "4"}})
	ranges, err := RowRanges(data, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 2 {
		t.Fatalf("ranges = %v", ranges)
	}
	if string(data[ranges[0][0]:ranges[0][1]+1]) != "1,2" {
		t.Errorf("first row slice = %q", data[ranges[0][0]:ranges[0][1]+1])
	}
	if string(data[ranges[1][0]:ranges[1][1]+1]) != "3,4" {
		t.Errorf("second row slice = %q", data[ranges[1][0]:ranges[1][1]+1])
	}
}

func TestEmptyInput(t *testing.T) {
	_, rows, err := Decode(nil, false)
	if err != nil || rows != nil {
		t.Errorf("empty input: %v %v", rows, err)
	}
}

// Property: encode/decode round trip for arbitrary field contents.
func TestQuickRoundTrip(t *testing.T) {
	f := func(a, b, c string) bool {
		// \r is normalized away by the scanner; exclude it from the property.
		clean := func(s string) string { return strings.ReplaceAll(s, "\r", "") }
		row := []string{clean(a), clean(b), clean(c)}
		data := Encode(nil, [][]string{row})
		_, rows, err := Decode(data, false)
		return err == nil && len(rows) == 1 && reflect.DeepEqual(rows[0], row)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: every row range slices to bytes that reparse to the same fields.
func TestQuickRangesSliceToRows(t *testing.T) {
	f := func(vals [][3]uint16) bool {
		if len(vals) == 0 {
			return true
		}
		var rows [][]string
		for _, v := range vals {
			rows = append(rows, []string{
				strings.Repeat("x", int(v[0]%7)),
				"q\"" + strings.Repeat(",", int(v[1]%3)),
				strings.Repeat("\n", int(v[2]%2)) + "z",
			})
		}
		data := Encode(nil, rows)
		ranges, err := RowRanges(data, false)
		if err != nil || len(ranges) != len(rows) {
			return false
		}
		for i, r := range ranges {
			_, one, err := Decode(data[r[0]:r[1]+1], false)
			if err != nil || len(one) != 1 || !reflect.DeepEqual(one[0], rows[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestEncodeAllocs: Encode sizes its output exactly and allocates it once.
func TestEncodeAllocs(t *testing.T) {
	header := []string{"id", "name", "note"}
	rows := [][]string{{}, {""}}
	for i := 0; i < 200; i++ {
		rows = append(rows, []string{fmt.Sprint(i), `O"Hara, "Al"`, "line\nbreak\r"})
	}
	want := len(Encode(header, rows))
	if got := cap(Encode(header, rows)); got != want {
		t.Errorf("Encode capacity %d, want exactly its length %d", got, want)
	}
	if n := testing.AllocsPerRun(20, func() { Encode(header, rows) }); n != 1 {
		t.Errorf("Encode made %v allocations, want 1", n)
	}
}
