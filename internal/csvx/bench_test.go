package csvx

import (
	"fmt"
	"testing"
)

func benchData(rows int) []byte {
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			fmt.Sprint(i), "some,quoted", fmt.Sprintf("%.4f", float64(i)*1.5),
			"plain-text-field",
		}
	}
	return Encode([]string{"a", "b", "c", "d"}, data)
}

func BenchmarkScan(b *testing.B) {
	data := benchData(10000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(data)
		n := 0
		for sc.Scan() {
			n += len(sc.Fields())
		}
		if sc.Err() != nil {
			b.Fatal(sc.Err())
		}
	}
}

// lineitemLike returns rows shaped like TPC-H lineitem: 16 unquoted
// columns of keys, decimals, flags, dates and free text.
func lineitemLike(rows int) []byte {
	data := make([][]string, rows)
	for i := range data {
		data[i] = []string{
			fmt.Sprint(i / 4), fmt.Sprint(i % 2000), fmt.Sprint(i % 100), fmt.Sprint(i%7 + 1),
			fmt.Sprint(i%50 + 1), fmt.Sprintf("%.2f", float64(i%9000)*10.5), "0.04", "0.02",
			"N", "O", "1996-03-13", "1996-02-12", "1996-03-22", "DELIVER IN PERSON", "TRUCK",
			"egular courts above the",
		}
	}
	return Encode(nil, data)
}

// BenchmarkScanNarrow reads 3 of 16 columns per row, the access pattern
// of a pushed-down TPC-H predicate.
func BenchmarkScanNarrow(b *testing.B) {
	data := lineitemLike(10000)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := NewScanner(data)
		n := 0
		for sc.Scan() {
			n += len(sc.Field(4)) + len(sc.Field(5)) + len(sc.Field(10))
		}
		if sc.Err() != nil {
			b.Fatal(sc.Err())
		}
	}
}

func BenchmarkEncode(b *testing.B) {
	rows := make([][]string, 10000)
	for i := range rows {
		rows[i] = []string{fmt.Sprint(i), "x", "1.5"}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Encode([]string{"a", "b", "c"}, rows)
	}
}

func BenchmarkRowRanges(b *testing.B) {
	data := benchData(10000)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RowRanges(data, true); err != nil {
			b.Fatal(err)
		}
	}
}
