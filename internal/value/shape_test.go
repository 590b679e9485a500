package value

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refFromCSV and refCoerceNum are FromCSV and coerceNum as they were
// before numShape: every field went through strconv.
func refFromCSV(field string) Value {
	if field == "" {
		return Null()
	}
	if LooksLikeDate(field) {
		if t, err := time.Parse("2006-01-02", field); err == nil {
			return Date(t.Unix() / 86400)
		}
	}
	if i, err := strconv.ParseInt(field, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(field, 64); err == nil {
		return Float(f)
	}
	return Str(field)
}

func refCoerceNum(v Value) (float64, bool) {
	if v.kind == KindString {
		f, err := strconv.ParseFloat(strings.TrimSpace(v.s), 64)
		return f, err == nil
	}
	return v.Num()
}

// identical compares every payload, floats bit for bit.
func identical(a, b Value) bool {
	return a.kind == b.kind && a.i == b.i && a.s == b.s &&
		math.Float64bits(a.f) == math.Float64bits(b.f)
}

// FuzzNumShape checks that the byte check before parsing never hides a
// number from strconv: whatever ParseInt or ParseFloat accepts still
// reaches it, and FromCSV and coerceNum answer exactly as they did when
// every string went through strconv.
func FuzzNumShape(f *testing.F) {
	for _, s := range []string{
		"0", "-0", "+7", "42", "9223372036854775807", "9223372036854775808",
		"-9223372036854775809", "3.14", ".5", "5.", "1e10", "1E-5", "-2.5e+3",
		"0x1p3", "0X1.8P-2", "0x_1p0", "1_000", "Inf", "-infinity", "+INF",
		"nan", "NaN", "-nan", " 5", "5 ", "N", "AIR REG", "1995-01-01",
		"1995-02-30", "25-989-741-2988", "12abc", "", "+", "-", ".", "e5",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		shape := numShape(s)
		if _, err := strconv.ParseInt(s, 10, 64); err == nil && shape != intShape {
			t.Fatalf("ParseInt accepts %q but numShape = %d", s, shape)
		}
		if _, err := strconv.ParseFloat(s, 64); err == nil && shape == notNum {
			t.Fatalf("ParseFloat accepts %q but numShape rejects it", s)
		}
		if got, want := FromCSV(s), refFromCSV(s); !identical(got, want) {
			t.Fatalf("FromCSV(%q) = %#v, want %#v", s, got, want)
		}
		gf, gok := coerceNum(Str(s))
		wf, wok := refCoerceNum(Str(s))
		if gok != wok || math.Float64bits(gf) != math.Float64bits(wf) {
			t.Fatalf("coerceNum(%q) = %v,%v, want %v,%v", s, gf, gok, wf, wok)
		}
	})
}

func TestFromCSVShapes(t *testing.T) {
	cases := []struct {
		in   string
		want Value
	}{
		{"9223372036854775807", Int(math.MaxInt64)},
		{"9223372036854775808", Float(9223372036854775808)}, // int overflow stays Float
		{"0x1p3", Float(8)},
		{"Inf", Float(math.Inf(1))},
		{"-infinity", Float(math.Inf(-1))},
		{"nan", Float(math.NaN())},
		{"1_000", Float(1000)}, // ParseFloat takes Go's digit separators; ParseInt base 10 does not
		{" 5", Str(" 5")},
		{"N", Str("N")},
		{"AIR REG", Str("AIR REG")},
		{"-0", Int(0)},
		{"1995-02-30", Str("1995-02-30")},
		{"25-989-741-2988", Str("25-989-741-2988")},
	}
	for _, c := range cases {
		if got := FromCSV(c.in); !identical(got, c.want) {
			t.Errorf("FromCSV(%q) = %#v, want %#v", c.in, got, c.want)
		}
	}
	if Compare(Str(" 5"), Int(5)) != 0 {
		t.Error(`Compare(Str(" 5"), Int(5)) != 0`)
	}
}

// TestParseDateMatchesTime pins the digit arithmetic against time.Parse
// on every day from 1900 to 2100, and on every month 00-13 / day 00-32
// combination of those years, valid or not.
func TestParseDateMatchesTime(t *testing.T) {
	check := func(s string) {
		got, gerr := ParseDate(s)
		tm, werr := time.Parse("2006-01-02", s)
		switch {
		case (gerr == nil) != (werr == nil):
			t.Fatalf("ParseDate(%q) error = %v, time.Parse error = %v", s, gerr, werr)
		case werr != nil:
			if want := fmt.Sprintf("value: bad date %q: %v", s, werr); gerr.Error() != want {
				t.Fatalf("ParseDate(%q) error = %q, want %q", s, gerr, want)
			}
		case !identical(got, Date(tm.Unix()/86400)):
			t.Fatalf("ParseDate(%q) = %d days, want %d", s, got.i, tm.Unix()/86400)
		}
	}
	for d := time.Date(1900, 1, 1, 0, 0, 0, 0, time.UTC); d.Year() <= 2100; d = d.AddDate(0, 0, 1) {
		check(d.Format("2006-01-02"))
	}
	for y := 1900; y <= 2100; y++ {
		for m := 0; m <= 13; m++ {
			for d := 0; d <= 32; d++ {
				check(fmt.Sprintf("%04d-%02d-%02d", y, m, d))
			}
		}
	}
	for _, s := range []string{
		"1995-02-30", "1995-13-01", "1995-00-10", "1900-02-29", "2000-02-29",
		"0000-02-29", "0000-03-01", "9999-12-31", "0001-01-01", "1969-12-31",
		"1995-6-01", "junk", "",
	} {
		check(s)
	}
}
