package csvx

import (
	"fmt"
	"strings"
	"testing"
)

// refScanner is the byte-at-a-time scanner the run-based Scanner replaced,
// kept verbatim as the reference FuzzScanDiff compares against.
type refScanner struct {
	data   []byte
	pos    int64
	fields []string
	first  int64
	last   int64
	err    error
}

func (s *refScanner) Scan() bool {
	if s.err != nil || s.pos >= int64(len(s.data)) {
		return false
	}
	s.fields = s.fields[:0]
	s.first = s.pos
	var field strings.Builder
	inQuotes := false
	fieldHasData := false
	flush := func() {
		s.fields = append(s.fields, field.String())
		field.Reset()
		fieldHasData = false
	}
	for s.pos < int64(len(s.data)) {
		c := s.data[s.pos]
		if inQuotes {
			if c == '"' {
				if s.pos+1 < int64(len(s.data)) && s.data[s.pos+1] == '"' {
					field.WriteByte('"')
					s.pos += 2
					continue
				}
				inQuotes = false
				s.pos++
				continue
			}
			field.WriteByte(c)
			s.pos++
			continue
		}
		switch c {
		case '"':
			if !fieldHasData {
				inQuotes = true
				fieldHasData = true
			} else {
				field.WriteByte(c)
			}
			s.pos++
		case ',':
			flush()
			s.pos++
		case '\r':
			s.pos++
		case '\n':
			s.last = s.pos - 1
			if s.last >= 1 && s.data[s.last] == '\r' {
				s.last--
			}
			s.pos++
			flush()
			return true
		default:
			field.WriteByte(c)
			fieldHasData = true
			s.pos++
		}
	}
	if inQuotes {
		s.err = fmt.Errorf("csvx: unterminated quoted field at offset %d", s.first)
		return false
	}
	// Final row without trailing newline.
	s.last = int64(len(s.data)) - 1
	flush()
	return true
}

// FuzzScanDiff requires the run-based Scanner to agree with the reference
// byte-at-a-time scanner after every Scan: the same result, fields, byte
// range and error, and Field(i) equal to Fields()[i]. Odd rows read their
// fields through Field first, in reverse, so the lazy path is checked
// before Fields caches the row.
func FuzzScanDiff(f *testing.F) {
	seeds := []string{
		"a,b,c\n1,2,3\n",
		"ab\rc,d\n",             // \r inside an unquoted run
		"a\r,\rb\r\n\r\"q\"\n",  // \r around fields and before a quote
		"a\"b,c\"d\"\n",         // quotes in the middle of a field
		"\"x\"tail,\"y\" z\n",   // text after a closing quote
		"\"a\"\"b\",\"\"\"\"\n", // "" escapes
		"\r\n",                  // a CRLF-only line
		"\r\n\r\n",
		"ok,\"open",     // unterminated quote
		"1,2\n\"3,4",    // unterminated quote on a later row
		"x,y\nlast,row", // final row with no trailing newline
		"\"q,\nx\",y",   // quoted comma and newline, no trailing newline
		"\n\n,\n",
		"",
		"\"",
		"a,\"\"",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref := &refScanner{data: data}
		sc := NewScanner(data)
		for row := 0; ; row++ {
			want := ref.Scan()
			got := sc.Scan()
			if got != want {
				t.Fatalf("row %d: Scan = %v, want %v (input %q)", row, got, want, data)
			}
			if row%2 == 1 {
				for i := sc.NumFields() - 1; i >= 0; i-- {
					if i >= len(ref.fields) || sc.Field(i) != ref.fields[i] {
						t.Fatalf("row %d: Field(%d) disagrees with %q (input %q)", row, i, ref.fields, data)
					}
				}
			}
			fields := sc.Fields()
			if len(fields) != len(ref.fields) {
				t.Fatalf("row %d: Fields = %q, want %q (input %q)", row, fields, ref.fields, data)
			}
			for i := range fields {
				if fields[i] != ref.fields[i] || sc.Field(i) != fields[i] {
					t.Fatalf("row %d: Fields = %q, Field(%d) = %q, want %q (input %q)",
						row, fields, i, sc.Field(i), ref.fields, data)
				}
			}
			if a, b := sc.Range(); a != ref.first || b != ref.last {
				t.Fatalf("row %d: Range = [%d,%d], want [%d,%d] (input %q)", row, a, b, ref.first, ref.last, data)
			}
			if fmt.Sprint(sc.Err()) != fmt.Sprint(ref.err) {
				t.Fatalf("row %d: Err = %v, want %v (input %q)", row, sc.Err(), ref.err, data)
			}
			if !want {
				return
			}
		}
	})
}
