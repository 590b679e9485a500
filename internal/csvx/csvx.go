// Package csvx implements CSV encoding and decoding with exact byte-offset
// tracking. PushdownDB's index tables (Section IV-A of the paper) store the
// first and last byte offset of every data row so that individual rows can
// be fetched with ranged GET requests; the standard library csv package
// does not expose offsets, hence this implementation.
//
// The dialect is RFC-4180-ish: comma separator, \n row terminator, fields
// containing comma, quote or newline are double-quoted with "" escaping.
package csvx

import (
	"bytes"
	"fmt"
	"io"
	"strings"
)

// Writer encodes rows and tracks the byte offset of each.
type Writer struct {
	w   io.Writer
	off int64
	buf []byte
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Offset returns the byte offset the next row will start at.
func (w *Writer) Offset() int64 { return w.off }

// WriteRow writes one row and returns the inclusive byte range [first, last]
// of the row's bytes excluding the trailing newline, matching the paper's
// |value|first_byte_offset|last_byte_offset| index-table convention.
func (w *Writer) WriteRow(fields []string) (first, last int64, err error) {
	w.buf = appendRow(w.buf[:0], fields)
	rowLen := int64(len(w.buf)) - 1
	if _, err := w.w.Write(w.buf); err != nil {
		return 0, 0, err
	}
	first = w.off
	last = w.off + rowLen - 1
	w.off += rowLen + 1
	return first, last, nil
}

func appendField(buf []byte, f string) []byte {
	if !needsQuotes(f) {
		return append(buf, f...)
	}
	buf = append(buf, '"')
	for i := 0; i < len(f); i++ {
		if f[i] == '"' {
			buf = append(buf, '"', '"')
		} else {
			buf = append(buf, f[i])
		}
	}
	return append(buf, '"')
}

// Encode renders rows (with optional header) to a byte slice, sized
// exactly and allocated once.
func Encode(header []string, rows [][]string) []byte {
	n := 0
	if header != nil {
		n += rowLen(header)
	}
	for _, r := range rows {
		n += rowLen(r)
	}
	buf := make([]byte, 0, n)
	if header != nil {
		buf = appendRow(buf, header)
	}
	for _, r := range rows {
		buf = appendRow(buf, r)
	}
	return buf
}

// appendRow appends one encoded row and its newline.
func appendRow(buf []byte, fields []string) []byte {
	for i, f := range fields {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendField(buf, f)
	}
	return append(buf, '\n')
}

// rowLen is the length appendRow adds for fields.
func rowLen(fields []string) int {
	n := max(len(fields), 1) // separators and the newline
	for _, f := range fields {
		n += len(f)
		if needsQuotes(f) {
			n += 2 + strings.Count(f, `"`)
		}
	}
	return n
}

func needsQuotes(f string) bool { return strings.ContainsAny(f, ",\"\n\r") }

// Scanner iterates rows of CSV data, reporting each row's byte range.
//
// Scan only finds where each field of the row starts and ends; a field's
// string is built the first time Field or Fields asks for it, so a caller
// that reads three columns of a sixteen-column row allocates three
// strings. Every field is copied out of data rather than aliased, so a
// field kept after the scan does not pin the whole input.
type Scanner struct {
	data  []byte
	pos   int
	spans []span
	// vals[i] holds field i once spans[i].done.
	vals   []string
	fields []string
	buf    []byte
	first  int64
	last   int64
	err    error
}

// span is one field of the current row. A plain field is exactly the
// bytes data[a:b]. An escaped one (a "" escape, a \r outside quotes, or
// text around a quoted part) is decoded from a by unquote.
type span struct {
	a, b    int
	escaped bool
	done    bool
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) *Scanner { return &Scanner{data: data} }

// Scan advances to the next row, returning false at end of input or error.
func (s *Scanner) Scan() bool {
	if s.err != nil || s.pos >= len(s.data) {
		return false
	}
	s.spans = s.spans[:0]
	s.first = int64(s.pos)
	d := s.data
	line := d[s.pos:]
	if nl := bytes.IndexByte(line, '\n'); nl >= 0 {
		line = line[:nl]
	}
	if bytes.IndexByte(line, '"') < 0 && bytes.IndexByte(line, '\r') < 0 {
		// No quote can open on this line, so it is the whole row and its
		// fields are exactly the runs between commas.
		a, end := s.pos, s.pos+len(line)
		for i := a; i < end; i++ {
			if d[i] == ',' {
				s.spans = append(s.spans, span{a: a, b: i})
				a = i + 1
			}
		}
		s.spans = append(s.spans, span{a: a, b: end})
		s.last = int64(end) - 1
		s.pos = min(end+1, len(d))
		return true
	}
	for {
		end, ok := s.nextField(s.pos)
		if !ok {
			s.pos = len(d)
			s.err = fmt.Errorf("csvx: unterminated quoted field at offset %d", s.first)
			return false
		}
		if end == len(d) {
			// Final row without trailing newline.
			s.pos = end
			s.last = int64(end) - 1
			return true
		}
		s.pos = end + 1
		if d[end] == '\n' {
			s.last = int64(end) - 1
			if s.last >= 1 && d[s.last] == '\r' {
				s.last--
			}
			return true
		}
	}
}

// nextField appends the span of the field that starts at a. It returns
// the index of the byte that ends the field (',' or '\n', or len(data) at
// end of input), and false if the field leaves a quote open at end of
// input. Unquoted fields and quoted fields without escapes are found in
// one run; anything else takes the byte-at-a-time rules of unquote.
func (s *Scanner) nextField(a int) (int, bool) {
	d := s.data
	if a < len(d) && d[a] == '"' {
		if j := bytes.IndexByte(d[a+1:], '"'); j >= 0 {
			q := a + 1 + j
			if q+1 == len(d) || d[q+1] == ',' || d[q+1] == '\n' {
				s.spans = append(s.spans, span{a: a + 1, b: q})
				return q + 1, true
			}
		}
	} else {
		i := a
		for i < len(d) && d[i] != ',' && d[i] != '\n' && d[i] != '\r' {
			i++
		}
		if i == len(d) || d[i] != '\r' {
			s.spans = append(s.spans, span{a: a, b: i})
			return i, true
		}
	}
	end, buf, ok := unquote(d, a, s.buf[:0])
	s.buf = buf
	if ok {
		s.spans = append(s.spans, span{a: a, b: end, escaped: true})
	}
	return end, ok
}

// unquote applies the field rules byte by byte from a: a quote opens a
// quoted part only as the field's first data byte, "" inside quotes is a
// literal quote, and \r outside quotes is dropped. It appends the decoded
// field to buf and returns the index of the byte that ends the field, and
// false if a quote is still open at end of input.
func unquote(d []byte, a int, buf []byte) (int, []byte, bool) {
	inQuotes, hasData := false, false
	i := a
	for ; i < len(d); i++ {
		c := d[i]
		if inQuotes {
			if c == '"' {
				if i+1 < len(d) && d[i+1] == '"' {
					buf = append(buf, '"')
					i++
					continue
				}
				inQuotes = false
				continue
			}
			buf = append(buf, c)
			continue
		}
		switch c {
		case '"':
			if hasData {
				buf = append(buf, c)
			} else {
				inQuotes, hasData = true, true
			}
		case ',', '\n':
			return i, buf, true
		case '\r':
		default:
			buf = append(buf, c)
			hasData = true
		}
	}
	return i, buf, !inQuotes
}

// NumFields returns the number of fields in the current row.
func (s *Scanner) NumFields() int { return len(s.spans) }

// Field returns field i of the current row. The string is built on the
// first call for each row and reused after that.
func (s *Scanner) Field(i int) string {
	sp := &s.spans[i]
	if !sp.done {
		if len(s.vals) < len(s.spans) {
			s.vals = make([]string, len(s.spans))
		}
		if sp.escaped {
			_, s.buf, _ = unquote(s.data, sp.a, s.buf[:0])
			s.vals[i] = string(s.buf)
		} else {
			s.vals[i] = string(s.data[sp.a:sp.b])
		}
		sp.done = true
	}
	return s.vals[i]
}

// Fields returns the current row's fields; valid until the next Scan.
func (s *Scanner) Fields() []string {
	s.fields = s.fields[:0]
	for i := range s.spans {
		s.fields = append(s.fields, s.Field(i))
	}
	return s.fields
}

// Range returns the inclusive byte range of the current row (newline
// excluded).
func (s *Scanner) Range() (first, last int64) { return s.first, s.last }

// Err reports a scan error, if any.
func (s *Scanner) Err() error { return s.err }

// Decode parses all rows. If hasHeader, the first row is returned
// separately.
func Decode(data []byte, hasHeader bool) (header []string, rows [][]string, err error) {
	sc := NewScanner(data)
	for sc.Scan() {
		row := make([]string, len(sc.Fields()))
		copy(row, sc.Fields())
		if hasHeader && header == nil {
			header = row
			continue
		}
		rows = append(rows, row)
	}
	return header, rows, sc.Err()
}

// RowRanges parses data and returns the byte range of every data row
// (skipping the header when hasHeader). Index-table construction uses this.
func RowRanges(data []byte, hasHeader bool) ([][2]int64, error) {
	sc := NewScanner(data)
	var out [][2]int64
	first := true
	for sc.Scan() {
		if hasHeader && first {
			first = false
			continue
		}
		first = false
		a, b := sc.Range()
		out = append(out, [2]int64{a, b})
	}
	return out, sc.Err()
}
