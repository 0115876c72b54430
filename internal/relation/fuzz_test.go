package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// referenceRelation is what referenceReadCSV decodes: names, sniffed types
// and the values of every column, row by row.
type referenceRelation struct {
	names  []string
	types  []Type
	values [][]string
}

// referenceReadCSV is the decode ReadCSV replaced, kept as an oracle:
// encoding/csv's ReadAll into row-major records, a transpose that rejects
// ragged rows, SniffType over every row's value, then Validate. It shares
// no code with the chunked decoder but SniffType and Validate.
func referenceReadCSV(name string, data []byte) (*referenceRelation, error) {
	reader := csv.NewReader(bytes.NewReader(data))
	reader.FieldsPerRecord = -1
	records, err := reader.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("relation: reading csv %s: %w", name, err)
	}
	if len(records) == 0 {
		return nil, fmt.Errorf("relation: csv %s is empty", name)
	}
	header, rows := records[0], records[1:]
	ref := &referenceRelation{names: header}
	cols := make([]Column, len(header))
	for ci := range header {
		raw := make([]string, len(rows))
		for ri, row := range rows {
			if len(row) != len(header) {
				return nil, fmt.Errorf("relation: row %d has %d fields, expected %d", ri, len(row), len(header))
			}
			raw[ri] = row[ci]
		}
		ref.types = append(ref.types, SniffType(raw))
		ref.values = append(ref.values, raw)
		cols[ci] = Column{Name: header[ci]}
	}
	if err := New(name, cols...).Validate(); err != nil {
		return nil, err
	}
	return ref, nil
}

// fuzzChunkCounts are the chunk counts FuzzReadCSV decodes every input with;
// small inputs split only because these bypass ReadCSV's size floor.
var fuzzChunkCounts = []int{1, 2, 3, 5}

// FuzzReadCSV drives the CSV decode path — the only place untrusted bytes
// enter the system (odserve uploads, CLI file loads) — with hostile input,
// and differences it against referenceReadCSV. The properties under test:
//
//  1. at every chunk count, the decode either matches the reference on
//     names, types and every value, or fails with the reference's error
//     text (so line, column, row and precedence all match), and never
//     panics;
//  2. an input the reference accepts decodes without the one-chunk retry,
//     so every cut fell on a record boundary;
//  3. an accepted relation survives a write/read round trip with its shape
//     intact (the writer quotes whatever the reader accepted).
//
// The checked-in corpus under testdata/fuzz/FuzzReadCSV covers the known
// nasty classes — hostile header names, ragged rows, quoted fields spanning
// lines, and invalid UTF-8 — so `go test` replays them even when no fuzzing
// budget is spent. The seeds added here put quoted newlines, escaped quotes,
// CRLF and blank lines and ragged rows where the chunk counts above cut.
func FuzzReadCSV(f *testing.F) {
	f.Add([]byte("a,b\n1,2\n"))
	f.Add([]byte("a,b\n1\n1,2,3\n"))                                               // ragged rows
	f.Add([]byte("\"a\nb\",c\n\"x,y\",z\n"))                                       // newline and comma inside quotes
	f.Add([]byte("a,a\n1,2\n"))                                                    // duplicate header
	f.Add([]byte(",\n,\n"))                                                        // empty names and fields
	f.Add([]byte("a\xff\xfe,b\n\x80,2\n"))                                         // invalid UTF-8
	f.Add([]byte("a,b\n\"" + string(bytes.Repeat([]byte("x"), 1<<12)) + "\",2\n")) // huge quoted field
	f.Add([]byte("a,b\r\n1,2\r\n"))                                                // CRLF endings
	f.Add([]byte("\xef\xbb\xbfa,b\n1,2\n"))                                        // BOM in header
	f.Add([]byte("a,b\n\"unterminated,2\n"))                                       // unterminated quote
	f.Add([]byte("a,b\n1,2\n\"x\ny\",3\n4,5\n\"p\nq\nr\",6\n7,8\n"))               // quoted newlines at the cuts
	f.Add([]byte("a,b\n1,\"a\"\"\nb\"\n\"\"\"\",2\n3,\"\"\"\n\"\"\"\n4,5\n"))      // "" escapes at the cuts
	f.Add([]byte("a,b\r\n1,2\r\n\r\n\n3,4\r\n\r\n5,6\r\n\n\n7,8\r\n"))             // CRLF and blank lines at the cuts
	f.Add([]byte("a,b\n1,2\n3,4\n5,6\n7\n8,9\n1,2\n3,x\"y\n"))                     // ragged row, then a bare quote
	f.Add([]byte("a,b\n1,2\n3,4\n5,6\n7,8\n9\n1,2\n"))                             // ragged row in a later chunk
	f.Add([]byte("\xef\xbb\xbfa,b\n1,2\n3,4\n5,6\n7,8\n"))                         // BOM header, split body
	f.Add([]byte("a,b\n"))                                                         // header only
	f.Add([]byte(""))                                                              // empty input

	f.Fuzz(func(t *testing.T, data []byte) {
		want, wantErr := referenceReadCSV("fuzz", data)
		for _, chunks := range fuzzChunkCounts {
			rel, retried, err := decodeCSV("fuzz", data, chunks)
			if wantErr != nil {
				if err == nil || err.Error() != wantErr.Error() {
					t.Fatalf("%d chunks: error %v, reference %v\ninput: %q", chunks, err, wantErr, data)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%d chunks: %v, reference accepts\ninput: %q", chunks, err, data)
			}
			if retried {
				t.Fatalf("%d chunks: accepted input needed the one-chunk retry\ninput: %q", chunks, data)
			}
			if msg := diffReference(rel, want); msg != "" {
				t.Fatalf("%d chunks: %s\ninput: %q", chunks, msg, data)
			}
		}
		if wantErr != nil {
			return // rejected input is fine; panicking on it is not
		}
		rel, err := ReadCSV("fuzz", bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadCSV: %v, reference accepts\ninput: %q", err, data)
		}
		var buf bytes.Buffer
		if err := WriteCSV(rel, &buf); err != nil {
			t.Fatalf("accepted relation fails WriteCSV: %v\ninput: %q", err, data)
		}
		again, err := ReadCSV("fuzz-roundtrip", &buf)
		if err != nil {
			t.Fatalf("round trip fails to re-read: %v\ninput: %q", err, data)
		}
		// Shape, not content: encoding/csv normalizes \r\n to \n inside
		// quoted fields, so bytes may differ — rows and columns may not.
		if again.NumRows() != rel.NumRows() || again.NumCols() != rel.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d\ninput: %q",
				rel.NumRows(), rel.NumCols(), again.NumRows(), again.NumCols(), data)
		}
		// Column names must round-trip exactly when valid UTF-8 (the writer
		// emits them verbatim).
		for i, name := range rel.ColumnNames() {
			if utf8.ValidString(name) && again.ColumnNames()[i] != name {
				t.Fatalf("column %d name changed: %q -> %q", i, name, again.ColumnNames()[i])
			}
		}
	})
}

// diffReference describes the first difference between a decoded relation
// and the reference's, or returns "" when they agree on names, types and
// every value.
func diffReference(rel *Relation, want *referenceRelation) string {
	if !slices.Equal(rel.ColumnNames(), want.names) {
		return fmt.Sprintf("names %q, reference %q", rel.ColumnNames(), want.names)
	}
	for ci, col := range rel.Columns {
		if col.Type != want.types[ci] {
			return fmt.Sprintf("column %d type %v, reference %v", ci, col.Type, want.types[ci])
		}
		if col.Len() != len(want.values[ci]) {
			return fmt.Sprintf("column %d has %d rows, reference %d", ci, col.Len(), len(want.values[ci]))
		}
		for i, v := range want.values[ci] {
			if col.Value(i) != v {
				return fmt.Sprintf("column %d row %d is %q, reference %q", ci, i, col.Value(i), v)
			}
		}
	}
	return ""
}

// TestReadCSVSplitsLargeInput checks the chunked decode on inputs past
// ReadCSV's size floor, with quoted newlines throughout: it must match the
// reference, without a retry, at every chunk count.
func TestReadCSVSplitsLargeInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("id,note,score\n")
	for i := 0; i < 20000; i++ {
		switch i % 7 {
		case 0:
			fmt.Fprintf(&b, "%d,\"line one\nline \"\"two\"\"\",%d\n", i, i%13)
		case 3:
			fmt.Fprintf(&b, "%d,,%d.5\r\n", i, i%5)
		default:
			fmt.Fprintf(&b, "%d,note %d,%d\n", i, i%97, i%13)
		}
	}
	data := []byte(b.String())
	if len(data) < 4*minChunkBytes {
		t.Fatalf("input is %d bytes, too small to split under the floor", len(data))
	}
	want, err := referenceReadCSV("big", data)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunks := range []int{1, 2, 4, 7} {
		rel, retried, err := decodeCSV("big", data, chunks)
		if err != nil || retried {
			t.Fatalf("%d chunks: err %v, retried %v", chunks, err, retried)
		}
		if msg := diffReference(rel, want); msg != "" {
			t.Fatalf("%d chunks: %s", chunks, msg)
		}
	}
	rel, err := ReadCSV("big", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if msg := diffReference(rel, want); msg != "" {
		t.Fatalf("ReadCSV: %s", msg)
	}
}

// TestReadCSVErrorsMatchReference pins the error text of malformed inputs
// large enough to split, where a chunk sees the failure first: the line and
// column of a parse error, the row of a ragged row, and a parse error's
// precedence over an earlier ragged row.
func TestReadCSVErrorsMatchReference(t *testing.T) {
	rows := strings.Repeat("1,\"two\nlines\"\n", 6000)
	cases := map[string]string{
		"bare quote late":      "a,b\n" + rows + "3,x\"y\n" + rows,
		"ragged row late":      "a,b\n" + rows + "3\n" + rows,
		"ragged then bad":      "a,b\n" + rows + "3\n" + rows + "4,x\"y\n",
		"unterminated at end":  "a,b\n" + rows + "\"open,1\n",
		"duplicate header big": "a,a\n" + rows,
	}
	for name, in := range cases {
		_, wantErr := referenceReadCSV("bad", []byte(in))
		if wantErr == nil {
			t.Fatalf("%s: reference accepts the input", name)
		}
		for _, chunks := range []int{1, 2, 3} {
			_, _, err := decodeCSV("bad", []byte(in), chunks)
			if err == nil || err.Error() != wantErr.Error() {
				t.Errorf("%s, %d chunks: error %v, reference %v", name, chunks, err, wantErr)
			}
		}
		if _, err := ReadCSV("bad", strings.NewReader(in)); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("%s, ReadCSV: error %v, reference %v", name, err, wantErr)
		}
	}
}
