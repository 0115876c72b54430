package relation

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"runtime"
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
// and differences it against referenceReadCSV, which is encoding/csv. Only
// the byte scanner accepts input, so this is what trusts it. The properties
// under test:
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
// CRLF and blank lines and ragged rows where the chunk counts above cut,
// and stand at each edge of the scanner's grammar: \r before a line end, at
// the end of input and inside a field, quotes closed, doubled and bare.
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
	f.Add([]byte("a,b\r\n1,\"x\"\r\n\"y\",2\r\n"))                                 // closing quote before \r\n
	f.Add([]byte("a,b\n1,2\n3,4\r"))                                               // lone \r at the end, unquoted field
	f.Add([]byte("a,b\n1,2\n3,\"4\"\r"))                                           // lone \r at the end, quoted field
	f.Add([]byte("a,b\n1,2\r\r\n3,4\n"))                                           // \r\r\n
	f.Add([]byte("a,b\n1\r2,3\n4,\r5\n"))                                          // \r inside unquoted fields
	f.Add([]byte("a,b\n1,2\n3,\"\""))                                              // empty quoted last field, no newline
	f.Add([]byte("a,b\n1,\"x\r\n\r\ny\"\n2,3\n"))                                  // quoted field spanning \r\n and a blank line
	f.Add([]byte("a,b\n\"a\"\"b\",1\n\"a\"b,2\n"))                                 // "a""b" next to "a"b
	f.Add([]byte("a,b\n1,2\n3,x\"y"))                                              // bare quote in the last field, no newline

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
// ReadCSV's size floor, with quoted newlines throughout, one of them with
// every field quoted and CRLF line ends: each must match the reference,
// without a retry, at every chunk count.
func TestReadCSVSplitsLargeInput(t *testing.T) {
	var plain, quoted strings.Builder
	plain.WriteString("id,note,score\n")
	quoted.WriteString("\"id\",\"note\",\"score\"\r\n")
	for i := 0; i < 20000; i++ {
		switch i % 7 {
		case 0:
			fmt.Fprintf(&plain, "%d,\"line one\nline \"\"two\"\"\",%d\n", i, i%13)
			fmt.Fprintf(&quoted, "\"%d\",\"line one\r\nline \"\"two\"\"\",\"%d\"\r\n", i, i%13)
		case 3:
			fmt.Fprintf(&plain, "%d,,%d.5\r\n", i, i%5)
			fmt.Fprintf(&quoted, "\"%d\",\"\",\"%d.5\"\r\n", i, i%5)
		default:
			fmt.Fprintf(&plain, "%d,note %d,%d\n", i, i%97, i%13)
			fmt.Fprintf(&quoted, "\"%d\",\"note %d\",\"%d\"\r\n", i, i%97, i%13)
		}
	}
	for _, in := range []struct {
		name string
		data []byte
	}{{"plain", []byte(plain.String())}, {"quoted", []byte(quoted.String())}} {
		if len(in.data) < 4*minChunkBytes {
			t.Fatalf("%s: input is %d bytes, too small to split under the floor", in.name, len(in.data))
		}
		want, err := referenceReadCSV("big", in.data)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunks := range []int{1, 2, 4, 7} {
			rel, retried, err := decodeCSV("big", in.data, chunks)
			if err != nil || retried {
				t.Fatalf("%s, %d chunks: err %v, retried %v", in.name, chunks, err, retried)
			}
			if msg := diffReference(rel, want); msg != "" {
				t.Fatalf("%s, %d chunks: %s", in.name, chunks, msg)
			}
		}
		rel, err := ReadCSV("big", bytes.NewReader(in.data))
		if err != nil {
			t.Fatal(err)
		}
		if msg := diffReference(rel, want); msg != "" {
			t.Fatalf("%s, ReadCSV: %s", in.name, msg)
		}
	}
}

// TestReadCSVReservesWithinInput decodes a column whose first rows are long
// and distinct and whose later rows are short. The arena a chunk reserves
// after its first probeRows rows must follow the bytes scanned, not the
// rows: by rows, it would reserve a long value for every short row to come.
func TestReadCSVReservesWithinInput(t *testing.T) {
	var b strings.Builder
	b.WriteString("a,b\n")
	for i := 0; i < 2*probeRows; i++ {
		fmt.Fprintf(&b, "%d%s,1\n", i, strings.Repeat("x", 1000))
	}
	b.WriteString(strings.Repeat("1,2\n", 200000))
	data := []byte(b.String())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, _, err := decodeCSV("skewed", data, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 10*uint64(len(data)) {
		t.Errorf("decoding %d bytes allocated %d", len(data), alloc)
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
