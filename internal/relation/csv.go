package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"

	"repro/internal/faultinject"
)

// minChunkBytes is the smallest share of the input ReadCSV hands one
// goroutine: below it, starting goroutines and merging their dictionaries
// costs more than decoding on one.
const minChunkBytes = 64 << 10

// ReadCSV parses a CSV stream with a header row into a relation, sniffing
// column types from the data. name is used only for diagnostics.
//
// The input is buffered whole and encoding/csv reads its header. The body is
// cut into up to GOMAXPROCS chunks that parallel goroutines scan byte by
// byte, handing every field, as a slice of the input, to its column's
// dictionary; the chunks' dictionaries are then merged in chunk order. The
// scan accepts exactly what encoding/csv accepts. Anything else it rejects
// without a word, and the body is decoded again whole by encoding/csv, so
// errors name the same line, column and row as a sequential decode.
func ReadCSV(name string, src io.Reader) (*Relation, error) {
	size := 0
	if s, ok := src.(interface{ Len() int }); ok {
		size = s.Len()
	}
	return readCSV(name, src, size)
}

// ReadCSVFile opens path and parses it as ReadCSV does.
func ReadCSVFile(path string) (*Relation, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("relation: %w", err)
	}
	defer f.Close()
	size := 0
	if fi, err := f.Stat(); err == nil {
		size = int(fi.Size())
	}
	return readCSV(path, f, size)
}

// readCSV is ReadCSV with a hint of the input's size, which lets the buffer
// be allocated once instead of doubling its way up.
func readCSV(name string, src io.Reader, size int) (*Relation, error) {
	if err := faultinject.Fire(faultinject.CSVDecode); err != nil {
		return nil, fmt.Errorf("relation: reading csv %s: %w", name, err)
	}
	var buf bytes.Buffer
	buf.Grow(size + bytes.MinRead)
	if _, err := buf.ReadFrom(src); err != nil {
		return nil, fmt.Errorf("relation: reading csv %s: %w", name, err)
	}
	chunks := min(runtime.GOMAXPROCS(0), max(1, buf.Len()/minChunkBytes))
	rel, _, err := decodeCSV(name, buf.Bytes(), chunks)
	return rel, err
}

// errRejected reports that a piece broke the grammar chunk.scan accepts or
// held a record whose field count differs from the header's. The scan words
// no error, so the body is decoded again by encoding/csv, which does.
var errRejected = errors.New("relation: chunk rejected")

// decodeCSV decodes data, cutting its body into up to chunks pieces.
// retried reports that a piece was rejected and encoding/csv decoded the
// body again whole.
//
// Cutting is sound because of the retry. The cuts sit at newlines outside
// quoted fields by quote parity, which is exact on input encoding/csv
// accepts (it rejects bare quotes without LazyQuotes). The first piece
// starts at a record boundary. A piece that starts at one and scans
// cleanly, standalone, ends at one too: a quoted field still open at its end
// is rejected. Every piece but the last ends with a newline, so the rules
// for the end of input apply in the last piece only. So if every piece scans
// cleanly, they hold exactly the records a whole-input decode reads.
func decodeCSV(name string, data []byte, chunks int) (rel *Relation, retried bool, err error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1 // ragged rows get chunk.decode's clearer error
	header, err := r.Read()
	if err == io.EOF {
		return nil, false, fmt.Errorf("relation: csv %s is empty", name)
	}
	if err != nil {
		return nil, false, fmt.Errorf("relation: reading csv %s: %w", name, err)
	}
	body := data[r.InputOffset():]
	if len(body) > math.MaxInt32 {
		// Dictionaries address their bytes with int32 offsets.
		return nil, false, fmt.Errorf("relation: csv %s has a body of %d bytes, more than %d", name, len(body), math.MaxInt32)
	}
	cols, err := decodeChunks(name, nil, header, splitBody(body, chunks))
	if err == errRejected {
		retried = true
		r.ReuseRecord = true
		cols, err = decodeChunks(name, r, header, [][]byte{body})
	}
	if err != nil {
		return nil, retried, err
	}
	rel = New(name, cols...)
	if err := rel.Validate(); err != nil {
		return nil, retried, err
	}
	return rel, retried, nil
}

// splitBody cuts body into at most n pieces of about equal size. Every piece
// but the last ends with a newline that an even number of quote characters
// precedes in body, so it lies outside any quoted field.
func splitBody(body []byte, n int) [][]byte {
	pieces := make([][]byte, 0, n)
	start, pos, quotes := 0, 0, 0
	for k := 1; k < n && pos < len(body); k++ {
		if target := k * len(body) / n; target > pos {
			quotes += bytes.Count(body[pos:target], []byte{'"'})
			pos = target
		}
		for pos < len(body) {
			nl := bytes.IndexByte(body[pos:], '\n')
			if nl < 0 {
				pos = len(body)
				break
			}
			quotes += bytes.Count(body[pos:pos+nl], []byte{'"'})
			pos += nl + 1
			if quotes%2 == 0 {
				pieces = append(pieces, body[start:pos])
				start = pos
				break
			}
		}
	}
	if start < len(body) || len(pieces) == 0 {
		pieces = append(pieces, body[start:])
	}
	return pieces
}

// decodeChunks decodes the pieces of a body into columns named by header.
// With r nil, each piece is scanned on its own goroutine, and a rejected
// piece fails the decode with errRejected; otherwise the one piece is read
// with r, the header's reader, continuing where it stopped. Each piece
// interns its fields into dictionaries of its own, which are then merged
// per column in piece order, so every dictionary keeps first-seen order.
// Row ids go into one array per column that each piece fills from its own
// offset; the merge closes the gaps that blank lines and quoted newlines
// leave.
func decodeChunks(name string, r *csv.Reader, header []string, pieces [][]byte) ([]Column, error) {
	ncols := len(header)
	parts := make([]chunk, len(pieces))
	total := 0
	for k, p := range pieces {
		// Every row a piece keeps spends a line, and at least one byte per
		// field on a separator or line end (the input's last row may lack
		// its newline), so neither bound can be exceeded.
		lines := bytes.Count(p, []byte{'\n'})
		if len(p) > 0 && p[len(p)-1] != '\n' {
			lines++
		}
		parts[k].base, parts[k].cap = total, min(lines, len(p)/ncols+1)
		total += parts[k].cap
	}
	arena := make([][]int32, ncols)
	for c := range arena {
		arena[c] = make([]int32, total)
	}
	for k := range parts {
		parts[k].init(arena)
	}
	var err error
	if r != nil {
		err = parts[0].decode(name, r)
	} else {
		err = parallel(len(pieces), func(k int) error { return parts[k].scan(pieces[k]) })
	}
	if err != nil {
		return nil, err
	}
	cols := make([]Column, ncols)
	err = parallel(ncols, func(c int) error {
		cols[c] = mergeColumn(header[c], parts, c, arena[c])
		return nil
	})
	return cols, err
}

// chunk is one piece's share of the decode: a dictionary and a run of row
// ids per column. The ids start at base in the per-column arrays, with room
// for cap rows.
type chunk struct {
	base, cap int
	tabs      []internTable
	ids       [][]int32
}

func (ch *chunk) init(arena [][]int32) {
	ch.tabs = make([]internTable, len(arena))
	ch.ids = make([][]int32, len(arena))
	for c := range arena {
		ch.tabs[c] = newInternTable()
		ch.ids[c] = arena[c][ch.base : ch.base : ch.base+ch.cap]
	}
}

// scan interns every field of p, a run of whole records, and returns
// errRejected unless p keeps to the grammar encoding/csv accepts (neither
// LazyQuotes nor TrimLeadingSpace) with one field per column in every
// record. Fields end at a comma, records at \n, \r\n or the end of input,
// and a line end alone, or a \r alone at the end, is a blank line. A \r
// before a line end or at the end of input is dropped; any other \r is data.
// A field that starts with a quote ends at a quote not doubled, which a
// comma or a record end must follow; it is unescaped into scratch, "" as one
// quote and \r\n as \n. Any other field holds no quote and is handed over
// as a slice of p.
func (ch *chunk) scan(p []byte) error {
	var scratch []byte
	for i := 0; i < len(p); {
		if n := lineEnd(p, i); n > 0 {
			i += n // a blank line
			continue
		}
		for c := 0; ; c++ {
			end := i
			var field []byte
			if i < len(p) && p[i] == '"' {
				// Each segment is copied with the quote that ends it, so a
				// doubled quote leaves one and the closing quote is cut off.
				for scratch, end = scratch[:0], i+1; ; end++ {
					k := bytes.IndexByte(p[end:], '"')
					if k < 0 {
						return errRejected
					}
					scratch = appendLF(scratch, p[end:end+k+1])
					if end += k + 1; end == len(p) || p[end] != '"' {
						break
					}
				}
				field = scratch[:len(scratch)-1]
			} else {
				for end < len(p) && p[end] != ',' && p[end] != '\n' && p[end] != '"' {
					end++
				}
				if end < len(p) && p[end] == '"' {
					return errRejected
				}
				if end > i && lineEnd(p, end-1) > 0 {
					end-- // a \r before the line end
				}
				field = p[i:end]
			}
			if c == len(ch.tabs) {
				return errRejected
			}
			ch.ids[c] = append(ch.ids[c], ch.tabs[c].internBytes(field))
			if end < len(p) && p[end] == ',' {
				i = end + 1
				continue
			}
			n := lineEnd(p, end)
			if n == 0 && end < len(p) || c+1 != len(ch.tabs) {
				return errRejected
			}
			i = end + n
			break
		}
		if len(ch.ids[0]) == probeRows {
			ch.reserveDistinct(len(p), i)
		}
	}
	return nil
}

// lineEnd returns the length of the line end at p[i]: \n, \r\n, or a \r
// that ends p; 0 if there is none.
func lineEnd(p []byte, i int) int {
	switch {
	case i < len(p) && p[i] == '\n', i+1 == len(p) && p[i] == '\r':
		return 1
	case i+1 < len(p) && p[i] == '\r' && p[i+1] == '\n':
		return 2
	}
	return 0
}

// appendLF appends src to dst with every \r\n turned into \n, as
// encoding/csv reads a quoted field that spans lines.
func appendLF(dst, src []byte) []byte {
	for k := bytes.Index(src, []byte("\r\n")); k >= 0; k = bytes.Index(src, []byte("\r\n")) {
		dst = append(append(dst, src[:k]...), '\n')
		src = src[k+2:]
	}
	return append(dst, src...)
}

// decode reads r to its end, interning every field of every row. It
// reports a parse error as is; after a ragged row it reads on, because a
// parse error anywhere takes precedence, and then reports the first ragged
// row.
func (ch *chunk) decode(name string, r *csv.Reader) error {
	ragged, raggedFields := -1, 0
	for row := 0; ; row++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("relation: reading csv %s: %w", name, err)
		}
		if len(rec) != len(ch.tabs) && ragged < 0 {
			ragged, raggedFields = row, len(rec)
		}
		if ragged >= 0 {
			continue
		}
		for c, v := range rec {
			ch.ids[c] = append(ch.ids[c], ch.tabs[c].intern(v))
		}
	}
	if ragged >= 0 {
		return raggedRowError(ragged, raggedFields, len(ch.tabs))
	}
	return nil
}

// probeRows is the number of rows after which a chunk judges each column's
// cardinality.
const probeRows = 1024

// reserveDistinct sizes the dictionary of every column whose first probeRows
// rows were mostly distinct for one value per row of the chunk. Doubling a
// near-unique column's dictionary and table up from empty would allocate
// about twice their final size and copy every entry several times. Its arena
// is sized for its bytes so far, scaled from the scanned bytes to the
// chunk's size with a quarter to spare for values that grow longer, so all
// arenas together reserve at most 5/4 of the chunk's size.
func (ch *chunk) reserveDistinct(size, scanned int) {
	for c := range ch.tabs {
		if t := &ch.tabs[c]; 2*len(t.ends) > probeRows {
			t.reserve(ch.cap, int(int64(len(t.buf))*int64(size)/int64(scanned)*5/4))
		}
	}
}

// mergeColumn assembles column c from the pieces' runs: the first piece's
// dictionary takes in every later piece's values in their first-seen order,
// and each later run is rewritten through the resulting id map as it moves
// down to close the gap before it. ids is the arena the runs live in.
func mergeColumn(name string, parts []chunk, c int, ids []int32) Column {
	rows, spilled := 0, false
	for k := range parts {
		n := len(parts[k].ids[c])
		rows += n
		spilled = spilled || n > parts[k].cap
	}
	if spilled {
		// A run outgrew its room, which decodeChunks' bound rules out, and
		// append moved it; moving runs down in place is then unsafe.
		ids = make([]int32, rows)
	}
	tab := &parts[0].tabs[c]
	distinct, size := 0, 0
	for k := range parts {
		distinct += len(parts[k].tabs[c].ends)
		size += len(parts[k].tabs[c].buf)
	}
	tab.reserve(distinct, size)
	off := copy(ids, parts[0].ids[c])
	for k := 1; k < len(parts); k++ {
		local := &parts[k].tabs[c]
		remap := make([]int32, len(local.ends))
		for id := range remap {
			remap[id] = tab.internBytes(local.value(int32(id)))
		}
		for _, id := range parts[k].ids[c] {
			ids[off] = remap[id]
			off++
		}
	}
	dict := tab.dict()
	return Column{Name: name, Type: SniffType(dict), Dict: dict, IDs: ids[:rows:rows]}
}

// WriteCSV writes the relation as CSV with a header row.
func WriteCSV(r *Relation, dst io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(dst)
	w := csv.NewWriter(bw)
	if err := w.Write(keepCRLF(r.ColumnNames())); err != nil {
		return fmt.Errorf("relation: writing csv header: %w", err)
	}
	for _, row := range r.Rows() {
		keepCRLF(row)
		if len(row) == 1 && row[0] == "" {
			// encoding/csv writes a lone empty field as a blank line,
			// which readers skip; quote it so the row survives.
			w.Flush()
			bw.WriteString("\"\"\n")
			continue
		}
		if err := w.Write(row); err != nil {
			return fmt.Errorf("relation: writing csv row: %w", err)
		}
	}
	w.Flush()
	if err := w.Error(); err != nil {
		return err
	}
	return bw.Flush()
}

// keepCRLF rewrites, in place, each \r\n in fields as \r\r\n, which the
// writer quotes. A reader turns a \r\n in a quoted field into \n, so
// \r\r\n reads back as \r\n.
func keepCRLF(fields []string) []string {
	for i, f := range fields {
		fields[i] = strings.ReplaceAll(f, "\r\n", "\r\r\n")
	}
	return fields
}

// WriteCSVFile writes the relation to the given path, creating or truncating
// the file.
func WriteCSVFile(r *Relation, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("relation: %w", err)
	}
	defer f.Close()
	return WriteCSV(r, f)
}
