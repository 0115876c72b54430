package relation

import (
	"bufio"
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/faultinject"
)

// minChunkBytes is the smallest share of the input ReadCSV hands one
// goroutine: below it, starting goroutines and merging their dictionaries
// costs more than decoding on one.
const minChunkBytes = 64 << 10

// ReadCSV parses a CSV stream with a header row into a relation, sniffing
// column types from the data. name is used only for diagnostics.
//
// The input is buffered whole, and its body is decoded in up to GOMAXPROCS
// chunks on parallel goroutines, each interning its fields into per-column
// dictionaries that are then merged in chunk order. Errors name the same
// line, column and row as a sequential decode: a chunk that fails is not
// reported, the body is decoded again as one chunk instead.
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

// errSplit reports that a chunk of a split body hit a parse error or a
// ragged row. Its line numbers and row indexes are chunk-local, so the body
// is decoded again as one chunk, which reports them as a whole-input decode
// does.
var errSplit = errors.New("relation: chunk failed")

// decodeCSV decodes data, cutting its body into up to chunks pieces.
// retried reports that a piece failed and the body was decoded again whole.
//
// Cutting is sound because of the retry. The cuts sit at newlines outside
// quoted fields by quote parity, which is exact on input encoding/csv
// accepts (it rejects bare quotes without LazyQuotes). The first piece
// starts at a record boundary. A piece that starts at one and parses
// cleanly, standalone, ends at one too: a quoted field still open at its end
// is an error, and no other rule depends on where the input ends. So if
// every piece parses cleanly, they hold exactly the records a whole-input
// decode reads.
func decodeCSV(name string, data []byte, chunks int) (rel *Relation, retried bool, err error) {
	r := csv.NewReader(bytes.NewReader(data))
	r.FieldsPerRecord = -1 // ragged rows get decodeChunks' clearer error
	header, err := r.Read()
	if err == io.EOF {
		return nil, false, fmt.Errorf("relation: csv %s is empty", name)
	}
	if err != nil {
		return nil, false, fmt.Errorf("relation: reading csv %s: %w", name, err)
	}
	r.ReuseRecord = true
	body := data[r.InputOffset():]
	cols, err := decodeChunks(name, r, header, splitBody(body, chunks))
	if err == errSplit {
		retried = true
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

// decodeChunks decodes the pieces of a body into columns named by header:
// the first piece alone with r, the header's reader, continuing where it
// stopped; several pieces on parallel goroutines, each with its own reader,
// returning errSplit when any of them fails. Each piece interns its fields
// into dictionaries of its own, which are then merged per column in piece
// order, so every dictionary keeps first-seen order. Row ids go into one
// array per column that each piece fills from its own offset; the merge
// closes the gaps that blank lines and quoted newlines leave.
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
	if len(pieces) == 1 {
		err = parts[0].decode(name, r, ncols, false)
	} else {
		err = parallel(len(pieces), func(k int) error {
			pr := csv.NewReader(bytes.NewReader(pieces[k]))
			pr.FieldsPerRecord = -1
			pr.ReuseRecord = true
			return parts[k].decode(name, pr, ncols, true)
		})
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

// decode reads r to its end, interning every field of every row. split
// selects the failure mode: a piece of a split body stops at its first parse
// error or ragged row with errSplit. A whole body reports a parse error as
// is; after a ragged row it reads on, because a parse error anywhere takes
// precedence, and then reports the first ragged row.
func (ch *chunk) decode(name string, r *csv.Reader, ncols int, split bool) error {
	ragged, raggedFields := -1, 0
	for row := 0; ; row++ {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if split {
				return errSplit
			}
			return fmt.Errorf("relation: reading csv %s: %w", name, err)
		}
		if len(rec) != ncols && ragged < 0 {
			if split {
				return errSplit
			}
			ragged, raggedFields = row, len(rec)
		}
		if ragged >= 0 {
			continue
		}
		for c, v := range rec {
			ch.ids[c] = append(ch.ids[c], ch.tabs[c].intern(v))
		}
		if row == probeRows {
			ch.reserveDistinct()
		}
	}
	if ragged >= 0 {
		return raggedRowError(ragged, raggedFields, ncols)
	}
	return nil
}

// probeRows is the row after which a chunk judges each column's cardinality.
const probeRows = 1024

// reserveDistinct sizes the dictionary of every column whose first probeRows
// rows were mostly distinct for one value per row of the chunk. Doubling a
// near-unique column's dictionary and table up from empty would allocate
// about twice their final size and copy every entry several times.
func (ch *chunk) reserveDistinct() {
	for c := range ch.tabs {
		if 2*len(ch.tabs[c].dict) > probeRows {
			ch.tabs[c].reserve(ch.cap)
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
	dict := &parts[0].tabs[c]
	distinct := 0
	for k := range parts {
		distinct += len(parts[k].tabs[c].dict)
	}
	dict.reserve(distinct)
	off := copy(ids, parts[0].ids[c])
	for k := 1; k < len(parts); k++ {
		local := parts[k].tabs[c].dict
		remap := make([]int32, len(local))
		for id, v := range local {
			remap[id] = dict.intern(v)
		}
		for _, id := range parts[k].ids[c] {
			ids[off] = remap[id]
			off++
		}
	}
	return Column{Name: name, Type: SniffType(dict.dict), Dict: dict.dict, IDs: ids[:rows:rows]}
}

// WriteCSV writes the relation as CSV with a header row.
func WriteCSV(r *Relation, dst io.Writer) error {
	if err := r.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(dst)
	w := csv.NewWriter(bw)
	if err := w.Write(r.ColumnNames()); err != nil {
		return fmt.Errorf("relation: writing csv header: %w", err)
	}
	for _, row := range r.Rows() {
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
