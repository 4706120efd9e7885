package table

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteJSONL writes the table as JSON Lines: one object per row mapping
// column names to string values; null cells are omitted. JSONL is the
// interchange format downstream pipelines (and the fuzzyfd CLI's -json
// flag) consume.
func WriteJSONL(w io.Writer, t *Table) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, row := range t.Rows {
		if err := enc.Encode(RowObject(t.Columns, row)); err != nil {
			return fmt.Errorf("table: write jsonl %q row %d: %w", t.Name, i, err)
		}
	}
	return bw.Flush()
}

// RowObject returns the JSONL object of one row — column name to value,
// null cells omitted — the per-row encoding WriteJSONL uses. Streaming
// writers encode rows one at a time through this, so streamed and batch
// JSONL output stay byte-identical per row.
func RowObject(columns []string, row Row) map[string]string {
	obj := make(map[string]string, len(row))
	for c, cell := range row {
		if !cell.IsNull {
			obj[columns[c]] = cell.Val
		}
	}
	return obj
}

// JSONLLimits bounds a JSONL parse against hostile or accidental input.
// Zero values mean the defaults; use -1 for MaxRows to refuse all rows.
type JSONLLimits struct {
	// MaxLineBytes caps a single line. Lines past it fail with an error
	// naming the line number instead of buffering unboundedly. Default 4 MiB.
	MaxLineBytes int
	// MaxRows caps the number of rows parsed. 0 means unlimited.
	MaxRows int
}

// defaultMaxLineBytes keeps a single pathological row from buffering
// arbitrarily much memory while staying far above any realistic row.
const defaultMaxLineBytes = 4 << 20

// ReadJSONL parses a JSON Lines stream into a table with the default
// limits. The schema is the union of all keys in first-seen order; missing
// keys and JSON null values become null cells, so a null joins nothing,
// exactly like an omitted key. Other non-string JSON values are rendered
// as their raw JSON text, coerced to valid UTF-8. Errors name the 1-based
// offending line.
func ReadJSONL(r io.Reader, name string) (*Table, error) {
	return ReadJSONLLimited(r, name, JSONLLimits{})
}

// ReadJSONLLimited is ReadJSONL with explicit parse limits.
func ReadJSONLLimited(r io.Reader, name string, lim JSONLLimits) (*Table, error) {
	maxLine := lim.MaxLineBytes
	if maxLine <= 0 {
		maxLine = defaultMaxLineBytes
	}
	sc := bufio.NewScanner(r)
	// Scanner's cap is max(maxLine, cap(buf)), so the initial buffer must
	// not exceed the limit or small limits would be silently ignored.
	sc.Buffer(make([]byte, 0, min(64*1024, maxLine)), maxLine)
	var rawRows []map[string]json.RawMessage
	line := 0
	for sc.Scan() {
		line++
		text := bytes.TrimSpace(sc.Bytes())
		if len(text) == 0 {
			continue
		}
		if lim.MaxRows > 0 && len(rawRows) >= lim.MaxRows {
			return nil, fmt.Errorf("table: read jsonl %q line %d: row limit of %d exceeded", name, line, lim.MaxRows)
		}
		var obj map[string]json.RawMessage
		if err := json.Unmarshal(text, &obj); err != nil {
			return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line, err)
		}
		rawRows = append(rawRows, obj)
	}
	if err := sc.Err(); err != nil {
		if err == bufio.ErrTooLong {
			return nil, fmt.Errorf("table: read jsonl %q line %d: line exceeds %d bytes", name, line+1, maxLine)
		}
		return nil, fmt.Errorf("table: read jsonl %q line %d: %w", name, line+1, err)
	}

	t := New(name)
	colIdx := make(map[string]int)
	// First pass: collect schema deterministically (sorted within a row to
	// make column order stable despite Go's map iteration).
	for _, obj := range rawRows {
		for _, k := range sortedKeys(obj) {
			if _, ok := colIdx[k]; !ok {
				colIdx[k] = len(t.Columns)
				t.Columns = append(t.Columns, k)
			}
		}
	}
	for _, obj := range rawRows {
		row := make(Row, len(t.Columns))
		for i := range row {
			row[i] = Null()
		}
		for k, raw := range obj {
			if string(raw) == "null" {
				continue // the cell stays null
			}
			var s string
			if err := json.Unmarshal(raw, &s); err != nil {
				// Numbers, booleans, nested values: raw JSON. Nested strings
				// may hold invalid UTF-8, which WriteJSONL would replace, so
				// replace it here and the table survives a round trip.
				s = strings.ToValidUTF8(string(raw), "\uFFFD")
			}
			row[colIdx[k]] = S(s)
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	insertionSortStrings(keys)
	return keys
}

func insertionSortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
