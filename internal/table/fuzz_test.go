package table

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV checks that arbitrary input never panics the reader and that
// whatever parses also survives a write/read round trip.
func FuzzReadCSV(f *testing.F) {
	f.Add("a,b\n1,2\n")
	f.Add("city,country\nBerlin,\n\"quo\"\"ted\",x\n")
	f.Add("⊥,NULL\nn/a,none\n")
	f.Add("\n\n\n")
	f.Add("a\tb\n1\t2\n")
	f.Add("col,col\ndup,dup\n")
	f.Fuzz(func(t *testing.T, input string) {
		tb, err := ReadCSV(strings.NewReader(input), "fuzz", ReadOptions{})
		if err != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if err := tb.Validate(); err != nil {
			// Duplicate header names parse but fail validation; fine.
			return
		}
		var buf strings.Builder
		if err := WriteCSV(&buf, tb, WriteOptions{NullAs: NullToken}); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadCSV(strings.NewReader(buf.String()), "fuzz", ReadOptions{})
		if err != nil {
			t.Fatalf("re-read own output: %v\noutput: %q", err, buf.String())
		}
		if back.NumRows() != tb.NumRows() || back.NumCols() != tb.NumCols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				tb.NumRows(), tb.NumCols(), back.NumRows(), back.NumCols())
		}
	})
}

// FuzzJSONL drives ReadJSONLLimited with arbitrary input and limits. The
// reader must never panic; a limit must fail the parse, never truncate
// the table; every JSON null must read as a null cell; and WriteJSONL of
// a parsed table must read back with the same rows.
func FuzzJSONL(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte, maxRows uint8, maxLine uint16) {
		lim := JSONLLimits{MaxRows: int(maxRows % 8), MaxLineBytes: int(maxLine)}
		got, err := ReadJSONLLimited(bytes.NewReader(input), "fuzz", lim)

		// The reference parse: no row cap, and a line cap no line can reach.
		full, fullErr := ReadJSONLLimited(bytes.NewReader(input), "fuzz", JSONLLimits{MaxLineBytes: len(input) + 1})
		if err == nil {
			if fullErr != nil {
				t.Fatalf("limited parse succeeded, unlimited failed: %v", fullErr)
			}
			if !reflect.DeepEqual(got, full) {
				t.Fatalf("limits %+v changed the table:\ngot  %v\nwant %v", lim, got, full)
			}
		}
		if fullErr != nil {
			return // malformed input is allowed to fail, not to panic
		}
		if lim.MaxRows > 0 && full.NumRows() > lim.MaxRows && err == nil {
			t.Fatalf("%d rows parsed under MaxRows %d", full.NumRows(), lim.MaxRows)
		}
		for _, line := range bytes.Split(input, []byte("\n")) {
			if lim.MaxLineBytes > 0 && len(line) > lim.MaxLineBytes && err == nil {
				t.Fatalf("a %d-byte line parsed under MaxLineBytes %d", len(line), lim.MaxLineBytes)
			}
		}

		// A cell is null exactly when its key is absent or holds JSON null.
		row := 0
		for _, line := range bytes.Split(input, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var obj map[string]json.RawMessage
			if err := json.Unmarshal(line, &obj); err != nil {
				t.Fatalf("line parsed by the reader fails to decode: %v", err)
			}
			for c, name := range full.Columns {
				raw, ok := obj[name]
				if wantNull := !ok || string(raw) == "null"; full.Rows[row][c].IsNull != wantNull {
					t.Fatalf("row %d column %q: null=%v, want %v (raw %s)", row, name, full.Rows[row][c].IsNull, wantNull, raw)
				}
			}
			row++
		}
		if row != full.NumRows() {
			t.Fatalf("%d rows parsed from %d objects", full.NumRows(), row)
		}

		var buf bytes.Buffer
		if err := WriteJSONL(&buf, full); err != nil {
			t.Fatalf("write after successful read: %v", err)
		}
		back, err := ReadJSONL(&buf, "fuzz")
		if err != nil {
			t.Fatalf("re-read own output: %v", err)
		}
		if back.NumRows() != full.NumRows() {
			t.Fatalf("round trip changed the row count: %d -> %d", full.NumRows(), back.NumRows())
		}
		for i := range full.Rows {
			if a, b := RowObject(full.Columns, full.Rows[i]), RowObject(back.Columns, back.Rows[i]); !reflect.DeepEqual(a, b) {
				t.Fatalf("row %d changed in the round trip:\n%v\n%v", i, a, b)
			}
		}
	})
}
