package table

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWriteJSONL(t *testing.T) {
	tb := New("t", "city", "pop")
	tb.MustAppendRow(S("Berlin"), S("3.7M"))
	tb.MustAppendRow(S("Toronto"), Null())
	var sb strings.Builder
	if err := WriteJSONL(&sb, tb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines=%v", lines)
	}
	if !strings.Contains(lines[0], `"city":"Berlin"`) {
		t.Errorf("line 0: %s", lines[0])
	}
	if strings.Contains(lines[1], "pop") {
		t.Errorf("null cell should be omitted: %s", lines[1])
	}
}

func TestReadJSONL(t *testing.T) {
	in := `{"city":"Berlin","pop":"3.7M"}
{"city":"Toronto"}
{"country":"Spain","city":"Madrid"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 3 {
		t.Fatalf("rows=%d", tb.NumRows())
	}
	if tb.ColumnIndex("country") < 0 {
		t.Errorf("union schema missing country: %v", tb.Columns)
	}
	if !tb.Rows[1][tb.ColumnIndex("pop")].IsNull {
		t.Error("missing key should read as null")
	}
	if tb.Rows[2][tb.ColumnIndex("country")].Val != "Spain" {
		t.Errorf("row 2: %v", tb.Rows[2])
	}
}

func TestReadJSONLNonStringValues(t *testing.T) {
	in := `{"n":42,"b":true,"s":"x"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	row := tb.Rows[0]
	if row[tb.ColumnIndex("n")].Val != "42" || row[tb.ColumnIndex("b")].Val != "true" {
		t.Errorf("row=%v", row)
	}
}

// A JSON null reads as a null cell, exactly like an omitted key — not as
// an empty string, which would join with every other empty string.
func TestReadJSONLNullIsNullCell(t *testing.T) {
	in := `{"title":"Alien","year":null}
{"title":null,"year":"1979"}`
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	year, title := tb.ColumnIndex("year"), tb.ColumnIndex("title")
	if year < 0 || title < 0 {
		t.Fatalf("columns = %v, want title and year", tb.Columns)
	}
	if !tb.Rows[0][year].IsNull {
		t.Errorf("row 0 year = %+v, want null", tb.Rows[0][year])
	}
	if !tb.Rows[1][title].IsNull {
		t.Errorf("row 1 title = %+v, want null", tb.Rows[1][title])
	}
	if tb.Rows[0][title] != S("Alien") || tb.Rows[1][year] != S("1979") {
		t.Errorf("non-null cells changed: %v", tb.Rows)
	}
	// The string "null" is a value, not a null.
	tb, err = ReadJSONL(strings.NewReader(`{"a":"null"}`), "j")
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows[0][0] != S("null") {
		t.Errorf(`"null" string read as %+v`, tb.Rows[0][0])
	}
}

func TestReadJSONLErrors(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("{bad json"), "j"); err == nil {
		t.Error("malformed input accepted")
	}
	tb, err := ReadJSONL(strings.NewReader(""), "j")
	if err != nil || tb.NumRows() != 0 {
		t.Errorf("empty input: %v %v", tb, err)
	}
}

func TestReadJSONLNamesOffendingLine(t *testing.T) {
	in := "{\"a\":\"1\"}\n\n{\"a\":\"2\"}\n{broken\n"
	_, err := ReadJSONL(strings.NewReader(in), "j")
	if err == nil {
		t.Fatal("malformed line accepted")
	}
	if !strings.Contains(err.Error(), "line 4") {
		t.Errorf("error does not name line 4: %v", err)
	}
}

func TestReadJSONLBlankLinesSkipped(t *testing.T) {
	in := "\n{\"a\":\"1\"}\n   \n{\"a\":\"2\"}\n\n"
	tb, err := ReadJSONL(strings.NewReader(in), "j")
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows=%d, want 2", tb.NumRows())
	}
}

func TestReadJSONLLimits(t *testing.T) {
	long := `{"a":"` + strings.Repeat("x", 100) + `"}`
	_, err := ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n"+long), "j",
		JSONLLimits{MaxLineBytes: 64})
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("oversized line not rejected with its line number: %v", err)
	}

	_, err = ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n{\"a\":\"2\"}\n{\"a\":\"3\"}"), "j",
		JSONLLimits{MaxRows: 2})
	if err == nil || !strings.Contains(err.Error(), "line 3") || !strings.Contains(err.Error(), "row limit") {
		t.Errorf("row limit not enforced at line 3: %v", err)
	}

	tb, err := ReadJSONLLimited(strings.NewReader("{\"a\":\"1\"}\n{\"a\":\"2\"}"), "j",
		JSONLLimits{MaxRows: 2, MaxLineBytes: 64})
	if err != nil || tb.NumRows() != 2 {
		t.Errorf("input within limits rejected: %v %v", tb, err)
	}
}

// Property: JSONL round-trips any table (modulo column order, which the
// reader unions in sorted-first-seen order, and the name).
func TestJSONLRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		orig := randomTable(r)
		// Empty-string cells are indistinguishable from... no: empty
		// strings survive JSONL (explicit ""), unlike CSV. Keep as is.
		var sb strings.Builder
		if err := WriteJSONL(&sb, orig); err != nil {
			return false
		}
		back, err := ReadJSONL(strings.NewReader(sb.String()), orig.Name)
		if err != nil {
			return false
		}
		if back.NumRows() != orig.NumRows() {
			return false
		}
		// Compare projected onto the original column order; columns that
		// were entirely null are absent from the round trip.
		for i, row := range orig.Rows {
			for c, cell := range row {
				bc := back.ColumnIndex(orig.Columns[c])
				if bc < 0 {
					if !cell.IsNull {
						return false
					}
					continue
				}
				if !back.Rows[i][bc].Equal(cell) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
