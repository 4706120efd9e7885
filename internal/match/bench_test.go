package match_test

import (
	"fmt"
	"testing"

	"fuzzyfd/internal/datagen"
	"fuzzyfd/internal/embed"
	"fuzzyfd/internal/match"
)

// syntheticColumns builds n columns of size values each, with overlapping
// content so matching does real work.
func syntheticColumns(nCols, size int) []match.Column {
	cols := make([]match.Column, nCols)
	for c := 0; c < nCols; c++ {
		vals := make([]string, size)
		for i := range vals {
			// Overlap across columns with per-column decoration.
			switch (i + c) % 3 {
			case 0:
				vals[i] = fmt.Sprintf("Entity %04d", i)
			case 1:
				vals[i] = fmt.Sprintf("entity %04d", i)
			default:
				vals[i] = fmt.Sprintf("Enttity %04d", i)
			}
		}
		cols[c] = match.NewColumn(fmt.Sprintf("c%d", c), vals)
	}
	return cols
}

func BenchmarkMatchDense(b *testing.B) {
	for _, size := range []int{100, 300} {
		cols := syntheticColumns(3, size)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			m := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: match.ModeDense}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Match(cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMatchSparse(b *testing.B) {
	for _, size := range []int{300, 1000} {
		cols := syntheticColumns(3, size)
		b.Run(fmt.Sprintf("n=%d", size), func(b *testing.B) {
			m := &match.Matcher{Emb: embed.NewMistral(), Opts: match.Options{Mode: match.ModeSparse}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Match(cols); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMatchSparseIMDB matches the tconst columns of the 10k-tuple
// IMDB set, in table order, under default options: the key column pairs
// exceed match.DefaultDenseLimit, so every round takes the blocked sparse
// path. Embeddings are warmed first, so this measures blocking, scoring
// and assignment.
func BenchmarkMatchSparseIMDB(b *testing.B) {
	var cols []match.Column
	for _, t := range datagen.IMDB(datagen.IMDBConfig{Seed: 1, TotalTuples: 10_000}) {
		if i := t.ColumnIndex("tconst"); i >= 0 {
			cols = append(cols, match.NewColumn(t.Name+".tconst", t.ColumnValues(i)))
		}
	}
	m := &match.Matcher{Emb: embed.NewMistral()}
	embed.Warm(m.Emb, match.DistinctValues(cols), 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Match(cols); err != nil {
			b.Fatal(err)
		}
	}
}
