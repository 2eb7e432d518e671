package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mapsynth/internal/table"
)

// corpusOf builds a corpus of single-column tables, one per value list.
func corpusOf(cols ...[]string) []*table.Table {
	var out []*table.Table
	for i, c := range cols {
		out = append(out, &table.Table{
			ID:      i,
			Columns: []table.Column{{Name: "c", Values: c}},
		})
	}
	return out
}

func TestIndexCounts(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"USA", "Canada", "Mexico"},
		[]string{"usa", "canada"}, // normalization folds case
		[]string{"Canada", "Japan"},
		[]string{"usa", "usa", "USA"}, // duplicates within a column count once
	))
	if idx.NumColumns() != 4 {
		t.Fatalf("NumColumns = %d, want 4", idx.NumColumns())
	}
	if got := idx.DocFreq("usa"); got != 3 {
		t.Errorf("DocFreq(usa) = %d, want 3", got)
	}
	if got := idx.DocFreq("canada"); got != 3 {
		t.Errorf("DocFreq(canada) = %d, want 3", got)
	}
	if got := idx.CoFreq("usa", "canada"); got != 2 {
		t.Errorf("CoFreq(usa, canada) = %d, want 2", got)
	}
	if got := idx.CoFreq("usa", "japan"); got != 0 {
		t.Errorf("CoFreq(usa, japan) = %d, want 0", got)
	}
	if got := idx.DocFreq("absent"); got != 0 {
		t.Errorf("DocFreq(absent) = %d, want 0", got)
	}
}

func TestCoFreqSymmetric(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"a", "b", "c"},
		[]string{"a", "b"},
		[]string{"b", "c"},
		[]string{"a", "c"},
	))
	for _, u := range []string{"a", "b", "c"} {
		for _, v := range []string{"a", "b", "c"} {
			if idx.CoFreq(u, v) != idx.CoFreq(v, u) {
				t.Errorf("CoFreq(%s,%s) not symmetric", u, v)
			}
		}
	}
}

func TestPMIExample4(t *testing.T) {
	// Reproduce the paper's Example 4 arithmetic directly: N = 100M,
	// |C(u)| = 1000, |C(v)| = 500, co = 300 => PMI = 4.78 (natural log base
	// gives ln(300e8/(1000*500)) = ln(60000) ≈ 11.0; the paper's 4.78 uses
	// log10: log10(60000) = 4.778). Verify our natural-log PMI against the
	// same ratio.
	n := 100_000_000.0
	pu, pv, puv := 1000/n, 500/n, 300/n
	want := math.Log(puv / (pu * pv))
	if math.Abs(want-math.Log(60000)) > 1e-9 {
		t.Fatalf("example arithmetic wrong: %v", want)
	}
	// And in log10 terms it matches the paper's 4.78.
	if got := math.Log10(60000); math.Abs(got-4.778) > 0.001 {
		t.Fatalf("paper example mismatch: %v", got)
	}
}

func TestNPMIRange(t *testing.T) {
	idx := BuildIndex(corpusOf(
		[]string{"a", "b"},
		[]string{"a", "b"},
		[]string{"a", "c"},
		[]string{"d"},
		[]string{"e", "f"},
	))
	pairs := [][2]string{{"a", "b"}, {"a", "c"}, {"a", "d"}, {"e", "f"}, {"x", "y"}}
	for _, p := range pairs {
		v := idx.NPMI(p[0], p[1])
		if v < -1-1e-9 || v > 1+1e-9 {
			t.Errorf("NPMI(%s,%s) = %v out of [-1, 1]", p[0], p[1], v)
		}
	}
	// Values that never co-occur score -1.
	if got := idx.NPMI("a", "d"); got != -1 {
		t.Errorf("NPMI(a, d) = %v, want -1", got)
	}
	// Frequent co-occurrence beats rare co-occurrence.
	if idx.NPMI("a", "b") <= idx.NPMI("a", "c") {
		t.Errorf("NPMI ordering wrong: ab=%v ac=%v", idx.NPMI("a", "b"), idx.NPMI("a", "c"))
	}
}

func TestColumnCoherenceSeparatesMixedColumns(t *testing.T) {
	// Corpus: country columns co-occur repeatedly; a mixed column blends
	// values that never co-occur elsewhere.
	countries := []string{"usa", "canada", "mexico", "brazil"}
	animals := []string{"cat", "dog", "bird", "fish"}
	var cols [][]string
	for i := 0; i < 6; i++ {
		cols = append(cols, countries, animals)
	}
	mixed := []string{"usa", "dog", "brazil", "bird"}
	cols = append(cols, mixed)
	idx := BuildIndex(corpusOf(cols...))

	coherent := idx.ColumnCoherence(countries)
	incoherent := idx.ColumnCoherence(mixed)
	if coherent <= 0.5 {
		t.Errorf("country column coherence = %v, want > 0.5", coherent)
	}
	if incoherent >= 0 {
		t.Errorf("mixed column coherence = %v, want < 0", incoherent)
	}
}

func TestColumnCoherenceNeutralCases(t *testing.T) {
	idx := BuildIndex(corpusOf([]string{"a", "b"}))
	// Single distinct value: vacuously coherent.
	if got := idx.ColumnCoherence([]string{"x", "x"}); got != 1 {
		t.Errorf("single-value column = %v, want 1", got)
	}
	// Values unseen outside the scored column: neutral, not incoherent.
	if got := idx.ColumnCoherence([]string{"a", "b"}); got != 0 {
		t.Errorf("no-evidence column = %v, want 0 (neutral)", got)
	}
}

func TestColumnCoherenceSampling(t *testing.T) {
	// Columns longer than MaxCoherenceSample are sampled, not quadratic.
	vals := make([]string, 500)
	for i := range vals {
		vals[i] = "v" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
	}
	idx := BuildIndex(corpusOf(vals, vals))
	_ = idx.ColumnCoherence(vals) // must terminate quickly; value unchecked
}

func TestAppendEquivalence(t *testing.T) {
	all := corpusOf(
		[]string{"USA", "Canada", "Mexico"},
		[]string{"usa", "canada"},
		[]string{"Canada", "Japan"},
		[]string{"usa", "usa", "USA"},
		[]string{"Japan", "Korea", ""},
		[]string{"korea", "mexico"},
	)
	for split := 0; split <= len(all); split++ {
		inc := BuildIndex(all[:split])
		inc.Append(all[split:])
		full := BuildIndex(all)
		if inc.NumColumns() != full.NumColumns() {
			t.Fatalf("split %d: NumColumns %d vs %d", split, inc.NumColumns(), full.NumColumns())
		}
		for _, u := range []string{"usa", "canada", "mexico", "japan", "korea", "absent"} {
			if inc.DocFreq(u) != full.DocFreq(u) {
				t.Fatalf("split %d: DocFreq(%s) %d vs %d", split, u, inc.DocFreq(u), full.DocFreq(u))
			}
			for _, v := range []string{"usa", "canada", "mexico", "japan", "korea"} {
				if inc.CoFreq(u, v) != full.CoFreq(u, v) {
					t.Fatalf("split %d: CoFreq(%s,%s) %d vs %d", split, u, v, inc.CoFreq(u, v), full.CoFreq(u, v))
				}
				in, fn := inc.NPMI(u, v), full.NPMI(u, v)
				if in != fn && !(math.IsNaN(in) && math.IsNaN(fn)) {
					t.Fatalf("split %d: NPMI(%s,%s) %v vs %v", split, u, v, in, fn)
				}
			}
		}
	}
}

// TestCoherenceCountsMatchesIndex appends random tables in chunks and
// requires, after every chunk, that every column's coherence from the
// maintained counts equals ColumnCoherence over a freshly built index, bit
// for bit.
func TestCoherenceCountsMatchesIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vocab := make([]string, 60)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("Value %d", i)
	}
	var tables []*table.Table
	for i := 0; i < 120; i++ {
		tb := &table.Table{ID: i}
		for c := 0; c < 1+rng.Intn(3); c++ {
			// Mostly short columns over a small vocabulary, so values
			// co-occur; some longer than the coherence sample, with
			// repeats, case variants and empty cells.
			n := 1 + rng.Intn(8)
			if rng.Intn(5) == 0 {
				n = MaxCoherenceSample + 15
			}
			vals := make([]string, n)
			for k := range vals {
				switch v := vocab[rng.Intn(len(vocab))]; rng.Intn(10) {
				case 0:
					vals[k] = ""
				case 1:
					vals[k] = strings.ToUpper(v)
				default:
					vals[k] = v
				}
			}
			tb.Columns = append(tb.Columns, table.Column{Name: "c", Values: vals})
		}
		tables = append(tables, tb)
	}

	x := BuildIndex(nil)
	cc := NewCoherenceCounts()
	for done := 0; done < len(tables); {
		next := min(len(tables), done+1+rng.Intn(20))
		x.Append(tables[done:next])
		cc.Append(x, tables[done:next])
		done = next

		fresh := BuildIndex(tables[:done])
		col := 0
		for _, tb := range tables[:done] {
			for _, c := range tb.Columns {
				got, want := cc.Coherence(col), fresh.ColumnCoherence(c.Values)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("after %d tables: column %d coherence %v from counts, %v from a fresh index", done, col, got, want)
				}
				col++
			}
		}
		if cc.NumColumns() != col {
			t.Fatalf("after %d tables: %d columns counted, want %d", done, cc.NumColumns(), col)
		}
	}
}
