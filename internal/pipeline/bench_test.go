package pipeline

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"mapsynth/internal/corpusgen"
	"mapsynth/internal/table"
)

// heldOut returns n tables of a web corpus generated with a different seed
// than the base, re-identified to continue the base's dense table IDs —
// the shape of tables arriving through the ingestion log.
func heldOut(seed int64, base, n int) []*table.Table {
	c := corpusgen.GenerateWeb(corpusgen.Options{Seed: seed, Scale: 1})
	perm := rand.New(rand.NewSource(seed)).Perm(len(c.Tables))
	out := make([]*table.Table, 0, n)
	for i, p := range perm[:min(n, len(perm))] {
		t := *c.Tables[p]
		t.ID = base + i
		out = append(out, &t)
	}
	return out
}

// BenchmarkIncrementalIngest times one RunIncremental that adds 1 or 15
// held-out tables over a scale-1 or scale-2 web corpus whose state was
// seeded by a run over the base alone. Seeding is untimed and repeated per
// iteration, so every timed run starts from the same warm state. Run with
// e.g. -benchtime 5x; the scale-2/scale-1 ratio shows how far an ingest run
// is from costing O(new tables).
func BenchmarkIncrementalIngest(b *testing.B) {
	for _, scale := range []float64{1, 2} {
		base := corpusgen.GenerateWeb(corpusgen.Options{Seed: 42, Scale: scale}).Tables
		for _, add := range []int{1, 15} {
			tables := append(append([]*table.Table(nil), base...), heldOut(43, len(base), add)...)
			b.Run(fmt.Sprintf("scale=%v/add=%d", scale, add), func(b *testing.B) {
				b.ReportAllocs()
				eng := New(DefaultConfig())
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					state := NewIncrementalState()
					if _, err := eng.RunIncremental(context.Background(), base, state); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if _, err := eng.RunIncremental(context.Background(), tables, state); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
