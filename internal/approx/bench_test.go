package approx

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// BenchmarkDiscover runs approximate discovery on two of the served
// dataset shapes at a strict and a lenient threshold. Most candidates fail
// the threshold, so the cost follows how early the removal counts stop.
func BenchmarkDiscover(b *testing.B) {
	rels := []struct {
		name string
		rel  *relation.Relation
	}{
		{"dbtesma-2000x10", datagen.DBTesmaLike(2000, 10, 1)},
		{"flight-3000x10", datagen.FlightLike(3000, 10, 1)},
	}
	for _, r := range rels {
		enc, err := relation.Encode(r.rel)
		if err != nil {
			b.Fatal(err)
		}
		for _, th := range []float64{0.01, 0.05} {
			b.Run(fmt.Sprintf("%s/threshold=%v", r.name, th), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := DiscoverContext(context.Background(), enc, Options{Threshold: th, Workers: 2}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
