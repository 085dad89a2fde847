package relation_test

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/datagen"
	"repro/internal/relation"
)

// referenceEncode is the naive spec-to-rank encoder: it sorts the distinct
// raw values with relation.Compare and gives neighbours that compare equal
// the same dense rank.
func referenceEncode(co relation.ColumnOrder, t relation.Type, raw []string) ([]int32, int) {
	seen := make(map[string]bool)
	var distinct []string
	for _, v := range raw {
		if !seen[v] {
			seen[v] = true
			distinct = append(distinct, v)
		}
	}
	sort.Slice(distinct, func(i, j int) bool {
		return relation.Compare(co, t, distinct[i], distinct[j]) < 0
	})
	rank := make(map[string]int32, len(distinct))
	next := int32(0)
	for i, v := range distinct {
		if i > 0 && relation.Compare(co, t, distinct[i-1], v) != 0 {
			next++
		}
		rank[v] = next
	}
	out := make([]int32, len(raw))
	for i, v := range raw {
		out[i] = rank[v]
	}
	if len(distinct) == 0 {
		return out, 0
	}
	return out, int(next) + 1
}

// TestEncodeMatchesReferenceAtScale differences EncodeSpec against the naive
// reference encoder on every column of three generated relations under every
// order of SpecOrders: ranks and cardinalities must match exactly.
func TestEncodeMatchesReferenceAtScale(t *testing.T) {
	rels := []*relation.Relation{
		datagen.FlightLike(20000, 10, 1),
		datagen.NCVoterLike(3000, 10, 1),
		datagen.MessyRelation(2000, 8, 0.2, 1),
	}
	for _, r := range rels {
		for _, co := range relation.SpecOrders {
			spec := make(relation.OrderSpec, r.NumCols())
			for i := range spec {
				spec[i] = co
			}
			enc, err := relation.EncodeSpec(r, spec)
			if err != nil {
				t.Fatalf("%s under %v: %v", r.Name, co, err)
			}
			for ci, col := range r.Columns {
				want, card := referenceEncode(co, col.Type, col.Raw)
				if !reflect.DeepEqual(enc.Values[ci], want) {
					t.Fatalf("%s column %q (%v) under %v: ranks differ from the reference", r.Name, col.Name, col.Type, co)
				}
				if enc.Cardinality[ci] != card {
					t.Fatalf("%s column %q under %v: cardinality %d, reference %d", r.Name, col.Name, co, enc.Cardinality[ci], card)
				}
			}
		}
	}
}

type ingestShape struct {
	name string
	rel  *relation.Relation
}

// ingestShapes are the relations the ingest benchmarks load: the tall
// flight-like benchmark shape and a high-cardinality ncvoter-like one.
func ingestShapes() []ingestShape {
	return []ingestShape{
		{"flight-20000x10", datagen.FlightLike(20000, 10, 1)},
		{"ncvoter-3000x10", datagen.NCVoterLike(3000, 10, 1)},
	}
}

func BenchmarkReadCSV(b *testing.B) {
	for _, s := range ingestShapes() {
		var buf bytes.Buffer
		if err := relation.WriteCSV(s.rel, &buf); err != nil {
			b.Fatal(err)
		}
		csv := buf.Bytes()
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(csv)))
			for b.Loop() {
				if _, err := relation.ReadCSV("bench", bytes.NewReader(csv)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncode(b *testing.B) {
	for _, s := range ingestShapes() {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := relation.Encode(s.rel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncodeSpec encodes under a non-default spec that cycles through
// SpecOrders column by column, so every collation's key path is timed.
func BenchmarkEncodeSpec(b *testing.B) {
	for _, s := range ingestShapes() {
		spec := make(relation.OrderSpec, s.rel.NumCols())
		for i := range spec {
			spec[i] = relation.SpecOrders[(i+1)%len(relation.SpecOrders)]
		}
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := relation.EncodeSpec(s.rel, spec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
