package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"strconv"

	fastod "repro"
	"repro/internal/relation"
)

// signature identifies a set of dependencies independently of their order:
// the count and the wrapping sum of the FNV-1a hashes of their textual forms.
type signature struct {
	count int
	hash  uint64
}

func (s *signature) add(item string) {
	h := fnv.New64a()
	h.Write([]byte(item))
	s.count++
	s.hash += h.Sum64()
}

func signatureOf(items []string) signature {
	var s signature
	for _, it := range items {
		s.add(it)
	}
	return s
}

func (s signature) String() string { return fmt.Sprintf("%d/%016x", s.count, s.hash) }

// corrupt returns a signature no real output can match, for the smoke test.
func (s signature) corrupt() signature { return signature{count: s.count, hash: s.hash ^ 1} }

// renderReport renders a report's dependencies the way the HTTP service puts
// them on the wire (internal/server's "od" and "error" fields), so a direct
// Dataset.Run can be compared with a served response.
func renderReport(rep *fastod.Report, names []string) ([]string, error) {
	var out []string
	switch {
	case rep.FASTOD != nil:
		for _, od := range rep.FASTOD.ODs {
			out = append(out, od.NamesString(names))
		}
	case rep.TANE != nil:
		for _, fd := range rep.TANE.FDs {
			out = append(out, fd.NamesString(names))
		}
	case rep.Approx != nil:
		for _, d := range rep.Approx.ODs {
			out = append(out, approxItem(d.OD.NamesString(names), d.Error.Rate))
		}
	case rep.Bidir != nil:
		for _, od := range rep.Bidir.ODs {
			out = append(out, od.NamesString(names))
		}
	default:
		return nil, fmt.Errorf("report of algorithm %q has no payload this benchmark renders", rep.Algorithm)
	}
	return out, nil
}

func approxItem(od string, rate float64) string {
	return od + "|" + strconv.FormatFloat(rate, 'g', -1, 64)
}

// checkAgainstOracle runs the default FASTOD request on ds and compares its
// ODs with the brute-force reference discoverer (canonical.ReferenceDiscover
// behind Dataset.ReferenceDiscover).
func checkAgainstOracle(ctx context.Context, ds *fastod.Dataset) error {
	rep, err := ds.Run(ctx, fastod.Request{})
	if err != nil {
		return err
	}
	ref, err := ds.ReferenceDiscover()
	if err != nil {
		return err
	}
	var got, want signature
	for _, od := range rep.FASTOD.ODs {
		got.add(od.String())
	}
	for _, od := range ref {
		want.add(od.String())
	}
	if got != want {
		return fmt.Errorf("FASTOD on a %dx%d head gives %v, the reference discoverer %v", ds.NumRows(), ds.NumCols(), got, want)
	}
	return nil
}

func csvBytes(r *relation.Relation) ([]byte, error) {
	var b bytes.Buffer
	if err := relation.WriteCSV(r, &b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}
