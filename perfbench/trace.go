package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one benchmark-side call into a layer. Spans of one operation share
// Op; Parent is the ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent"`
	Op     uint64        `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	epoch time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id issues a fresh span or operation identifier (0 when tracing is off).
func (t *tracer) id() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent, op uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	return t.recordID(t.id(), name, parent, op, start, end)
}

// recordID stores a finished span under an ID issued earlier with id, for
// spans whose children are recorded before them.
func (t *tracer) recordID(id uint64, name string, parent, op uint64, start, end time.Time) uint64 {
	if t == nil {
		return 0
	}
	s := span{ID: id, Parent: parent, Op: op, Name: name, Start: start.Sub(t.epoch), End: end.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, per layer (the span name up to its first dot), the
// summed self time of its spans in ms: each span's duration minus the part
// of its interval covered by its children.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[uint64][]span, len(spans))
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		self := s.End - s.Start - covered(s, children[s.ID])
		layer, _, _ := strings.Cut(s.Name, ".")
		out[layer] += ms(self)
	}
	return out
}

// tracedQuarter reports whether quarter q (1..4) of a traced run's window
// records spans: the middle two do, so the untraced first and last quarters
// bracket them.
func tracedQuarter(q int) bool { return q == 2 || q == 3 }

// windowSpans keeps the spans of the measured window's operations, whose
// root spans are the client's ("client.*"), and drops those of the layer
// measurements made after it.
func windowSpans(spans []span) []span {
	ops := make(map[uint64]bool)
	for _, s := range spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "client.") {
			ops[s.Op] = true
		}
	}
	var out []span
	for _, s := range spans {
		if ops[s.Op] {
			out = append(out, s)
		}
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// write saves the spans and their per-layer self times as one JSON file.
func (t *tracer) write(dir, name string) error {
	spans := t.snapshot()
	body, err := json.Marshal(map[string]any{"spans": spans, "self_ms": selfTimes(spans)})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), body, 0o644)
}
