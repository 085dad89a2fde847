// Package bidir implements bidirectional order dependencies, the second
// extension the paper's conclusion calls for (and the subject of its
// reference [25]): order specifications in which each attribute may be
// ordered ascending or descending, as in SQL "ORDER BY A ASC, B DESC".
//
// The canonical set-based machinery carries over almost unchanged: constancy
// ODs are direction-free, and order compatibility within a context splits
// into two polarities — A and B move together (ascending/ascending, which
// equals descending/descending) or in opposition (ascending/descending).
// Discovery therefore only needs to check both polarities per attribute pair.
package bidir

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/bitset"
	"repro/internal/canonical"
	"repro/internal/lattice"
	"repro/internal/relation"
)

// Direction is the sort direction of one attribute in a specification.
type Direction int

// Sort directions.
const (
	Asc Direction = iota
	Desc
)

// String returns "asc" or "desc".
func (d Direction) String() string {
	if d == Desc {
		return "desc"
	}
	return "asc"
}

// DirectedAttr is one attribute of a bidirectional order specification.
type DirectedAttr struct {
	Attr int
	Dir  Direction
}

// Spec is a bidirectional order specification: a list of attributes each with
// its own direction, defining a lexicographic order.
type Spec []DirectedAttr

// String renders the spec like [0 asc,2 desc].
func (s Spec) String() string {
	parts := make([]string, len(s))
	for i, da := range s {
		parts[i] = fmt.Sprintf("%d %s", da.Attr, da.Dir)
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Names renders the spec like [year asc,salary desc].
func (s Spec) Names(names []string) string {
	parts := make([]string, len(s))
	for i, da := range s {
		name := fmt.Sprintf("#%d", da.Attr)
		if da.Attr >= 0 && da.Attr < len(names) {
			name = names[da.Attr]
		}
		parts[i] = name + " " + da.Dir.String()
	}
	return "[" + strings.Join(parts, ",") + "]"
}

// Compare compares tuples s and t under the bidirectional lexicographic order
// of the spec: negative if s precedes t strictly, zero if the projections are
// equivalent, positive otherwise.
func Compare(enc *relation.Encoded, spec Spec, s, t int) int {
	for _, da := range spec {
		col := enc.Column(da.Attr)
		vs, vt := col[s], col[t]
		if vs == vt {
			continue
		}
		less := vs < vt
		if da.Dir == Desc {
			less = !less
		}
		if less {
			return -1
		}
		return 1
	}
	return 0
}

// Holds reports whether the bidirectional OD X ↦ Y holds: for every pair of
// tuples, s ⪯X t implies s ⪯Y t. It sorts once by (X, Y) and scans, like the
// unidirectional check.
func Holds(enc *relation.Encoded, x, y Spec) bool {
	n := enc.NumRows()
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(i, j int) bool {
		c := Compare(enc, x, order[i], order[j])
		if c != 0 {
			return c < 0
		}
		return order[i] < order[j]
	})
	prevGroupStart := -1
	start := 0
	for i := 1; i <= n; i++ {
		if i < n && Compare(enc, x, order[i], order[start]) == 0 {
			continue
		}
		// Group [start, i): all tuples equal on X must be equal on Y.
		for j := start + 1; j < i; j++ {
			if Compare(enc, y, order[start], order[j]) != 0 {
				return false
			}
		}
		// Successive groups must be non-decreasing on Y.
		if prevGroupStart >= 0 && Compare(enc, y, order[start], order[prevGroupStart]) < 0 {
			return false
		}
		prevGroupStart = start
		start = i
	}
	return true
}

// OrderCompatible reports X ~ Y for bidirectional specifications: XY ↔ YX.
func OrderCompatible(enc *relation.Encoded, x, y Spec) bool {
	xy := append(append(Spec{}, x...), y...)
	yx := append(append(Spec{}, y...), x...)
	return Holds(enc, xy, yx) && Holds(enc, yx, xy)
}

// Polarity describes how two attributes relate within a context.
type Polarity int

// Polarities of an order-compatibility relationship.
const (
	// SameDirection means ascending/ascending (equivalently
	// descending/descending) compatibility: the attributes move together.
	SameDirection Polarity = iota
	// OppositeDirection means ascending/descending compatibility: one
	// attribute rises while the other falls.
	OppositeDirection
)

// String returns "same" or "opposite".
func (p Polarity) String() string {
	if p == OppositeDirection {
		return "opposite"
	}
	return "same"
}

// OD is a bidirectional canonical OD. Constancy ODs are identical to the
// unidirectional ones (direction is irrelevant when a value is constant);
// order-compatibility ODs additionally carry a polarity.
type OD struct {
	Context bitset.AttrSet
	Kind    canonical.Kind
	A, B    int
	// Polarity is meaningful only for order-compatibility ODs.
	Polarity Polarity
}

// NewConstancy builds ctx: [] ↦ a.
func NewConstancy(ctx bitset.AttrSet, a int) OD {
	return OD{Context: ctx, Kind: canonical.Constancy, A: a}
}

// NewOrderCompatible builds ctx: a ~ b with the given polarity, normalizing
// the pair so that A < B (polarity is symmetric under swapping the pair).
func NewOrderCompatible(ctx bitset.AttrSet, a, b int, p Polarity) OD {
	pair := bitset.NewPair(a, b)
	return OD{Context: ctx, Kind: canonical.OrderCompatible, A: pair.A, B: pair.B, Polarity: p}
}

// IsTrivial mirrors the unidirectional notion of triviality.
func (od OD) IsTrivial() bool {
	switch od.Kind {
	case canonical.Constancy:
		return od.Context.Contains(od.A)
	case canonical.OrderCompatible:
		return od.A == od.B || od.Context.Contains(od.A) || od.Context.Contains(od.B)
	default:
		return false
	}
}

// String renders the OD with attribute indexes.
func (od OD) String() string {
	if od.Kind == canonical.Constancy {
		return fmt.Sprintf("%s: [] -> %d", od.Context, od.A)
	}
	return fmt.Sprintf("%s: %d ~ %d (%s)", od.Context, od.A, od.B, od.Polarity)
}

// NamesString renders the OD with attribute names.
func (od OD) NamesString(names []string) string {
	name := func(a int) string {
		if a >= 0 && a < len(names) {
			return names[a]
		}
		return fmt.Sprintf("#%d", a)
	}
	if od.Kind == canonical.Constancy {
		return fmt.Sprintf("%s: [] -> %s", od.Context.Names(names), name(od.A))
	}
	return fmt.Sprintf("%s: %s ~ %s (%s)", od.Context.Names(names), name(od.A), name(od.B), od.Polarity)
}

// Holds checks a bidirectional canonical OD directly against the instance.
func (od OD) Holds(enc *relation.Encoded) (bool, error) {
	if err := checkAttrs(enc, od); err != nil {
		return false, err
	}
	if od.IsTrivial() {
		return true, nil
	}
	ctx := canonical.ContextPartition(enc, od.Context)
	switch od.Kind {
	case canonical.Constancy:
		return ctx.ConstantInClasses(enc.Column(od.A)), nil
	case canonical.OrderCompatible:
		colB := enc.Column(od.B)
		if od.Polarity == OppositeDirection {
			colB = reverseRanks(colB)
		}
		return !ctx.HasSwap(enc.Column(od.A), colB), nil
	default:
		return false, fmt.Errorf("bidir: unknown kind %v", od.Kind)
	}
}

// reverseRanks flips a rank-encoded column so that descending order on the
// original equals ascending order on the result. It flips around the
// column's largest rank rather than its Cardinality-1: row views
// (Encoded.HeadRows, SelectRows) keep the parent's sparse ranks, and the
// partition kernels need the flipped ranks non-negative.
func reverseRanks(col []int32) []int32 {
	top := int32(0)
	for _, v := range col {
		if v > top {
			top = v
		}
	}
	out := make([]int32, len(col))
	for i, v := range col {
		out[i] = top - v
	}
	return out
}

func checkAttrs(enc *relation.Encoded, od OD) error {
	check := func(a int) error {
		if a < 0 || a >= enc.NumCols() {
			return fmt.Errorf("bidir: attribute %d out of range for relation with %d columns", a, enc.NumCols())
		}
		return nil
	}
	for _, a := range od.Context.Attrs() {
		if err := check(a); err != nil {
			return err
		}
	}
	if err := check(od.A); err != nil {
		return err
	}
	if od.Kind == canonical.OrderCompatible {
		return check(od.B)
	}
	return nil
}

// Options configures bidirectional discovery.
type Options struct {
	// MaxLevel, when positive, bounds the processed lattice level.
	MaxLevel int
	// Workers is the number of goroutines processing lattice nodes, with the
	// same convention as core.Options.Workers (0 = GOMAXPROCS, 1 =
	// sequential). The output is identical regardless of the setting.
	Workers int
	// Budget bounds the run's wall-clock time and visited lattice nodes; see
	// core.Options.Budget for the interrupt semantics.
	Budget lattice.Budget
	// Progress, when non-nil, receives one event per completed lattice level;
	// see core.Options.Progress.
	Progress func(lattice.ProgressEvent)
	// Partitions, when non-nil, shares stripped partitions with other runs
	// over the same relation; see core.Options.Partitions.
	Partitions *lattice.PartitionStore
}

// Result is the outcome of bidirectional discovery.
type Result struct {
	ODs          []OD
	Elapsed      time.Duration
	NodesVisited int
	// Stats carries the engine's traversal counters (nodes, partition store
	// hits/misses, interruption).
	Stats lattice.Stats
	// Interrupted reports that the run stopped early on context cancellation
	// or budget exhaustion; ODs then holds everything found up to the
	// interrupt.
	Interrupted bool
}

// Discover finds the minimal bidirectional canonical ODs of a relation:
// constancy ODs exactly as in the unidirectional case plus, for every
// attribute pair and context, whether the pair is order compatible in the
// same direction, in opposite directions, or both (which only happens when
// one attribute is constant within the context — then Propagate already makes
// the OD non-minimal). Minimality follows the unidirectional rules: no subset
// context may satisfy the same OD (with the same polarity) and neither paired
// attribute may be constant in the context.
func Discover(enc *relation.Encoded, opts Options) (*Result, error) {
	//lint:allow ctxfirst convenience wrapper kept for callers that cannot cancel; DiscoverContext is the cancellable entry point
	return DiscoverContext(context.Background(), enc, opts)
}

// DiscoverContext is Discover with cooperative cancellation and budgeting
// (see core.DiscoverContext): an interrupted run returns the bidirectional
// ODs found so far with Interrupted set instead of an error.
func DiscoverContext(ctx context.Context, enc *relation.Encoded, opts Options) (*Result, error) {
	if enc == nil || enc.NumCols() == 0 {
		return nil, fmt.Errorf("bidir: empty relation")
	}
	if enc.NumCols() > bitset.MaxAttrs {
		return nil, fmt.Errorf("bidir: relation has %d columns, maximum is %d", enc.NumCols(), bitset.MaxAttrs)
	}
	start := time.Now()
	n := enc.NumCols()
	res := &Result{}

	eng, err := lattice.New(enc, lattice.Config{
		Ctx:        ctx,
		Workers:    opts.Workers,
		MaxLevel:   opts.MaxLevel,
		Budget:     opts.Budget,
		Store:      opts.Partitions,
		OnProgress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}

	type polKey struct {
		pair bitset.Pair
		pol  Polarity
	}
	satisfiedConst := make(map[int][]bitset.AttrSet)
	satisfiedOC := make(map[polKey][]bitset.AttrSet)
	hasSubset := func(list []bitset.AttrSet, ctx bitset.AttrSet) bool {
		for _, s := range list {
			if s.IsSubsetOf(ctx) {
				return true
			}
		}
		return false
	}

	// Pre-reverse every column once for the opposite-direction checks.
	reversed := make([][]int32, n)
	for a := 0; a < n; a++ {
		reversed[a] = reverseRanks(enc.Column(a))
	}

	// Node-reentrant discovery with shared satisfied-lists under one mutex.
	// The minimality gates stay schedule-independent: an entry S relevant to
	// node X (S ⊆ context ⊂ X) was discovered at the node S ∪ {checked
	// attrs}, a subset of X — and the level barrier guarantees every subset
	// of X completed (and published its discoveries) before X starts. Entries
	// from concurrently running nodes of X's level are never subsets of X's
	// contexts, so they cannot flip a gate; the lock only makes the slice
	// reads safe. Each visit evaluates its gates under the lock, runs the
	// expensive partition checks off it, and publishes its discoveries before
	// completing.
	type constCand struct {
		a   int
		ctx bitset.AttrSet
	}
	type ocCand struct {
		a, b int
		ctx  bitset.AttrSet
		pol  Polarity
	}
	var mu sync.Mutex
	lattice.RunNodes(eng, struct{}{}, func(wk int, n lattice.Node, _ []*struct{}) (struct{}, bool) {
		x := n.Set
		scratch := eng.Scratch(wk)
		attrs := x.Attrs()
		var constCands []constCand
		var ocCands []ocCand
		mu.Lock()
		for _, a := range attrs {
			ctx := x.Remove(a)
			if !hasSubset(satisfiedConst[a], ctx) {
				constCands = append(constCands, constCand{a: a, ctx: ctx})
			}
		}
		if n.Level >= 2 {
			for p := 0; p < len(attrs); p++ {
				for q := p + 1; q < len(attrs); q++ {
					a, b := attrs[p], attrs[q]
					ctx := x.Remove(a).Remove(b)
					if hasSubset(satisfiedConst[a], ctx) || hasSubset(satisfiedConst[b], ctx) {
						continue // Propagate: constant attributes are compatible both ways
					}
					pair := bitset.NewPair(a, b)
					for _, pol := range []Polarity{SameDirection, OppositeDirection} {
						if !hasSubset(satisfiedOC[polKey{pair: pair, pol: pol}], ctx) {
							ocCands = append(ocCands, ocCand{a: a, b: b, ctx: ctx, pol: pol})
						}
					}
				}
			}
		}
		mu.Unlock()

		var found []OD
		for _, c := range constCands {
			if n.SubPartition(c.a).ConstantInClasses(enc.Column(c.a)) {
				found = append(found, NewConstancy(c.ctx, c.a))
			}
		}
		for _, c := range ocCands {
			colB := enc.Column(c.b)
			if c.pol == OppositeDirection {
				colB = reversed[c.b]
			}
			if !n.SubSubPartition(c.a, c.b).HasSwapWith(enc.Column(c.a), colB, scratch) {
				found = append(found, NewOrderCompatible(c.ctx, c.a, c.b, c.pol))
			}
		}

		if len(found) > 0 {
			mu.Lock()
			for _, od := range found {
				res.ODs = append(res.ODs, od)
				if od.Kind == canonical.Constancy {
					satisfiedConst[od.A] = append(satisfiedConst[od.A], od.Context)
				} else {
					key := polKey{pair: bitset.NewPair(od.A, od.B), pol: od.Polarity}
					satisfiedOC[key] = append(satisfiedOC[key], od.Context)
				}
			}
			mu.Unlock()
		}
		return struct{}{}, false
	})
	if err := eng.Err(); err != nil {
		// A recovered worker panic: fail the discovery rather than report a
		// possibly incoherent partial.
		return nil, err
	}
	res.Stats = eng.Stats()
	res.NodesVisited = res.Stats.NodesVisited
	res.Interrupted = res.Stats.Interrupted

	sort.Slice(res.ODs, func(i, j int) bool { return less(res.ODs[i], res.ODs[j]) })
	res.Elapsed = time.Since(start)
	return res, nil
}

func less(a, b OD) bool {
	if a.Context.Len() != b.Context.Len() {
		return a.Context.Len() < b.Context.Len()
	}
	if a.Context != b.Context {
		return a.Context < b.Context
	}
	if a.Kind != b.Kind {
		return a.Kind < b.Kind
	}
	if a.A != b.A {
		return a.A < b.A
	}
	if a.B != b.B {
		return a.B < b.B
	}
	return a.Polarity < b.Polarity
}
