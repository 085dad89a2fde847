// Package faultinject provides deterministic fault injection for the
// discovery engine and the odserve service.
//
// Production code calls Fire (or Hit) at named injection points threaded
// into the hot paths: partition derivation, partition-store lookups and
// evictions, lattice node dispatch, CSV decoding and SSE writes.
// When no plan is armed — the production state — Fire is a single atomic
// pointer load that returns nil; no locks, no allocation, no time reads.
//
// Tests arm a Plan describing, per point, which hit should fire and what
// should happen: a panic (exercising the engine's containment layer), an
// error (exercising graceful-degradation paths), or a delay (exercising
// budget/interrupt paths). Schedules are deterministic: rules trigger on
// exact per-point hit counts, so a seeded test reproduces byte-identically.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// Point names a registered injection site. Points are plain strings so new
// sites need no central registry edit, but the canonical engine/service
// sites are declared below and swept by the chaos suite.
type Point string

// Canonical injection points. Keep in sync with the chaos suite sweep.
const (
	// PartitionProduct fires before a lattice node's stripped partition is
	// derived — its smallest immediate subset refined by one rank column,
	// Π(X) = Π(X\{A})·Π(A) — during level generation. The name predates
	// the refinement kernel and is kept so existing fault plans stay valid.
	PartitionProduct Point = "partition.product"
	// StoreGet fires inside PartitionStore.Get before the lookup.
	StoreGet Point = "store.get"
	// StoreEvict fires inside the store's evictOne before a victim is
	// chosen.
	StoreEvict Point = "store.evict"
	// NodeDispatch fires when the lattice engine hands a node of the current
	// level to a worker, before the node's visit.
	NodeDispatch Point = "node.dispatch"
	// NodeSteal has no hit site: the lattice engine does not steal work.
	// The chaos suite arms it as its unreached-point control — a plan on a
	// point no run passes must never fire and must leave every result
	// unchanged. faultpoint:test-only
	NodeSteal Point = "node.steal"
	// CSVDecode fires at the head of CSV decoding (relation.ReadCSV).
	CSVDecode Point = "csv.decode"
	// SSEWrite fires before each SSE progress frame is written.
	SSEWrite Point = "sse.write"
)

// EnginePoints are the injection points that live inside a discovery run
// (as opposed to the service I/O points). The chaos suite sweeps these.
var EnginePoints = []Point{PartitionProduct, StoreGet, StoreEvict, NodeDispatch}

// Action selects what an armed rule does when it triggers.
type Action uint8

const (
	// ActionPanic panics with a *Panicked value carrying the point.
	ActionPanic Action = iota
	// ActionError makes Fire return an error wrapping ErrInjected.
	ActionError
	// ActionDelay sleeps for Rule.Delay, then behaves as a no-op.
	ActionDelay
)

func (a Action) String() string {
	switch a {
	case ActionPanic:
		return "panic"
	case ActionError:
		return "error"
	case ActionDelay:
		return "delay"
	default:
		return fmt.Sprintf("action(%d)", uint8(a))
	}
}

// ErrInjected is the sentinel wrapped by every error Fire returns; callers
// and tests match it with errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Panicked is the value ActionPanic panics with, so recovery layers and
// tests can recognize an injected panic and report which point raised it.
type Panicked struct {
	Point Point
	Hit   int64
}

func (p *Panicked) String() string {
	return fmt.Sprintf("faultinject: injected panic at %s (hit %d)", p.Point, p.Hit)
}

// Rule arms one behavior at one point.
type Rule struct {
	Point  Point
	Action Action
	// After is how many hits at Point pass untouched before the rule
	// starts firing: 0 fires on the very first hit, 2 on the third.
	After int64
	// Times bounds how many hits fire once the rule is active;
	// 0 means every subsequent hit fires.
	Times int64
	// Delay is the sleep duration for ActionDelay.
	Delay time.Duration
}

// Plan is a set of armed rules plus per-point hit accounting.
type Plan struct {
	rules map[Point][]Rule
	hits  map[Point]*atomic.Int64
	fired atomic.Int64
}

// NewPlan builds a plan from rules. Multiple rules per point are allowed;
// the first matching rule (in argument order) wins per hit.
func NewPlan(rules ...Rule) *Plan {
	p := &Plan{
		rules: make(map[Point][]Rule, len(rules)),
		hits:  make(map[Point]*atomic.Int64, len(rules)),
	}
	for _, r := range rules {
		p.rules[r.Point] = append(p.rules[r.Point], r)
		if p.hits[r.Point] == nil {
			p.hits[r.Point] = new(atomic.Int64)
		}
	}
	return p
}

// Seeded derives a deterministic one-rule plan for point: the seed picks
// which hit (within the first maxAfter+1) triggers the action. Chaos tests
// use it to vary where in a traversal a fault lands without losing
// reproducibility.
func Seeded(seed int64, point Point, action Action, maxAfter int64, delay time.Duration) *Plan {
	rng := rand.New(rand.NewSource(seed))
	after := int64(0)
	if maxAfter > 0 {
		after = rng.Int63n(maxAfter + 1)
	}
	return NewPlan(Rule{Point: point, Action: action, After: after, Times: 1, Delay: delay})
}

// Hits reports how many times point was reached while this plan was armed.
func (p *Plan) Hits(point Point) int64 {
	c := p.hits[point]
	if c == nil {
		return 0
	}
	return c.Load()
}

// Fired reports how many rule activations (panics, errors, delays) this
// plan has produced.
func (p *Plan) Fired() int64 { return p.fired.Load() }

// active is the armed plan; nil in production. Fire's fast path is this
// single atomic load.
var active atomic.Pointer[Plan]

// Enable arms plan process-wide and returns a disarm func. Exactly one
// plan may be armed at a time; arming over a live plan panics, because two
// overlapping chaos tests would corrupt each other's schedules.
func Enable(p *Plan) (disarm func()) {
	if p == nil {
		panic("faultinject: Enable(nil)")
	}
	if !active.CompareAndSwap(nil, p) {
		panic("faultinject: a plan is already armed")
	}
	return func() { active.CompareAndSwap(p, nil) }
}

// Enabled reports whether a plan is currently armed. The engine's chaos
// suite uses it to guard debug-only bookkeeping.
func Enabled() bool { return active.Load() != nil }

// Fire consults the armed plan at point. Disarmed (the production state)
// it returns nil after one atomic load. Armed, it counts the hit and
// applies the first matching rule: ActionPanic panics with *Panicked,
// ActionError returns an error wrapping ErrInjected, ActionDelay sleeps
// and returns nil.
func Fire(point Point) error {
	p := active.Load()
	if p == nil {
		return nil
	}
	return p.fire(point)
}

// Hit is Fire for call sites with no error path: an ActionError rule at
// such a point escalates to a panic (which the engine contains), so every
// registered point can express all three actions.
func Hit(point Point) {
	if err := Fire(point); err != nil {
		panic(&Panicked{Point: point, Hit: activeHits(point)})
	}
}

func activeHits(point Point) int64 {
	if p := active.Load(); p != nil {
		return p.Hits(point)
	}
	return 0
}

func (p *Plan) fire(point Point) error {
	rules := p.rules[point]
	if len(rules) == 0 {
		return nil
	}
	n := p.hits[point].Add(1)
	for _, r := range rules {
		if n <= r.After {
			continue
		}
		if r.Times > 0 && n > r.After+r.Times {
			continue
		}
		p.fired.Add(1)
		switch r.Action {
		case ActionPanic:
			panic(&Panicked{Point: point, Hit: n})
		case ActionError:
			return fmt.Errorf("%w at %s (hit %d)", ErrInjected, point, n)
		case ActionDelay:
			time.Sleep(r.Delay)
			return nil
		}
	}
	return nil
}
