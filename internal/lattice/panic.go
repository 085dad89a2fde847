package lattice

import (
	"fmt"
	"runtime/debug"

	"repro/internal/bitset"
)

// Fault containment. Every goroutine the engine spawns — node visit workers
// and ParallelFor chunk workers — recovers panics instead of letting them
// kill the process: the first recovered panic is latched as a typed
// *PanicError (value, lattice node when known, stack), the cooperative stop
// flag is tripped so sibling workers drain within one node or chunk of work,
// and the traversal returns with Stats.Interrupted set. Clients read the
// latched failure through Engine.Err after RunNodes and propagate it as an
// error instead of a partial result, because a panicked visit may have left
// per-node state inconsistent.
//
// The traversal goroutine itself (level generation, store probes, seeding)
// is covered by a catch-all recover at the top of RunNodes, so a poisoned
// node is contained no matter which goroutine it runs on.

// PanicError is the typed failure recorded when a worker panic was recovered
// during a traversal. It carries the panic value, the lattice node whose
// processing raised it (when known), and the stack captured at recovery.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Node is the lattice node being processed when the panic was raised;
	// only meaningful when HasNode is true (panics outside node processing —
	// e.g. during level generation bookkeeping — have no node).
	Node    bitset.AttrSet
	HasNode bool
	// Stack is the panicking goroutine's stack, captured inside recover.
	Stack []byte
}

func (e *PanicError) Error() string {
	if e.HasNode {
		return "lattice: worker panic at " + PanicContext(e.Node, e.Value)
	}
	return fmt.Sprintf("lattice: worker panic: %v", e.Value)
}

// PanicContext renders a recovered panic value together with the lattice
// node whose processing raised it. The invariant panics deep in
// internal/partition (operands over different relations) and internal/bitset
// (attribute index out of range) cannot name the node — those packages do
// not know which attribute set is being processed — so the engine's recovery
// paths attach it here, making recovered stacks actionable ("node {A,B,D}"
// instead of just row counts).
func PanicContext(node bitset.AttrSet, rec any) string {
	return fmt.Sprintf("node %s: %v", node, rec)
}

// recordPanic latches a recovered panic as the run's failure (first panic
// wins; later ones are necessarily consequences or duplicates) and trips the
// stop flag so every other worker drains at its next chunk or node handout.
// Safe to call from any goroutine.
func (e *Engine) recordPanic(rec any, node bitset.AttrSet, hasNode bool) {
	stack := debug.Stack()
	e.stop.Store(true)
	e.failMu.Lock()
	if e.fail == nil {
		e.fail = &PanicError{Value: rec, Node: node, HasNode: hasNode, Stack: stack}
	}
	e.failMu.Unlock()
}

// trapWorker is the recover sink for worker goroutines with no node context
// (ParallelFor chunk workers running level generation products or client
// fan-outs).
func (e *Engine) trapWorker(rec any) { e.recordPanic(rec, 0, false) }

// trapTraversal is deferred at the top of RunNodes: it contains panics raised
// on the traversal goroutine itself (store probes, prefix joins, seeding) and
// marks the run interrupted, since the loop that normally stamps Interrupted
// was unwound.
func (e *Engine) trapTraversal() {
	if rec := recover(); rec != nil {
		e.recordPanic(rec, 0, false)
		e.stats.Interrupted = true
	}
}

// Err returns the typed *PanicError of the first worker panic this engine
// recovered, or nil if the traversal ran clean. Clients must check it after
// RunNodes and fail the discovery rather than report partial results:
// unlike a budget interrupt, a panic gives no guarantee the per-node state
// merged so far is coherent.
func (e *Engine) Err() error {
	e.failMu.Lock()
	defer e.failMu.Unlock()
	if e.fail == nil {
		return nil
	}
	return e.fail
}
