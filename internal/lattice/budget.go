package lattice

import "time"

// Budget bounds the resources one discovery run may consume. It is the
// generalization of the wall-clock/node budget the ORDER baseline always had
// (its factorial search space forced the issue early); with the unified
// engine every level-wise algorithm honors the same two knobs. The zero value
// means "no budget".
//
// A run that exhausts its budget is interrupted, not failed: it stops
// cooperatively, keeps everything discovered so far and reports
// Stats.Interrupted, so a server can always afford to issue a discovery call
// on an arbitrarily wide schema.
type Budget struct {
	// Timeout interrupts the run after the given wall-clock duration
	// (0 = none). The deadline is checked at level barriers, at every node
	// handout and between ParallelFor chunk handouts, so the interrupt
	// latency is bounded by one node per worker, not one lattice level.
	Timeout time.Duration
	// MaxNodes interrupts the run once it has visited this many lattice
	// nodes (0 = none). It is enforced at node handout: at most MaxNodes
	// nodes are ever handed to visit, and the level that reaches the bound
	// is left partially visited.
	MaxNodes int
}

// IsZero reports whether the budget imposes no bound at all.
func (b Budget) IsZero() bool { return b.Timeout <= 0 && b.MaxNodes <= 0 }

// ProgressEvent is one per-level progress report of a traversal, delivered to
// Config.OnProgress at every level barrier. Long discoveries on wide schemas
// can run for minutes; the event stream is what lets a caller render a
// progress bar, enforce its own policies, or decide to cancel the context.
type ProgressEvent struct {
	// Level is the lattice level that just completed (for the set lattice,
	// the size of the attribute sets processed; for ORDER's list lattice, the
	// length of the attribute lists).
	Level int
	// Nodes is the number of lattice nodes visited at this level.
	Nodes int
	// NodesVisited is the cumulative number of nodes visited so far.
	NodesVisited int
	// PartitionsCached is the number of stripped partitions currently
	// retained: the shared store's size when one is configured, otherwise the
	// partitions in the run's level table. Zero for algorithms that do not use
	// partitions (ORDER).
	PartitionsCached int
	// Elapsed is the wall-clock time since the run started.
	Elapsed time.Duration
	// Slice identifies the condition slice a conditional-discovery event
	// reports on (nil for unconditional traversals and for the global pass of
	// a conditional run). Conditional discovery emits one event per completed
	// slice with Level = the slice-progress marker; Slice carries which
	// condition that was.
	Slice *SliceInfo
}

// SliceInfo describes one condition slice of a conditional discovery run: the
// equality condition defining it and how many rows satisfy it.
type SliceInfo struct {
	// Attr is the condition attribute (column index) and Value the encoded
	// value the slice fixes it to.
	Attr  int
	Value int32
	// Rows is the number of rows in the slice.
	Rows int
}
