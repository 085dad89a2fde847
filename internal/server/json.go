package server

import (
	"fmt"
	"time"

	fastod "repro"
	"repro/internal/reportcache"
)

// The wire types of the service: a JSON mirror of fastod.Request on the way
// in, and a flattened, renderer-backed view of fastod.Report on the way out.
// Dependencies travel as their textual form (the same syntax the CLIs print
// and internal/odparse parses) rather than as index-level structs — the
// server knows the column names, the client usually does not.

// DiscoverRequest is the JSON mirror of fastod.Request. The per-request
// deadline travels as timeout_ms and is mapped onto both Budget.Timeout and
// the run's context; max_nodes bounds visited lattice nodes. Absent fields
// take the library defaults, and both budget knobs are clamped to the
// server-side cap (see Config.MaxBudget) before the run starts.
type DiscoverRequest struct {
	Algorithm string `json:"algorithm,omitempty"`
	Workers   int    `json:"workers,omitempty"`
	MaxLevel  int    `json:"max_level,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	MaxNodes  int    `json:"max_nodes,omitempty"`

	// OrderSpecs override per-column ordering semantics for the run. The
	// entries become Request.OrderSpecs and therefore part of the report-cache
	// key: two requests differing only here never share a cached report.
	OrderSpecs []OrderSpecJSON `json:"order_specs,omitempty"`

	FASTOD      *FASTODOptions      `json:"fastod,omitempty"`
	Approx      *ApproxOptions      `json:"approx,omitempty"`
	Conditional *ConditionalOptions `json:"conditional,omitempty"`
}

// OrderSpecJSON is the wire form of one fastod.AttrOrder. The enums travel as
// their textual spellings ("asc"/"desc", "first"/"last", "lexicographic",
// "numeric", "date", "case-insensitive", "rank"; case-insensitive, empty =
// default); Ranks carries the value list of the rank collation, lowest first.
type OrderSpecJSON struct {
	Column    string   `json:"column"`
	Direction string   `json:"direction,omitempty"`
	Nulls     string   `json:"nulls,omitempty"`
	Collation string   `json:"collation,omitempty"`
	Ranks     []string `json:"ranks,omitempty"`
}

// toAttrOrder parses the textual enum spellings. Failures are client errors:
// the caller maps them onto HTTP 400.
func (o OrderSpecJSON) toAttrOrder() (fastod.AttrOrder, error) {
	dir, err := fastod.ParseOrderDirection(o.Direction)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	nulls, err := fastod.ParseNullOrder(o.Nulls)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	coll, err := fastod.ParseCollation(o.Collation)
	if err != nil {
		return fastod.AttrOrder{}, fmt.Errorf("order_specs entry %q: %w", o.Column, err)
	}
	return fastod.AttrOrder{
		Column:    o.Column,
		Direction: dir,
		Nulls:     nulls,
		Collation: coll,
		Ranks:     o.Ranks,
	}, nil
}

// FASTODOptions mirrors fastod.FASTODRunOptions.
type FASTODOptions struct {
	DisablePruning     bool `json:"disable_pruning,omitempty"`
	DisableKeyPruning  bool `json:"disable_key_pruning,omitempty"`
	DisableNodePruning bool `json:"disable_node_pruning,omitempty"`
	NaiveSwapCheck     bool `json:"naive_swap_check,omitempty"`
	CountOnly          bool `json:"count_only,omitempty"`
	CollectLevelStats  bool `json:"collect_level_stats,omitempty"`
}

// ApproxOptions mirrors fastod.ApproxRunOptions.
type ApproxOptions struct {
	Threshold float64 `json:"threshold"`
}

// ConditionalOptions mirrors fastod.ConditionalRunOptions.
type ConditionalOptions struct {
	MaxConditionCardinality int   `json:"max_condition_cardinality,omitempty"`
	MinSliceRows            int   `json:"min_slice_rows,omitempty"`
	ConditionAttrs          []int `json:"condition_attrs,omitempty"`
}

// toRequest maps the wire request onto the library envelope. The only
// validation here is parsing the textual order-spec enums (the mapping cannot
// exist without it); everything else is Request.Validate's, so invalid values
// (negative workers, out-of-range thresholds) surface as typed 400s, not
// decode quirks.
func (q DiscoverRequest) toRequest() (fastod.Request, error) {
	req := fastod.Request{
		Algorithm: fastod.Algorithm(q.Algorithm),
		RunOptions: fastod.RunOptions{
			Workers:  q.Workers,
			MaxLevel: q.MaxLevel,
			Budget: fastod.Budget{
				Timeout:  time.Duration(q.TimeoutMS) * time.Millisecond,
				MaxNodes: q.MaxNodes,
			},
		},
	}
	for _, o := range q.OrderSpecs {
		ao, err := o.toAttrOrder()
		if err != nil {
			return fastod.Request{}, err
		}
		req.OrderSpecs = append(req.OrderSpecs, ao)
	}
	if q.FASTOD != nil {
		req.FASTOD = fastod.FASTODRunOptions{
			DisablePruning:     q.FASTOD.DisablePruning,
			DisableKeyPruning:  q.FASTOD.DisableKeyPruning,
			DisableNodePruning: q.FASTOD.DisableNodePruning,
			NaiveSwapCheck:     q.FASTOD.NaiveSwapCheck,
			CountOnly:          q.FASTOD.CountOnly,
			CollectLevelStats:  q.FASTOD.CollectLevelStats,
		}
	}
	if q.Approx != nil {
		req.Approx = fastod.ApproxRunOptions{Threshold: q.Approx.Threshold}
	}
	if q.Conditional != nil {
		req.Conditional = fastod.ConditionalRunOptions{
			MaxConditionCardinality: q.Conditional.MaxConditionCardinality,
			MinSliceRows:            q.Conditional.MinSliceRows,
			ConditionAttrs:          q.Conditional.ConditionAttrs,
		}
	}
	return req, nil
}

// ColumnInfo is the per-column schema entry of DatasetInfo: the sniffed (or
// declared) type that drives the default collation, and the default order the
// column is encoded under — what an order_specs entry would override.
type ColumnInfo struct {
	Name         string `json:"name"`
	Type         string `json:"type"`
	DefaultOrder string `json:"default_order"`
}

// DatasetInfo describes one resident dataset. Schema is returned both by the
// upload response and GET /v1/datasets/{name}, so clients can inspect the
// sniffed types before choosing order_specs overrides.
type DatasetInfo struct {
	Name    string       `json:"name"`
	Rows    int          `json:"rows"`
	Columns []string     `json:"columns"`
	Schema  []ColumnInfo `json:"schema"`
}

func datasetInfo(name string, ds *fastod.Dataset) DatasetInfo {
	names, types := ds.ColumnNames(), ds.ColumnTypes()
	schema := make([]ColumnInfo, len(names))
	for i, n := range names {
		schema[i] = ColumnInfo{Name: n, Type: types[i], DefaultOrder: "asc nulls first"}
	}
	return DatasetInfo{Name: name, Rows: ds.NumRows(), Columns: names, Schema: schema}
}

// DatasetList is the response of GET /v1/datasets.
type DatasetList struct {
	Datasets []DatasetInfo `json:"datasets"`
}

// BudgetInfo reports the budget a run was actually subject to, after the
// server-side cap.
type BudgetInfo struct {
	TimeoutMS int64 `json:"timeout_ms"`
	MaxNodes  int   `json:"max_nodes"`
}

// StatsInfo mirrors fastod.RunStats.
type StatsInfo struct {
	NodesVisited    int `json:"nodes_visited"`
	MaxLevelReached int `json:"max_level_reached"`
	PartitionHits   int `json:"partition_hits"`
	PartitionMisses int `json:"partition_misses"`
}

// CountInfo is the paper-style tally of discovered canonical ODs.
type CountInfo struct {
	Total       int `json:"total"`
	Constancy   int `json:"constancy"`
	OrderCompat int `json:"order_compatible"`
}

// Dependency is one discovered dependency rendered over column names. OD uses
// the parseable textual syntax of the CLIs; Error and Condition are filled by
// the approximate and conditional algorithms respectively.
type Dependency struct {
	OD string `json:"od"`
	// Error is the measured error rate of an approximate OD.
	Error *float64 `json:"error,omitempty"`
	// Condition and Rows describe the slice a conditional OD holds on.
	Condition string `json:"condition,omitempty"`
	Rows      int    `json:"rows,omitempty"`
}

// DiscoverResponse is the response of the discover endpoints: the effective
// run parameters (workers after resolution, budget after the cap), the
// interrupted flag of the partial-result contract, unified stats, and the
// dependencies rendered over the dataset's column names.
type DiscoverResponse struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	// Workers is the effective worker count of the run (after resolving the
	// requested value; 0 selects all CPUs), not the raw request value.
	Workers int        `json:"workers"`
	Budget  BudgetInfo `json:"budget"`
	// Interrupted reports the run was cut short by its budget or deadline;
	// Dependencies then hold everything discovered before the interrupt.
	Interrupted bool `json:"interrupted"`
	// Cached reports the response was served from the report cache: no run
	// happened, and ElapsedMS/Stats describe the original cached run. Always
	// present (not omitempty) so clients and smoke tests can assert both
	// polarities.
	Cached    bool       `json:"cached"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Stats     StatsInfo  `json:"stats"`
	Counts    *CountInfo `json:"counts,omitempty"`
	// Count is len(Dependencies), except in count-only mode where it reports
	// the tally of a run that materialized nothing.
	Count        int          `json:"count"`
	Dependencies []Dependency `json:"dependencies"`
	// SlicesExamined counts processed condition slices (conditional only).
	SlicesExamined int `json:"slices_examined,omitempty"`
}

// ProgressEvent is the SSE form of fastod.ProgressEvent. Slice marks the
// per-condition-slice events of conditional runs (their Level is the
// SliceProgressLevel sentinel, not a lattice level); such events also carry
// the condition that defined the slice — attribute index, encoded value rank
// and selected row count — so stream consumers can show which binding is
// being processed, not just that one finished.
type ProgressEvent struct {
	Level            int     `json:"level"`
	Slice            bool    `json:"slice,omitempty"`
	ConditionAttr    *int    `json:"condition_attr,omitempty"`
	ConditionValue   *int32  `json:"condition_value,omitempty"`
	SliceRows        int     `json:"slice_rows,omitempty"`
	Nodes            int     `json:"nodes"`
	NodesVisited     int     `json:"nodes_visited"`
	PartitionsCached int     `json:"partitions_cached"`
	ElapsedMS        float64 `json:"elapsed_ms"`
}

func progressEvent(ev fastod.ProgressEvent) ProgressEvent {
	out := ProgressEvent{
		Level:            ev.Level,
		Slice:            ev.Level == fastod.SliceProgressLevel,
		Nodes:            ev.Nodes,
		NodesVisited:     ev.NodesVisited,
		PartitionsCached: ev.PartitionsCached,
		ElapsedMS:        ms(ev.Elapsed),
	}
	if ev.Slice != nil {
		// Pointers rather than omitempty values: attribute 0 and value rank 0
		// are legitimate conditions that must not vanish from the wire.
		attr, value := ev.Slice.Attr, ev.Slice.Value
		out.ConditionAttr = &attr
		out.ConditionValue = &value
		out.SliceRows = ev.Slice.Rows
	}
	return out
}

// CacheStatsInfo mirrors reportcache.Stats on the wire (the /healthz body),
// the report-cache analog of the partition store's StoreStats.
type CacheStatsInfo struct {
	Hits         int `json:"hits"`
	Misses       int `json:"misses"`
	Puts         int `json:"puts"`
	Rejects      int `json:"rejects"`
	Evictions    int `json:"evictions"`
	Entries      int `json:"entries"`
	CostBytes    int `json:"cost_bytes"`
	MaxCostBytes int `json:"max_cost_bytes"`
}

// RuntimeInfo is the process-health slice of /healthz: live goroutine and
// heap gauges next to the counters that record how often the server has had
// to contain a failure (internal_errors) or shed load (shed_requests).
type RuntimeInfo struct {
	Goroutines     int    `json:"goroutines"`
	HeapBytes      uint64 `json:"heap_bytes"`
	HeapLimitBytes uint64 `json:"heap_limit_bytes,omitempty"`
	InternalErrors int64  `json:"internal_errors"`
	ShedRequests   int64  `json:"shed_requests"`
}

// HealthResponse is the response of GET /healthz. Status is "ok" normally and
// "degraded" while the heap sits over the soft memory limit (new discover
// requests are then shed with 503).
type HealthResponse struct {
	Status      string         `json:"status"`
	ReportCache CacheStatsInfo `json:"report_cache"`
	Runtime     RuntimeInfo    `json:"runtime"`
}

func healthResponse(st reportcache.Stats) HealthResponse {
	return HealthResponse{
		Status: "ok",
		ReportCache: CacheStatsInfo{
			Hits:         st.Hits,
			Misses:       st.Misses,
			Puts:         st.Puts,
			Rejects:      st.Rejects,
			Evictions:    st.Evictions,
			Entries:      st.Entries,
			CostBytes:    st.Cost,
			MaxCostBytes: st.MaxCost,
		},
	}
}

// errorBody is the uniform JSON error envelope. RequestID is set on
// internal-error responses so a client report can be correlated with the
// server-side log line that carries the recovered stack.
type errorBody struct {
	Error     string `json:"error"`
	RequestID string `json:"request_id,omitempty"`
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// discoverResponse flattens a Report into the wire response, rendering each
// payload's dependencies over the dataset's column names.
func discoverResponse(dataset string, req fastod.Request, rep *fastod.Report, names []string, cached bool) DiscoverResponse {
	resp := DiscoverResponse{
		Dataset:   dataset,
		Algorithm: string(rep.Algorithm),
		Workers:   req.EffectiveWorkers(),
		Budget: BudgetInfo{
			TimeoutMS: req.Budget.Timeout.Milliseconds(),
			MaxNodes:  req.Budget.MaxNodes,
		},
		Interrupted: rep.Interrupted,
		Cached:      cached,
		ElapsedMS:   ms(rep.Elapsed),
		Stats: StatsInfo{
			NodesVisited:    rep.Stats.NodesVisited,
			MaxLevelReached: rep.Stats.MaxLevelReached,
			PartitionHits:   rep.Stats.PartitionHits,
			PartitionMisses: rep.Stats.PartitionMisses,
		},
		// Marshal as [] rather than null when a run discovers nothing (or
		// materializes nothing, in count-only mode).
		Dependencies: []Dependency{},
	}
	switch {
	case rep.FASTOD != nil:
		res := rep.FASTOD
		resp.Counts = &CountInfo{Total: res.Counts.Total, Constancy: res.Counts.Constancy, OrderCompat: res.Counts.OrderCompat}
		resp.Count = res.Counts.Total
		for _, od := range res.ODs {
			resp.Dependencies = append(resp.Dependencies, Dependency{OD: od.NamesString(names)})
		}
	case rep.TANE != nil:
		res := rep.TANE
		resp.Count = len(res.FDs)
		for _, fd := range res.FDs {
			resp.Dependencies = append(resp.Dependencies, Dependency{OD: fd.NamesString(names)})
		}
	case rep.Approx != nil:
		res := rep.Approx
		counts := res.Counts()
		resp.Counts = &CountInfo{Total: counts.Total, Constancy: counts.Constancy, OrderCompat: counts.OrderCompat}
		resp.Count = len(res.ODs)
		for _, d := range res.ODs {
			rate := d.Error.Rate
			resp.Dependencies = append(resp.Dependencies, Dependency{OD: d.OD.NamesString(names), Error: &rate})
		}
	case rep.Bidir != nil:
		res := rep.Bidir
		resp.Count = len(res.ODs)
		for _, od := range res.ODs {
			resp.Dependencies = append(resp.Dependencies, Dependency{OD: od.NamesString(names)})
		}
	case rep.Conditional != nil:
		res := rep.Conditional
		resp.Count = len(res.ODs)
		resp.SlicesExamined = res.SlicesExamined
		for _, c := range res.ODs {
			resp.Dependencies = append(resp.Dependencies, Dependency{
				OD:        c.OD.NamesString(names),
				Condition: c.Condition.NamesString(names),
				Rows:      c.Condition.Rows,
			})
		}
	case rep.ORDER != nil:
		res := rep.ORDER
		resp.Counts = &CountInfo{Total: res.Counts.Total, Constancy: res.Counts.Constancy, OrderCompat: res.Counts.OrderCompat}
		resp.Count = len(res.ODs)
		for _, od := range res.ODs {
			resp.Dependencies = append(resp.Dependencies, Dependency{OD: od.Names(names)})
		}
	}
	return resp
}
