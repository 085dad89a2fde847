package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
	"repro/internal/server"
)

// The serve-mixed traffic mix comes in shuffled cycles of 54 requests: one
// cold discover per (algorithm, preloaded dataset) pair, 35 repeats from the
// hot pool and 3 uploads, that is 30% cold, 65% report-cache hits and 5%
// ingest writes. Fixed cycles keep the proportions exact in every run.
const (
	cycleHot     = 35
	cycleUploads = 3
	specPool     = 8 // order specs per preloaded dataset
	specPoolSeed = 1
	uploadPool   = 4 // distinct CSV bodies uploads cycle through
)

// coldAlgorithms are the algorithms cold discovers draw from.
var coldAlgorithms = []fastod.Algorithm{
	fastod.AlgorithmFASTOD, fastod.AlgorithmTANE, fastod.AlgorithmApprox, fastod.AlgorithmBidirectional,
}

// served is one preloaded dataset: its generated table, the dataset handed to
// the server, and the pool of order specs cold discovers pick from.
type served struct {
	name  string
	rel   *relation.Relation
	csv   []byte
	ds    *fastod.Dataset
	specs [][]server.OrderSpecJSON
}

// hotReq is one request of the hot pool with the response every replay of it
// must reproduce.
type hotReq struct {
	path string
	body []byte
	want signature
}

// request is one operation of the mix.
type request struct {
	kind    string // "upload", "hot" or "cold"
	path    string
	body    []byte
	hot     int            // index into the hot pool
	dataset int            // index into the preloaded datasets (cold)
	req     fastod.Request // the library request a cold discover maps to
	rows    int            // expected rows of an upload
}

// serveEnv is a set-up serve-mixed workload.
type serveEnv struct {
	srv      *server.Server
	ts       *httptest.Server
	client   *http.Client
	data     []served
	uploads  [][]byte
	upRows   int
	upRel    *relation.Relation
	hot      []hotReq
	setupOK  bool
	clients  int
	tr       *tracer // set while a traced quarter runs
	trMu     sync.Mutex
	handlerT map[string]*latencies
}

func (e *serveEnv) close() {
	e.ts.Close()
	e.client.CloseIdleConnections()
}

func (e *serveEnv) tracer() *tracer {
	e.trMu.Lock()
	defer e.trMu.Unlock()
	return e.tr
}

func (e *serveEnv) setTracer(t *tracer) {
	e.trMu.Lock()
	e.tr = t
	e.trMu.Unlock()
}

// handler wraps the server's handler with a span per request while a tracer
// is set; the client passes the operation and parent span IDs in headers.
func (e *serveEnv) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := e.tracer()
		if tr == nil {
			h.ServeHTTP(w, r)
			return
		}
		t0 := time.Now()
		h.ServeHTTP(w, r)
		t1 := time.Now()
		route := "upload"
		if strings.HasSuffix(r.URL.Path, "/discover") {
			route = "discover"
		}
		op, _ := strconv.ParseUint(r.Header.Get("X-Bench-Op"), 10, 64)
		parent, _ := strconv.ParseUint(r.Header.Get("X-Bench-Parent"), 10, 64)
		tr.record("server."+route, parent, op, t0, t1)
		e.handlerT[route].add(t1.Sub(t0))
	})
}

// serveTables returns the four preloaded tables and the generator of the
// upload tables for a seed.
func serveTables(seed int64, tiny bool) ([]*relation.Relation, func(i int) *relation.Relation) {
	rows := func(n int) int {
		if tiny {
			return n / 10
		}
		return n
	}
	tables := []*relation.Relation{
		datagen.NCVoterLike(rows(3000), 10, seed),
		datagen.FlightLike(rows(3000), 10, seed),
		datagen.MessyRelation(rows(2000), 8, 0.2, seed),
		datagen.DBTesmaLike(rows(2000), 10, seed),
	}
	upload := func(i int) *relation.Relation {
		return datagen.NCVoterLike(rows(3000), 10, seed*100+int64(i)+1)
	}
	return tables, upload
}

var datasetNames = []string{"ncvoter", "flight", "messy", "dbtesma"}

// setupServe builds the server, preloads the four datasets with AddDataset,
// starts a loopback listener, and warms the hot pool so every replay of it
// is a report-cache hit.
func setupServe(ctx context.Context, cfg config) (_ *serveEnv, err error) {
	// The spec pools are the same for every seed: specs that merge or split
	// values change the lattice work of every discover under them, and a
	// per-seed pool would let that swamp the run-to-run comparison. The
	// tables, uploads and request sequence follow the seed.
	rng := rand.New(rand.NewSource(specPoolSeed))
	tables, upload := serveTables(cfg.seed, cfg.tiny)
	e := &serveEnv{
		clients:  runtime.NumCPU(),
		setupOK:  true,
		handlerT: map[string]*latencies{"upload": {}, "discover": {}},
	}
	// The dataset limit sits far above any upload count a run can reach, so
	// a 507 is a real failure and not an artifact of the benchmark.
	e.srv = server.New(server.Config{MaxDatasets: 1 << 20})
	for i, rel := range tables {
		csv, err := csvBytes(rel)
		if err != nil {
			return nil, err
		}
		ds, err := fastod.LoadCSV(datasetNames[i], bytes.NewReader(csv))
		if err != nil {
			return nil, err
		}
		if err := e.srv.AddDataset(datasetNames[i], ds); err != nil {
			return nil, err
		}
		d := served{name: datasetNames[i], rel: rel, csv: csv, ds: ds, specs: [][]server.OrderSpecJSON{nil}}
		for len(d.specs) < specPool {
			d.specs = append(d.specs, randomSpec(rng, rel.ColumnNames()))
		}
		e.data = append(e.data, d)
	}
	for i := 0; i < uploadPool; i++ {
		rel := upload(i)
		csv, err := csvBytes(rel)
		if err != nil {
			return nil, err
		}
		e.uploads = append(e.uploads, csv)
		if i == 0 {
			e.upRows, e.upRel = rel.NumRows(), rel
		}
	}
	e.ts = httptest.NewServer(e.handler(e.srv.Handler()))
	e.client = &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * e.clients, DisableCompression: true},
	}
	defer func() {
		if err != nil {
			e.close()
		}
	}()
	for i, d := range e.data {
		for _, q := range []server.DiscoverRequest{
			{},
			{Algorithm: string(fastod.AlgorithmTANE)},
			{OrderSpecs: d.specs[1]},
		} {
			body, err := json.Marshal(q)
			if err != nil {
				return nil, err
			}
			e.hot = append(e.hot, hotReq{path: "/v1/datasets/" + datasetNames[i] + "/discover", body: body})
		}
	}
	for i := range e.hot {
		h := &e.hot[i]
		for pass, wantCached := range []bool{false, true} {
			resp, err := e.discover(ctx, h.path, h.body, 0, 0)
			if err != nil {
				return nil, err
			}
			if resp.Cached != wantCached || (pass == 1 && resp.sig != h.want) {
				fmt.Fprintf(os.Stderr, "perfbench: set-up check: hot request %s %s pass %d: cached=%v sig=%v\n", h.path, h.body, pass, resp.Cached, resp.sig)
				e.setupOK = false
			}
			h.want = resp.sig
		}
		if cfg.corruptReference {
			h.want = h.want.corrupt()
		}
	}
	return e, nil
}

// randomSpec draws a per-column order override for one to three columns,
// at least one of them non-default: an all-default spec is erased by
// Request.Canonical and would be the plain request under another spelling.
func randomSpec(rng *rand.Rand, cols []string) []server.OrderSpecJSON {
	dirs := []string{"asc", "desc"}
	nulls := []string{"first", "last"}
	colls := []string{"", "lexicographic", "case-insensitive", "numeric"}
	for {
		var spec []server.OrderSpecJSON
		effective := false
		for _, c := range rng.Perm(len(cols))[:1+rng.Intn(3)] {
			o := server.OrderSpecJSON{
				Column:    cols[c],
				Direction: dirs[rng.Intn(2)],
				Nulls:     nulls[rng.Intn(2)],
				Collation: colls[rng.Intn(len(colls))],
			}
			effective = effective || o.Direction != "asc" || o.Nulls != "first" || o.Collation != ""
			spec = append(spec, o)
		}
		if effective {
			return spec
		}
	}
}

// discoverResp is the part of a discover response the benchmark checks.
type discoverResp struct {
	Cached       bool `json:"cached"`
	Interrupted  bool `json:"interrupted"`
	Dependencies []struct {
		OD    string   `json:"od"`
		Error *float64 `json:"error"`
	} `json:"dependencies"`
	sig signature
}

// discover posts one discover request and decodes the response.
func (e *serveEnv) discover(ctx context.Context, path string, body []byte, op, parent uint64) (*discoverResp, error) {
	raw, status, err := e.post(ctx, path, body, op, parent)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", path, status, raw)
	}
	var r discoverResp
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, err
	}
	for _, d := range r.Dependencies {
		if d.Error != nil {
			r.sig.add(approxItem(d.OD, *d.Error))
		} else {
			r.sig.add(d.OD)
		}
	}
	return &r, nil
}

func (e *serveEnv) post(ctx context.Context, path string, body []byte, op, parent uint64) ([]byte, int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, e.ts.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if op != 0 {
		hr.Header.Set("X-Bench-Op", strconv.FormatUint(op, 10))
		hr.Header.Set("X-Bench-Parent", strconv.FormatUint(parent, 10))
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return raw, resp.StatusCode, err
}

// mix hands out the seeded operation sequence to the clients. Cold
// discovers are kept distinct under Request.Fingerprint (and distinct from
// the hot pool, which sends no timeout), so each one misses the report
// cache; the client-chosen timeout_ms makes the key space unbounded while
// the order specs come from a small per-dataset pool.
type mix struct {
	mu      sync.Mutex
	rng     *rand.Rand
	env     *serveEnv
	seen    map[string]bool
	uploads int
	seed    int64
	pending []slot
}

// slot is one request of a cycle before its details are drawn.
type slot struct {
	kind         string
	alg, dataset int
}

func (m *mix) refill() {
	for a := range coldAlgorithms {
		for d := range m.env.data {
			m.pending = append(m.pending, slot{kind: "cold", alg: a, dataset: d})
		}
	}
	for i := 0; i < cycleHot; i++ {
		m.pending = append(m.pending, slot{kind: "hot"})
	}
	for i := 0; i < cycleUploads; i++ {
		m.pending = append(m.pending, slot{kind: "upload"})
	}
	m.rng.Shuffle(len(m.pending), func(i, j int) { m.pending[i], m.pending[j] = m.pending[j], m.pending[i] })
}

func (m *mix) next() (request, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.pending) == 0 {
		m.refill()
	}
	sl := m.pending[0]
	m.pending = m.pending[1:]
	switch sl.kind {
	case "upload":
		n := m.uploads
		m.uploads++
		return request{
			kind: "upload",
			path: fmt.Sprintf("/v1/datasets?name=up-%d-%d", m.seed, n),
			body: m.env.uploads[n%len(m.env.uploads)],
			rows: m.env.upRows,
		}, nil
	case "hot":
		h := m.rng.Intn(len(m.env.hot))
		return request{kind: "hot", path: m.env.hot[h].path, body: m.env.hot[h].body, hot: h}, nil
	}
	d := &m.env.data[sl.dataset]
	for {
		q := server.DiscoverRequest{
			Algorithm:  string(coldAlgorithms[sl.alg]),
			TimeoutMS:  5000 + m.rng.Int63n(20000),
			OrderSpecs: d.specs[m.rng.Intn(len(d.specs))],
		}
		req := fastod.Request{
			Algorithm:  fastod.Algorithm(q.Algorithm),
			RunOptions: fastod.RunOptions{Budget: fastod.Budget{Timeout: time.Duration(q.TimeoutMS) * time.Millisecond}},
		}
		if req.Algorithm == fastod.AlgorithmApprox {
			q.Approx = &server.ApproxOptions{Threshold: 0.01 + 0.09*m.rng.Float64()}
			req.Approx.Threshold = q.Approx.Threshold
		}
		for _, o := range q.OrderSpecs {
			ao, err := attrOrder(o)
			if err != nil {
				return request{}, err
			}
			req.OrderSpecs = append(req.OrderSpecs, ao)
		}
		key := d.name + "|" + req.Fingerprint()
		if m.seen[key] {
			continue
		}
		m.seen[key] = true
		body, err := json.Marshal(q)
		if err != nil {
			return request{}, err
		}
		return request{kind: "cold", path: "/v1/datasets/" + d.name + "/discover", body: body, dataset: sl.dataset, req: req}, nil
	}
}

func attrOrder(o server.OrderSpecJSON) (fastod.AttrOrder, error) {
	dir, err := fastod.ParseOrderDirection(o.Direction)
	if err != nil {
		return fastod.AttrOrder{}, err
	}
	nulls, err := fastod.ParseNullOrder(o.Nulls)
	if err != nil {
		return fastod.AttrOrder{}, err
	}
	coll, err := fastod.ParseCollation(o.Collation)
	if err != nil {
		return fastod.AttrOrder{}, err
	}
	return fastod.AttrOrder{Column: o.Column, Direction: dir, Nulls: nulls, Collation: coll}, nil
}

// sampled is a cold discover kept for re-derivation after the window.
type sampled struct {
	r   request
	sig signature
}

// serveRun is the accumulated state of the client loops.
type serveRun struct {
	mu                sync.Mutex
	upload, cold      latencies
	warm              latencies // hot-pool repeats of untraced stretches
	attempted, failed int
	samples           []sampled
	perAlgorithm      map[fastod.Algorithm]int
	firstErr          error
	tracedOps         int
}

func (st *serveRun) count(ok bool) {
	st.mu.Lock()
	st.attempted++
	if !ok {
		st.failed++
	}
	st.mu.Unlock()
}

// do sends one operation, times it at the client, and checks its response.
func (e *serveEnv) do(ctx context.Context, r request, st *serveRun, tr *tracer) {
	op := tr.id()
	t0 := time.Now()
	var ok bool
	var resp *discoverResp
	var err error
	if r.kind == "upload" {
		var raw []byte
		var status int
		raw, status, err = e.post(ctx, r.path, r.body, op, op)
		var info server.DatasetInfo
		ok = err == nil && status == http.StatusCreated && json.Unmarshal(raw, &info) == nil && info.Rows == r.rows
	} else {
		resp, err = e.discover(ctx, r.path, r.body, op, op)
		ok = err == nil && !resp.Interrupted
		if ok && r.kind == "hot" {
			ok = resp.Cached && resp.sig == e.hot[r.hot].want
		}
		if ok && r.kind == "cold" {
			ok = !resp.Cached
		}
	}
	t1 := time.Now()
	if err != nil {
		st.mu.Lock()
		if st.firstErr == nil {
			st.firstErr = err
		}
		st.mu.Unlock()
	}
	d := t1.Sub(t0)
	switch r.kind {
	case "upload":
		st.upload.add(d)
	case "hot":
		if tr == nil {
			st.warm.add(d)
		}
	default:
		st.cold.add(d)
		if ok {
			st.mu.Lock()
			if st.perAlgorithm[r.req.Algorithm] < 3 {
				st.perAlgorithm[r.req.Algorithm]++
				st.samples = append(st.samples, sampled{r: r, sig: resp.sig})
			}
			st.mu.Unlock()
		}
	}
	if tr != nil {
		tr.recordID(op, "client."+r.kind, 0, op, t0, t1)
		st.mu.Lock()
		st.tracedOps++
		st.mu.Unlock()
	}
	st.count(ok)
}

// clientsUntil runs nproc closed-loop clients until the deadline.
func (e *serveEnv) clientsUntil(ctx context.Context, m *mix, until time.Time, st *serveRun, tr *tracer) error {
	var wg sync.WaitGroup
	errs := make(chan error, e.clients)
	for c := 0; c < e.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					errs <- fmt.Errorf("client panicked: %v", rec)
				}
			}()
			for time.Now().Before(until) {
				r, err := m.next()
				if err != nil {
					errs <- err
					return
				}
				e.do(ctx, r, st, tr)
			}
		}()
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// rederive re-runs sampled cold discovers through a direct Dataset.Run on a
// dataset loaded independently from the same CSV bytes, and counts each
// response that disagrees as a failure.
func (e *serveEnv) rederive(ctx context.Context, st *serveRun) (int, error) {
	fresh := make([]*fastod.Dataset, len(e.data))
	failed := 0
	for _, s := range st.samples {
		d := e.data[s.r.dataset]
		if fresh[s.r.dataset] == nil {
			ds, err := fastod.LoadCSV(d.name, bytes.NewReader(d.csv))
			if err != nil {
				return 0, err
			}
			fresh[s.r.dataset] = ds
		}
		ds := fresh[s.r.dataset]
		rep, err := ds.Run(ctx, s.r.req)
		if err != nil {
			return 0, err
		}
		items, err := renderReport(rep, ds.ColumnNames())
		if err != nil {
			return 0, err
		}
		if rep.Interrupted || signatureOf(items) != s.sig {
			fmt.Fprintf(os.Stderr, "perfbench: re-derivation mismatch on %s %s: served %v, direct %v\n",
				s.r.path, s.r.body, s.sig, signatureOf(items))
			failed++
		}
	}
	return failed, nil
}

// runServe runs serve-mixed.
func runServe(ctx context.Context, cfg config) (*outcome, error) {
	var env *serveEnv
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if env != nil {
			env.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if env, err = setupServe(ctx, cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer env.close()
	runtime.GC()
	out := &outcome{setupOK: env.setupOK, meta: map[string]any{
		"input": "preloaded ncvoter-like 3000x10, flight-like 3000x10, messy 2000x8 (20% NULL), dbtesma-like 2000x10; uploads ncvoter-like 3000x10",
		"mix": fmt.Sprintf("shuffled cycles of %d cold discovers (each algorithm x dataset), %d hot-pool repeats (pool of %d), %d uploads",
			len(coldAlgorithms)*len(env.data), cycleHot, len(env.hot), cycleUploads),
		"clients": env.clients,
		"loop":    "closed",
	}}
	if !env.setupOK {
		out.attempted++
		out.failed++
	}
	m := &mix{rng: rand.New(rand.NewSource(cfg.seed + 1)), env: env, seen: make(map[string]bool), seed: cfg.seed}
	st := &serveRun{perAlgorithm: make(map[fastod.Algorithm]int)}
	var opsPerS, allocMB float64
	if cfg.trace {
		if err := traceServe(ctx, cfg, env, m, st, out); err != nil {
			return nil, err
		}
	} else {
		a0 := allocatedBytes()
		t0 := time.Now()
		if err := env.clientsUntil(ctx, m, t0.Add(cfg.window), st, nil); err != nil {
			return nil, err
		}
		opsPerS = float64(st.attempted) / time.Since(t0).Seconds()
		allocMB = float64(allocatedBytes()-a0) / float64(max(st.attempted, 1)) / 1e6
		out.attempted += st.attempted
		out.failed += st.failed
	}
	if st.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failed request:", st.firstErr)
	}
	mismatches, err := env.rederive(ctx, st)
	if err != nil {
		return nil, err
	}
	out.failed += mismatches
	if !cfg.trace {
		out.metrics = endToEnd(st.cold.values(), st.upload.values(), st.attempted, opsPerS, allocMB, out, setupS)
	}
	return out, nil
}

// traceServe is the traced run of serve-mixed: untraced, traced, traced and
// untraced quarters (the overhead is the ratio of their request rates), then the
// server's own counters, and the relation, partition, lattice and core
// layers measured on the workload's inputs.
func traceServe(ctx context.Context, cfg config, env *serveEnv, m *mix, st *serveRun, out *outcome) error {
	tr := newTracer()
	l := &layers{}
	var plainN, tracedN int
	var plainT, tracedT time.Duration
	start := time.Now()
	for q := 1; q <= 4; q++ {
		var t *tracer
		if tracedQuarter(q) {
			t = tr
		}
		env.setTracer(t)
		before := st.attempted
		t0 := time.Now()
		if err := env.clientsUntil(ctx, m, start.Add(cfg.window*time.Duration(q)/4), st, t); err != nil {
			return err
		}
		if t == nil {
			plainN, plainT = plainN+st.attempted-before, plainT+time.Since(t0)
		} else {
			tracedN, tracedT = tracedN+st.attempted-before, tracedT+time.Since(t0)
		}
	}
	env.setTracer(nil)
	l.warm = st.warm.values()
	out.attempted += st.attempted
	out.failed += st.failed
	l.overheadPct = 100 * (ratio(float64(plainN)/plainT.Seconds(), float64(tracedN)/tracedT.Seconds()) - 1)
	l.handlerUpload = env.handlerT["upload"].values()
	l.handlerDiscover = env.handlerT["discover"].values()
	l.transport = transportTimes(tr.snapshot())
	l.tracedOps = st.tracedOps

	if err := env.serverCounters(ctx, l); err != nil {
		return err
	}
	reps := 5
	if cfg.tiny {
		reps = 2
	}
	if err := l.measureRelation(tr, env.uploads[0], descNullsLast(env.upRel), reps); err != nil {
		return err
	}
	flight := env.data[1]
	enc, err := relation.Encode(flight.rel)
	if err != nil {
		return err
	}
	l.replayKernels(tr, enc, 3)
	ds, err := fastod.LoadCSV(flight.name, bytes.NewReader(flight.csv))
	if err != nil {
		return err
	}
	for i := 0; i < reps; i++ {
		var events []fastod.ProgressEvent
		t0 := time.Now()
		rep, err := ds.RunWithProgress(ctx, fastod.Request{}, func(ev fastod.ProgressEvent) { events = append(events, ev) })
		if err != nil {
			return err
		}
		l.observeRun(rep, time.Since(t0), events)
	}
	if err := l.measureSpeedup(ctx, tr, ds, reps); err != nil {
		return err
	}
	r, err := m.next()
	for err == nil && r.kind != "cold" {
		r, err = m.next()
	}
	if err != nil {
		return err
	}
	l.measureFingerprint(r.req)
	l.spans = tr.snapshot()
	out.metrics = l.metrics()
	return tr.write(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
}

// transportTimes pairs each client span with the server span it caused and
// returns client minus handler time, in ms.
func transportTimes(spans []span) []float64 {
	handler := make(map[uint64]time.Duration)
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "server.") {
			handler[s.Parent] = s.End - s.Start
		}
	}
	var out []float64
	for _, s := range spans {
		if h, ok := handler[s.ID]; ok && strings.HasPrefix(s.Name, "client.") {
			out = append(out, ms(s.End-s.Start-h))
		}
	}
	return out
}

// serverCounters reads the service's own accounting: /healthz, the report
// cache, and the partition stores and spec-encoding caches of the preloaded
// datasets.
func (e *serveEnv) serverCounters(ctx context.Context, l *layers) error {
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, e.ts.URL+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := e.client.Do(hr)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var health server.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		return err
	}
	l.shed = health.Runtime.ShedRequests
	l.internalErrors = health.Runtime.InternalErrors
	l.heapMB = float64(health.Runtime.HeapBytes) / 1e6
	rc := e.srv.ReportCacheStats()
	l.cacheHits, l.cacheMisses, l.cacheEvictions, l.cacheRejects, l.cacheCost = rc.Hits, rc.Misses, rc.Evictions, rc.Rejects, rc.Cost
	for _, d := range e.data {
		// EnablePartitionCache returns the store AddDataset attached.
		ss := d.ds.EnablePartitionCache(0).Stats()
		l.store.Hits += ss.Hits
		l.store.Misses += ss.Misses
		l.store.Evictions += ss.Evictions
		n, b := d.ds.SpecEncodingCacheStats()
		l.specEntries += n
		l.specBytes += b
	}
	return nil
}
