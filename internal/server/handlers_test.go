package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	fastod "repro"
	"repro/internal/datagen"
	"repro/internal/relation"
)

// csvOf renders a generated relation as the CSV bytes a client would upload.
func csvOf(t *testing.T, rel *relation.Relation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := relation.WriteCSV(rel, &buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// upload POSTs CSV bytes as a named dataset and returns the response.
func upload(t *testing.T, ts *httptest.Server, name string, csv []byte) *http.Response {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets?name="+name, "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("upload %s: %v", name, err)
	}
	return resp
}

// discover POSTs a JSON discovery request and decodes the response body.
func discover(t *testing.T, ts *httptest.Server, dataset, body string) (int, DiscoverResponse, errorBody) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/datasets/"+dataset+"/discover", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading discover response: %v", err)
	}
	var out DiscoverResponse
	var errBody errorBody
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("decoding discover response %q: %v", raw, err)
		}
	} else if err := json.Unmarshal(raw, &errBody); err != nil {
		t.Fatalf("decoding error response %q: %v", raw, err)
	}
	return resp.StatusCode, out, errBody
}

func TestUploadListDiscover(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	csv := csvOf(t, datagen.Employees())

	resp := upload(t, ts, "employees", csv)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	resp.Body.Close()
	if info.Name != "employees" || info.Rows != 6 || len(info.Columns) != 9 {
		t.Errorf("upload info = %+v, want employees 6x9", info)
	}

	// The dataset shows up in the listing.
	listResp, err := http.Get(ts.URL + "/v1/datasets")
	if err != nil {
		t.Fatalf("list: %v", err)
	}
	var list DatasetList
	if err := json.NewDecoder(listResp.Body).Decode(&list); err != nil {
		t.Fatalf("decoding list: %v", err)
	}
	listResp.Body.Close()
	if len(list.Datasets) != 1 || list.Datasets[0].Name != "employees" {
		t.Errorf("list = %+v, want exactly employees", list)
	}

	// A default (empty-body) discover is a budget-capped FASTOD run.
	status, out, _ := discover(t, ts, "employees", "")
	if status != http.StatusOK {
		t.Fatalf("discover status = %d, want 200", status)
	}
	if out.Algorithm != "fastod" || out.Interrupted || out.Count == 0 || len(out.Dependencies) != out.Count {
		t.Errorf("discover response = %+v, want a complete fastod report", out)
	}
	if out.Budget.TimeoutMS == 0 || out.Budget.MaxNodes == 0 {
		t.Errorf("budget %+v not capped by the server default", out.Budget)
	}
	if out.Workers < 1 {
		t.Errorf("workers = %d, want the resolved effective count", out.Workers)
	}

	// Repeated discovery hits the dataset's shared partition cache.
	status, out, _ = discover(t, ts, "employees", `{"algorithm":"tane"}`)
	if status != http.StatusOK {
		t.Fatalf("tane discover status = %d, want 200", status)
	}
	if out.Stats.PartitionHits == 0 {
		t.Errorf("second run on the dataset had no partition hits: %+v", out.Stats)
	}

	// Count-only runs report a tally but materialize nothing — the
	// dependency list must still be an empty array, never JSON null.
	func() {
		resp, err := http.Post(ts.URL+"/v1/datasets/employees/discover", "application/json",
			strings.NewReader(`{"fastod":{"count_only":true}}`))
		if err != nil {
			t.Fatalf("count-only discover: %v", err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if !strings.Contains(string(raw), `"dependencies":[]`) {
			t.Errorf("count-only response lacks an empty dependencies array: %s", raw)
		}
	}()

	// Duplicate uploads conflict; unnamed uploads are rejected.
	if resp := upload(t, ts, "employees", csv); resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate upload status = %d, want 409", resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	resp, err = http.Post(ts.URL+"/v1/datasets", "text/csv", bytes.NewReader(csv))
	if err != nil {
		t.Fatalf("unnamed upload: %v", err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unnamed upload status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestUploadDatasetLimitIs507(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxDatasets: 1})
	csv := csvOf(t, datagen.Employees())
	resp := upload(t, ts, "a", csv)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first upload status = %d, want 201", resp.StatusCode)
	}
	resp = upload(t, ts, "b", csv)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Errorf("upload beyond the dataset limit status = %d, want 507", resp.StatusCode)
	}
}

func TestDiscoverRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "emp", csvOf(t, datagen.Employees()))
	resp.Body.Close()

	cases := []struct {
		name string
		body string
		want string // substring of the error message
	}{
		{"out-of-range threshold", `{"algorithm":"approx","approx":{"threshold":1.5}}`, "Threshold"},
		{"negative workers", `{"workers":-3}`, "Workers"},
		{"negative max_level", `{"max_level":-1}`, "MaxLevel"},
		{"negative min_slice_rows", `{"algorithm":"conditional","conditional":{"min_slice_rows":-1}}`, "MinSliceRows"},
		{"out-of-range condition attr", `{"algorithm":"conditional","conditional":{"condition_attrs":[99]}}`, "ConditionAttrs"},
		{"unknown algorithm", `{"algorithm":"magic"}`, "algorithm"},
		{"unknown field", `{"algorithmm":"fastod"}`, "unknown field"},
		{"not json", `{{{`, "decoding"},
	}
	for _, tc := range cases {
		status, _, errBody := discover(t, ts, "emp", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", tc.name, status)
			continue
		}
		if !strings.Contains(errBody.Error, tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, errBody.Error, tc.want)
		}
	}

	// Validation failures must name the typed error so clients can grep for
	// it the way the library greps errors.Is.
	status, _, errBody := discover(t, ts, "emp", `{"workers":-3}`)
	if status != http.StatusBadRequest || !strings.Contains(errBody.Error, "invalid request") {
		t.Errorf("validation error = %d %q, want 400 mentioning the typed invalid-request error", status, errBody.Error)
	}

	if status, _, _ := discover(t, ts, "nope", ""); status != http.StatusNotFound {
		t.Errorf("unknown dataset status = %d, want 404", status)
	}
}

// TestDiscoverRejectsSchedulerField pins the wire contract: "scheduler" is
// not a request field (the lattice has one scheduler), and the strict decoder
// answers a body that sends it with a 400 rather than silently ignoring it.
func TestDiscoverRejectsSchedulerField(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "emp", csvOf(t, datagen.Employees()))
	resp.Body.Close()

	for _, body := range []string{`{"scheduler":"dag"}`, `{"scheduler":"barrier","workers":1}`} {
		status, _, errBody := discover(t, ts, "emp", body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", body, status)
			continue
		}
		if !strings.Contains(errBody.Error, `unknown field "scheduler"`) {
			t.Errorf("%s: error %q does not name the unknown scheduler field", body, errBody.Error)
		}
	}
}

func TestDiscoverInterruptedIsA200(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "flight", csvOf(t, datagen.FlightLike(300, 6, 2017)))
	resp.Body.Close()

	// A one-node allowance trips at the second node handout, deterministically:
	// the run returns a partial report, and the server reports it as success.
	status, out, _ := discover(t, ts, "flight", `{"max_nodes":1}`)
	if status != http.StatusOK {
		t.Fatalf("budgeted discover status = %d, want 200", status)
	}
	if !out.Interrupted {
		t.Fatalf("run with max_nodes=1 not interrupted: %+v", out)
	}
	if out.Budget.MaxNodes != 1 {
		t.Errorf("effective budget %+v, want the requested 1-node allowance", out.Budget)
	}
	if out.Stats.NodesVisited == 0 {
		t.Errorf("interrupted run reports no work: %+v", out.Stats)
	}
}

func TestDiscoverOverBudgetRequestIsCapped(t *testing.T) {
	cap := fastod.Budget{Timeout: 8 * time.Second, MaxNodes: 500}
	_, ts := newTestServer(t, Config{MaxBudget: cap})
	resp := upload(t, ts, "emp", csvOf(t, datagen.Employees()))
	resp.Body.Close()

	status, out, _ := discover(t, ts, "emp", `{"timeout_ms":3600000,"max_nodes":1000000000}`)
	if status != http.StatusOK {
		t.Fatalf("discover status = %d, want 200", status)
	}
	if out.Budget.TimeoutMS != cap.Timeout.Milliseconds() || out.Budget.MaxNodes != cap.MaxNodes {
		t.Errorf("effective budget %+v, want the server cap %+v", out.Budget, cap)
	}
}

func TestDiscoverStream(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "flight", csvOf(t, datagen.FlightLike(300, 6, 2017)))
	resp.Body.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets/flight/discover/stream", "application/json", strings.NewReader(`{"workers":1}`))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	events := parseSSE(t, resp.Body)
	if len(events) < 2 {
		t.Fatalf("stream yielded %d events, want progress + report", len(events))
	}
	var progress int
	for _, ev := range events[:len(events)-1] {
		if ev.name != "progress" {
			t.Fatalf("event %q before the final report, want progress", ev.name)
		}
		var pe ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("decoding progress event %q: %v", ev.data, err)
		}
		if pe.Level <= 0 || pe.Nodes <= 0 || pe.NodesVisited < pe.Nodes {
			t.Errorf("implausible progress event %+v", pe)
		}
		progress++
	}
	if progress < 2 {
		t.Errorf("only %d progress events on a multi-level dataset, want >= 2", progress)
	}
	last := events[len(events)-1]
	if last.name != "report" {
		t.Fatalf("final event %q, want report", last.name)
	}
	var out DiscoverResponse
	if err := json.Unmarshal([]byte(last.data), &out); err != nil {
		t.Fatalf("decoding final report %q: %v", last.data, err)
	}
	if out.Interrupted || out.Count == 0 {
		t.Errorf("final report %+v, want a complete run with dependencies", out)
	}
	// The stream's validation errors are still plain HTTP 400s — including
	// the dataset-aware check that only fails against this dataset's width,
	// which must be caught before the 200/SSE header goes out.
	for _, body := range []string{
		`{"workers":-1}`,
		`{"algorithm":"conditional","conditional":{"condition_attrs":[99]}}`,
	} {
		bad, err := http.Post(ts.URL+"/v1/datasets/flight/discover/stream", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("invalid stream request: %v", err)
		}
		bad.Body.Close()
		if bad.StatusCode != http.StatusBadRequest {
			t.Errorf("invalid stream request %s status = %d, want 400", body, bad.StatusCode)
		}
	}
}

func TestDiscoverStreamConditionalSliceEvents(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "hep", csvOf(t, datagen.HepatitisLike(80, 5, 7)))
	resp.Body.Close()

	resp, err := http.Post(ts.URL+"/v1/datasets/hep/discover/stream", "application/json",
		strings.NewReader(`{"algorithm":"conditional","workers":1}`))
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status = %d, want 200", resp.StatusCode)
	}
	var slices int
	events := parseSSE(t, resp.Body)
	for _, ev := range events {
		if ev.name != "progress" {
			continue
		}
		var pe ProgressEvent
		if err := json.Unmarshal([]byte(ev.data), &pe); err != nil {
			t.Fatalf("decoding progress event %q: %v", ev.data, err)
		}
		if pe.Slice {
			if pe.Nodes <= 0 || pe.NodesVisited < pe.Nodes {
				t.Errorf("implausible slice event %+v", pe)
			}
			slices++
		}
	}
	if slices == 0 {
		t.Error("conditional stream yielded no per-slice progress events")
	}
	if events[len(events)-1].name != "report" {
		t.Errorf("final event %q, want report", events[len(events)-1].name)
	}
}

func TestDiscover503WhenSaturatedAndCancelled(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxConcurrent: 1})
	if err := s.AddDataset("emp", nil); err == nil {
		t.Fatal("nil dataset must be rejected")
	}
	if err := s.AddDataset("emp", fastod.EmployeesExample()); err != nil {
		t.Fatalf("AddDataset: %v", err)
	}
	// Occupy the only run slot, then issue a request whose context is already
	// cancelled: it must fail fast with 503 instead of queueing forever.
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := httptest.NewRequestWithContext(ctx, "POST", "/v1/datasets/emp/discover", strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("saturated+cancelled discover status = %d, want 503", rec.Code)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	data string
}

// parseSSE reads a whole SSE stream into its events.
func parseSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	raw, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	var events []sseEvent
	for _, block := range strings.Split(strings.TrimSpace(string(raw)), "\n\n") {
		var ev sseEvent
		for _, line := range strings.Split(block, "\n") {
			switch {
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			}
		}
		if ev.name == "" && ev.data == "" {
			continue
		}
		events = append(events, ev)
	}
	if len(events) == 0 {
		t.Fatalf("no SSE events in stream %q", raw)
	}
	return events
}

func TestUploadReportsSchema(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp := upload(t, ts, "emp", csvOf(t, datagen.Employees()))
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload status = %d, want 201", resp.StatusCode)
	}
	var info DatasetInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decoding upload response: %v", err)
	}
	if len(info.Schema) != len(info.Columns) {
		t.Fatalf("schema has %d entries for %d columns", len(info.Schema), len(info.Columns))
	}
	byName := make(map[string]ColumnInfo, len(info.Schema))
	for i, c := range info.Schema {
		if c.Name != info.Columns[i] {
			t.Errorf("schema[%d].Name = %q, want %q (schema order must match column order)", i, c.Name, info.Columns[i])
		}
		if c.DefaultOrder != "asc nulls first" {
			t.Errorf("schema[%d].DefaultOrder = %q, want the documented default", i, c.DefaultOrder)
		}
		byName[c.Name] = c
	}
	// The sniffer's verdict is what the client needs to pick a collation
	// override: sal is numeric, posit is a string.
	if byName["sal"].Type != "int" {
		t.Errorf("sal sniffed as %q, want int", byName["sal"].Type)
	}
	if byName["posit"].Type != "string" {
		t.Errorf("posit sniffed as %q, want string", byName["posit"].Type)
	}

	// GET returns the same schema.
	got, err := http.Get(ts.URL + "/v1/datasets/emp")
	if err != nil {
		t.Fatalf("GET dataset: %v", err)
	}
	defer got.Body.Close()
	var info2 DatasetInfo
	if err := json.NewDecoder(got.Body).Decode(&info2); err != nil {
		t.Fatalf("decoding GET response: %v", err)
	}
	if !reflect.DeepEqual(info, info2) {
		t.Errorf("GET schema diverges from upload schema:\n %+v\n %+v", info, info2)
	}
}

func TestDiscoverOrderSpecErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	upload(t, ts, "emp", csvOf(t, datagen.Employees())).Body.Close()

	cases := []struct{ body, want string }{
		{`{"order_specs":[{"column":"sal","direction":"sideways"}]}`, "unknown direction"},
		{`{"order_specs":[{"column":"sal","nulls":"middle"}]}`, "unknown null placement"},
		{`{"order_specs":[{"column":"sal","collation":"emoji"}]}`, "unknown collation"},
		{`{"order_specs":[{"column":"ghost","direction":"desc"}]}`, "unknown column"},
		{`{"order_specs":[{"column":"sal","collation":"rank"}]}`, "rank"},
		{`{"order_specs":[{"column":"sal","direction":"desc"},{"column":"sal","direction":"desc"}]}`, "twice"},
	}
	for _, tc := range cases {
		status, _, errBody := discover(t, ts, "emp", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("body %s status = %d, want 400", tc.body, status)
			continue
		}
		if !strings.Contains(errBody.Error, tc.want) {
			t.Errorf("body %s error = %q, want substring %q", tc.body, errBody.Error, tc.want)
		}
	}

	// A valid spec with a rank collation and list works end to end.
	status, out, errBody := discover(t, ts, "emp",
		`{"order_specs":[{"column":"subg","collation":"rank","ranks":["I","II","III"]}]}`)
	if status != http.StatusOK {
		t.Fatalf("rank-collation discover status = %d (%+v)", status, errBody)
	}
	if out.Count == 0 {
		t.Error("rank-collation discover found nothing on the employees fixture")
	}
}
