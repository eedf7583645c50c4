package fleetd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos"
	"sos/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the fleet daemon goldens")

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func createFleet(t *testing.T, ts *httptest.Server, cfg sos.FleetConfig) string {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/v1/fleet", cfg)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d: %s", resp.StatusCode, body)
	}
	var cr CreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatalf("create response: %v", err)
	}
	return cr.ID
}

func TestFleetLifecycle(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4})
	id := createFleet(t, ts, sos.FleetConfig{Shards: 8, Seed: 3})
	if id != "f1" {
		t.Fatalf("first fleet id = %q, want f1", id)
	}

	resp, body := do(t, "POST", ts.URL+"/v1/fleet/"+id+"/advance", AdvanceRequest{Days: 2})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d: %s", resp.StatusCode, body)
	}
	var rep sos.FleetReport
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("advance report: %v", err)
	}
	if rep.Shards != 8 || rep.DaysMax != 2 || rep.Advances != 1 {
		t.Fatalf("advance report header: %+v", rep)
	}

	resp, body = do(t, "GET", ts.URL+"/v1/fleet/"+id+"/report", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d", resp.StatusCode)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("report: %v", err)
	}
	if rep.PerShard != nil {
		t.Fatal("report carries per-shard records without ?per_shard")
	}
	_, body = do(t, "GET", ts.URL+"/v1/fleet/"+id+"/report?per_shard=1", nil)
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatalf("per-shard report: %v", err)
	}
	if len(rep.PerShard) != 8 {
		t.Fatalf("per_shard records: %d, want 8", len(rep.PerShard))
	}

	resp, body = do(t, "GET", ts.URL+"/v1/fleet", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: status %d", resp.StatusCode)
	}
	var list []ListEntry
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != "f1" || list[0].Advances != 1 {
		t.Fatalf("list = %+v", list)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/v1/fleet/"+id, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/v1/fleet/"+id+"/report", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("report after delete: status %d, want 404", resp.StatusCode)
	}
}

func TestRequestValidation(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 2, MaxShards: 100})
	id := createFleet(t, ts, sos.FleetConfig{Shards: 2})

	cases := []struct {
		name   string
		method string
		path   string
		body   io.Reader
		want   int
	}{
		{"bad config json", "POST", "/v1/fleet", strings.NewReader("{"), http.StatusBadRequest},
		{"unknown config field", "POST", "/v1/fleet", strings.NewReader(`{"sharrds": 4}`), http.StatusBadRequest},
		{"zero shards", "POST", "/v1/fleet", strings.NewReader(`{"shards": 0}`), http.StatusBadRequest},
		{"shards over cap", "POST", "/v1/fleet", strings.NewReader(`{"shards": 101}`), http.StatusBadRequest},
		{"bad backend name", "POST", "/v1/fleet", strings.NewReader(`{"shards": 2, "backend": "nvme"}`), http.StatusBadRequest},
		{"advance unknown fleet", "POST", "/v1/fleet/f99/advance", strings.NewReader(`{"days": 1}`), http.StatusNotFound},
		{"advance zero days", "POST", "/v1/fleet/" + id + "/advance", strings.NewReader(`{"days": 0}`), http.StatusBadRequest},
		{"advance bad body", "POST", "/v1/fleet/" + id + "/advance", strings.NewReader("nope"), http.StatusBadRequest},
		{"config then trailing bytes", "POST", "/v1/fleet", strings.NewReader(`{"shards": 2} {"shards": 3}`), http.StatusBadRequest},
		{"advance then trailing bytes", "POST", "/v1/fleet/" + id + "/advance", strings.NewReader(`{"days": 1}}`), http.StatusBadRequest},
		{"oversized config", "POST", "/v1/fleet", oversized(`{"shards": 2, "backend": "`, `"}`), http.StatusRequestEntityTooLarge},
		{"oversized advance", "POST", "/v1/fleet/" + id + "/advance", oversized(`{"days": 1`, `}`), http.StatusRequestEntityTooLarge},
		{"report unknown fleet", "GET", "/v1/fleet/f99/report", nil, http.StatusNotFound},
		{"delete unknown fleet", "DELETE", "/v1/fleet/f99", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, tc.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var msg map[string]string
		if err := json.Unmarshal(body, &msg); err != nil || msg["error"] == "" {
			t.Errorf("%s: error body %q not a JSON error", tc.name, body)
		}
	}
	// The oversized bodies must not have taken the daemon down.
	if resp, body := do(t, "GET", ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz after oversized bodies: %d %q", resp.StatusCode, body)
	}
}

// oversized returns a JSON body one byte over maxBodyBytes: head, then
// filler, then tail. The value would be well-formed if it were admitted.
func oversized(head, tail string) io.Reader {
	fill := maxBodyBytes + 1 - len(head) - len(tail)
	return strings.NewReader(head + strings.Repeat(" ", fill) + tail)
}

func TestStreamingAdvance(t *testing.T) {
	ts := newTestServer(t, Config{Workers: 4})
	id := createFleet(t, ts, sos.FleetConfig{Shards: 10, Seed: 5, BatchShards: 3})

	resp, body := do(t, "POST", ts.URL+"/v1/fleet/"+id+"/advance?stream=1", AdvanceRequest{Days: 1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream advance: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var progress []sos.FleetProgress
	var rep *sos.FleetReport
	for sc.Scan() {
		var line struct {
			Progress *sos.FleetProgress `json:"progress"`
			Report   *sos.FleetReport   `json:"report"`
			Error    string             `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("stream line %q: %v", sc.Text(), err)
		}
		switch {
		case line.Error != "":
			t.Fatalf("stream error: %s", line.Error)
		case line.Progress != nil:
			if rep != nil {
				t.Fatal("progress after final report")
			}
			progress = append(progress, *line.Progress)
		case line.Report != nil:
			rep = line.Report
		}
	}
	if len(progress) != 4 {
		t.Fatalf("progress lines: %d, want 4 (batches of 3 over 10 shards): %+v", len(progress), progress)
	}
	for i, p := range progress {
		if p.Batch != i+1 || p.Total != 10 {
			t.Fatalf("progress %d: %+v", i, p)
		}
	}
	if rep == nil || rep.Shards != 10 || rep.DaysMax != 1 {
		t.Fatalf("final stream report: %+v", rep)
	}
}

func TestMetricsOnEmptyDaemonValidates(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := do(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	n, err := obs.ParseExposition(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("empty-daemon exposition invalid: %v\n%s", err, body)
	}
	if n != 1 {
		t.Fatalf("empty daemon: %d samples, want 1 (sos_fleetd_fleets)", n)
	}
}

func TestHealthz(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, body := do(t, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
}

// TestBodyLimitAdmitsPerShardAges checks the body limit's sizing: a
// create body listing one four-digit age per shard at the default shard
// cap decodes.
func TestBodyLimitAdmitsPerShardAges(t *testing.T) {
	body := fmt.Sprintf(`{"shards": %d, "age_mix_days": [%s3650]}`,
		defaultMaxShards, strings.Repeat("3650, ", defaultMaxShards-1))
	req := httptest.NewRequest("POST", "/v1/fleet", strings.NewReader(body))
	rec := httptest.NewRecorder()
	var cfg sos.FleetConfig
	if !decodeBody(rec, req, "fleet config", &cfg) {
		t.Fatalf("%d-byte per-shard body refused: %d %s", len(body), rec.Code, rec.Body)
	}
	if len(cfg.AgeMixDays) != defaultMaxShards {
		t.Fatalf("decoded %d ages, want %d", len(cfg.AgeMixDays), defaultMaxShards)
	}
}

func TestFleetCap(t *testing.T) {
	ts := newTestServer(t, Config{MaxFleets: 2})
	createFleet(t, ts, sos.FleetConfig{Shards: 1})
	createFleet(t, ts, sos.FleetConfig{Shards: 1})
	resp, _ := do(t, "POST", ts.URL+"/v1/fleet", sos.FleetConfig{Shards: 1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third fleet: status %d, want 429", resp.StatusCode)
	}
}

// TestCreateBoundsTrainingFiles: training_files sizes the corpus and
// the classifier training NewFleet runs inside the handler, so a value
// above maxTrainingFiles is refused with 400 naming the cap, before any
// of that work.
func TestCreateBoundsTrainingFiles(t *testing.T) {
	ts := newTestServer(t, Config{})
	for _, n := range []int{maxTrainingFiles + 1, 1 << 40} {
		body := fmt.Sprintf(`{"shards":1,"training_files":%d}`, n)
		resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), fmt.Sprint(maxTrainingFiles)) {
			t.Errorf("training_files %d: status %d %s, want 400 naming the cap %d", n, resp.StatusCode, msg, maxTrainingFiles)
		}
	}
}

// TestCreateChecksFleetCapFirst: a create at the fleet cap answers 429
// before NewFleet runs, so even a config NewFleet would refuse reads
// 429 rather than 400.
func TestCreateChecksFleetCapFirst(t *testing.T) {
	ts := newTestServer(t, Config{MaxFleets: 1})
	createFleet(t, ts, sos.FleetConfig{Shards: 1})
	resp, err := http.Post(ts.URL+"/v1/fleet", "application/json", strings.NewReader(`{"shards":1,"training_files":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("create at the cap: status %d, want 429", resp.StatusCode)
	}
}

func goldenPath(name string) string {
	return filepath.Join("..", "..", "testdata", "fleet", name)
}

// driveSmoke runs the canonical smoke sequence against a fresh daemon
// and returns the report and metrics bodies.
func driveSmoke(t *testing.T, workers int) (report, metrics []byte) {
	t.Helper()
	ts := newTestServer(t, Config{Workers: workers})
	id := createFleet(t, ts, SmokeConfig())
	resp, body := do(t, "POST", ts.URL+"/v1/fleet/"+id+"/advance", AdvanceRequest{Days: 7})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance: status %d: %s", resp.StatusCode, body)
	}
	_, report = do(t, "GET", ts.URL+"/v1/fleet/"+id+"/report", nil)
	_, metrics = do(t, "GET", ts.URL+"/metrics", nil)
	return report, metrics
}

// TestServeGoldens pins the daemon's externally visible bytes: the
// smoke fleet's report and /metrics exposition must be identical at
// every worker count AND match the checked-in goldens. Regenerate with:
//
//	go test ./internal/fleetd -run TestServeGoldens -update
func TestServeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke fleet replay; skipped in -short")
	}
	report, metrics := driveSmoke(t, 8)
	reportSerial, metricsSerial := driveSmoke(t, 1)
	if !bytes.Equal(report, reportSerial) {
		t.Fatal("report differs between 1 and 8 daemon workers")
	}
	if !bytes.Equal(metrics, metricsSerial) {
		t.Fatal("/metrics differs between 1 and 8 daemon workers")
	}
	if n, err := obs.ParseExposition(bytes.NewReader(metrics)); err != nil || n == 0 {
		t.Fatalf("smoke exposition invalid: %d samples, %v", n, err)
	}

	if *update {
		if err := os.MkdirAll(goldenPath(""), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("serve_report.json"), report, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath("serve_metrics.txt"), metrics, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for name, got := range map[string][]byte{
		"serve_report.json": report,
		"serve_metrics.txt": metrics,
	} {
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("%v (regenerate with -update)", err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("%s drifted from golden (rerun with -update if intentional)", name)
		}
	}
}

// TestWorkersOverride pins the daemon's ownership of parallelism: a
// client-submitted Workers value is replaced by the daemon's, so results
// never depend on what a client asked for.
func TestWorkersOverride(t *testing.T) {
	render := func(clientWorkers int) []byte {
		ts := newTestServer(t, Config{Workers: 2})
		cfg := sos.FleetConfig{Shards: 6, Seed: 9, Workers: clientWorkers}
		id := createFleet(t, ts, cfg)
		resp, body := do(t, "POST", ts.URL+"/v1/fleet/"+id+"/advance", AdvanceRequest{Days: 1})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("advance: %d %s", resp.StatusCode, body)
		}
		return body
	}
	if !bytes.Equal(render(1), render(16)) {
		t.Fatal("client Workers leaked into results")
	}
}

func ExampleSmokeConfig() {
	cfg := SmokeConfig()
	fmt.Println(cfg.Shards, cfg.Seed)
	// Output: 64 21
}
