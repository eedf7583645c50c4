package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sos/internal/flash"
	"sos/internal/obs"
)

func TestParseCapacities(t *testing.T) {
	caps, err := parseCapacities("64, 128,256")
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 3 || caps[0] != 64 || caps[2] != 256 {
		t.Fatalf("parsed %v", caps)
	}
	for _, bad := range []string{"", "abc", "0", "-8", ","} {
		if _, err := parseCapacities(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseBaseline(t *testing.T) {
	if tech, err := parseBaseline("qlc"); err != nil || tech != flash.QLC {
		t.Fatalf("qlc: %v %v", tech, err)
	}
	if _, err := parseBaseline("mlc"); err == nil {
		t.Fatal("unknown baseline accepted")
	}
}

func TestFleetSweepDeterministicAcrossWorkers(t *testing.T) {
	caps := []float64{32, 64, 128, 256, 512, 1024}
	serial, rows, err := fleetSweep(1_000_000, caps, flash.TLC, 1)
	if err != nil {
		t.Fatal(err)
	}
	fanned, _, err := fleetSweep(1_000_000, caps, flash.TLC, 8)
	if err != nil {
		t.Fatal(err)
	}
	if serial.String() != fanned.String() {
		t.Fatalf("sweep differs by worker count:\n%s\nvs\n%s", serial, fanned)
	}
	if len(serial.Rows) != len(caps) || len(rows) != len(caps) {
		t.Fatalf("sweep rows %d/%d, want %d", len(serial.Rows), len(rows), len(caps))
	}
}

func defaultOpts() reportOpts {
	return reportOpts{
		Devices: 1_400_000_000, Capacity: 128,
		Growth: 0.30, Density: 4.0, ShareBoost: 2.0,
		Baseline: "tlc", Parallel: 1,
	}
}

func TestRunHumanReport(t *testing.T) {
	var buf bytes.Buffer
	opts := defaultOpts()
	opts.Capacities = "64,128"
	if err := run(opts, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"2021 flash production", "carbon credits", "fleet what-if", "fleet sweep"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestRunMetrics(t *testing.T) {
	var buf bytes.Buffer
	opts := defaultOpts()
	opts.Metrics = true
	opts.Capacities = "64,128"
	if err := run(opts, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if n, err := obs.ParseExposition(strings.NewReader(text)); err != nil || n == 0 {
		t.Fatalf("exposition invalid: %d samples, %v", n, err)
	}
	for _, family := range []string{
		"carbon_base_emissions_mt",
		`carbon_projected_emissions_mt{year="`,
		"carbon_fleet_saved_fraction",
		`carbon_sweep_saved_fraction{capacity_gb="64"}`,
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition missing %s", family)
		}
	}
	if strings.Contains(text, "fleet what-if") {
		t.Error("-metrics output mixed with the human report")
	}
}

// TestRunByteIdenticalAcrossWorkers pins the full report (human and
// metrics modes) byte-identical across -parallel values: the worker
// count changes only wall-clock time, never output.
func TestRunByteIdenticalAcrossWorkers(t *testing.T) {
	for _, metrics := range []bool{false, true} {
		var ref []byte
		for _, par := range []int{1, 2, 8} {
			var buf bytes.Buffer
			opts := defaultOpts()
			opts.Capacities = "64,128,256,512"
			opts.Parallel = par
			opts.Metrics = metrics
			if err := run(opts, &buf); err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = append([]byte(nil), buf.Bytes()...)
				continue
			}
			if !bytes.Equal(ref, buf.Bytes()) {
				t.Errorf("metrics=%v: report at -parallel %d differs from -parallel 1", metrics, par)
			}
		}
	}
}

func TestRunTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "marks.jsonl")
	opts := defaultOpts()
	opts.TraceFile = path
	var buf bytes.Buffer
	if err := run(opts, &buf); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	// One mark per section: base year + 10 projection years + fleet.
	if len(lines) < 3 {
		t.Fatalf("got %d mark events", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"mark"`) {
		t.Fatalf("unexpected event %q", lines[0])
	}
}

// registeredFlags extracts the flag names a main.go registers, by
// scanning its source for flag.Xxx("name", ...) / flag.XxxVar(&v,
// "name", ...) calls. Source-level scanning (rather than running the
// binary) keeps the test hermetic and catches a flag that was renamed
// in one CLI but not the other.
func registeredFlags(t *testing.T, path string) map[string]bool {
	t.Helper()
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	re := regexp.MustCompile(`flag\.[A-Za-z0-9]+\((?:&[\w.\[\]]+,\s*)?"([^"]+)"`)
	names := map[string]bool{}
	for _, m := range re.FindAllStringSubmatch(string(src), -1) {
		names[m[1]] = true
	}
	if len(names) == 0 {
		t.Fatalf("no flag registrations found in %s", path)
	}
	return names
}

// TestDatapathFlagParity pins the flag vocabulary both CLIs share: the
// backend, exposition, trace and worker knobs must be spelled the same
// in sossim and carbonreport, so fleet scripts can pass them to either
// tool.
func TestDatapathFlagParity(t *testing.T) {
	shared := []string{"backend", "metrics", "trace", "parallel"}
	carbon := registeredFlags(t, "main.go")
	sossim := registeredFlags(t, filepath.Join("..", "sossim", "main.go"))
	for _, name := range shared {
		if !carbon[name] {
			t.Errorf("carbonreport does not register -%s", name)
		}
		if !sossim[name] {
			t.Errorf("sossim does not register -%s", name)
		}
	}
}
