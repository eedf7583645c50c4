package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sos"
	"sos/internal/core"
	"sos/internal/fleet"
	"sos/internal/workload"
)

// golden reads a file from the repository's testdata.
func golden(t *testing.T, parts ...string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(append([]string{"..", "testdata"}, parts...)...))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sossimReport renders a replayed system the way `sossim -sim` prints
// its report (cmd/sossim/main.go), one field per line.
func sossimReport(t *testing.T, sys *sos.System, res replayResult) []string {
	t.Helper()
	smart := sys.Device.Smart()
	es := sys.Engine.Stats()
	lines := []string{
		fmt.Sprintf("profile          %s", sys.Config.Profile),
		fmt.Sprintf("backend          %s", smart.Backend),
		fmt.Sprintf("simulated        %v (%d events, %d skipped reads, %d no-space)", sys.Clock.Now(), res.events, res.skipped, res.noSpace),
		fmt.Sprintf("capacity         %d bytes (page %d B)", smart.CapacityBytes, smart.PageSize),
		fmt.Sprintf("wear             avg %.2f%%  max %.2f%%", smart.AvgWearFrac*100, smart.MaxWearFrac*100),
		fmt.Sprintf("write amp        %.2f", smart.WriteAmp),
		fmt.Sprintf("device busy      %v", smart.BusyTime.Duration()),
		fmt.Sprintf("files            created=%d deleted=%d auto-deleted=%d", es.Created, es.Deleted, es.AutoDeleted),
		fmt.Sprintf("classification   reviewed=%d demoted=%d promoted=%d sys-misplaced=%d", es.Reviewed, es.Demoted, es.Promoted, es.SysMisplaced),
		fmt.Sprintf("degradation      degraded-reads=%d regret-reads=%d scrub-moves=%d", es.DegradedReads, es.RegretReads, es.ScrubMoves),
		fmt.Sprintf("blocks           retired=%d resuscitated=%d of %d", smart.RetiredBlocks, smart.Resuscitations, smart.TotalBlocks),
	}
	hist := "wear histogram   "
	for i, c := range smart.WearHistogram {
		if c > 0 {
			hist += fmt.Sprintf("[%d0-%d0%%)=%d ", i, i+1, c)
		}
	}
	kg, err := sys.EmbodiedKg()
	if err != nil {
		t.Fatal(err)
	}
	return append(lines, hist, fmt.Sprintf("embodied carbon  %.3f kg CO2e", kg))
}

// TestPhoneZNSReproducesPreauditGoldens ties the phone-zns replay loop
// to the program users run: at seed 1 over 30 days it must reproduce
// `sossim -sim -days 30 -backend zns` field for field and its -metrics
// exposition byte for byte.
func TestPhoneZNSReproducesPreauditGoldens(t *testing.T) {
	p := phoneZNS
	p.days = 30
	tr, release, err := phoneTrace(workloadSeed, p.days, p.real)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	sys, err := p.assemble(1, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := timedReplay(sys, tr, nil)
	if res.err != nil {
		t.Fatal(res.err)
	}

	want := strings.Split(strings.TrimRight(string(golden(t, "preaudit", "report_zns.txt")), "\n"), "\n")
	got := sossimReport(t, sys, res)
	if len(got) != len(want) {
		t.Fatalf("report has %d fields, golden %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("report field %d:\n got %q\nwant %q", i, got[i], want[i])
		}
	}

	out, err := renderOutput(sys)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.exposition, golden(t, "preaudit", "metrics_zns.txt")) {
		t.Error("exposition differs from testdata/preaudit/metrics_zns.txt")
	}
}

// TestFleetServeReproducesServeGoldens drives the smoke sequence — the
// smoke fleet, one 7-day advance, then report and /metrics — through
// the fleet-serve episode code, scraper running, and requires the
// daemon goldens.
func TestFleetServeReproducesServeGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the 64-shard smoke fleet")
	}
	f := fleetServe
	f.advances = 1
	// One advance leaves another output than the workload's four, so the
	// committed digests do not apply.
	b := &bench{workload: f.name, seed: 1, state: t.TempDir(), outputs: t.TempDir()}
	ep, err := b.runFleetEpisode(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ep.failed != 0 {
		t.Fatalf("%d of %d operations failed: %v", ep.failed, ep.attempted, b.notes)
	}
	if !bytes.Equal(ep.report, golden(t, "fleet", "serve_report.json")) {
		t.Error("report differs from testdata/fleet/serve_report.json")
	}
	if !bytes.Equal(ep.metrics, golden(t, "fleet", "serve_metrics.txt")) {
		t.Error("/metrics differs from testdata/fleet/serve_metrics.txt")
	}
}

// TestTracedAuditReplayMatchesSystemRun pins the replay loop to
// System.Run: at a short horizon, the traced phone-audit loop must leave
// the same snapshot as System.Run over the same workload with sossim's
// payloads. At seed 1 the reference System trains its own classifier,
// so the shared-classifier assembly is pinned too.
func TestTracedAuditReplayMatchesSystemRun(t *testing.T) {
	p := phoneAudit
	p.days = 2
	tr, release, err := phoneTrace(workloadSeed, p.days, p.real)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	cls, err := trainClassifier(workloadSeed, systemTrainingFiles)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7} {
		tc := newTracer()
		sys, err := p.assemble(seed, tc, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := tracedReplay(sys, tr, tc, nil)
		if res.err != nil {
			t.Fatal(res.err)
		}
		if len(tc.durations(spanRead)) == 0 || len(tc.durations(spanTick)) != res.events {
			t.Fatalf("seed %d: traced replay recorded %d ticks for %d events", seed, len(tc.durations(spanTick)), res.events)
		}

		opts := []sos.Option{sos.WithSeed(seed), sos.WithAudit(0)}
		if seed != workloadSeed {
			opts = append(opts, sos.WithClassifier(cls))
		}
		ref, err := sos.NewSystem(opts...)
		if err != nil {
			t.Fatal(err)
		}
		wcfg := workload.DefaultPersonalConfig(p.days)
		wcfg.Seed = workloadSeed + 0x7ead
		gen, err := workload.NewPersonal(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ref.Run(gen, core.RunConfig{PayloadFor: func(ev workload.Event) []byte {
			b := make([]byte, ev.Size)
			fillPayload(b, ev.FileID)
			return b
		}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Events != res.events || rep.SkippedReads != res.skipped || rep.NoSpace != res.noSpace {
			t.Errorf("seed %d: replay counted %d/%d/%d events/skipped/no-space, System.Run %d/%d/%d",
				seed, res.events, res.skipped, res.noSpace, rep.Events, rep.SkippedReads, rep.NoSpace)
		}
		got, err := renderOutput(sys)
		if err != nil {
			t.Fatal(err)
		}
		want, err := renderOutput(ref)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.snapshot, want.snapshot) {
			t.Errorf("seed %d: replay snapshot differs from System.Run's", seed)
		}
	}
}

// TestContractLine runs the command end to end and checks the last
// line of its output against the contract: the metric set of each mode,
// a correct run whose output matches the committed digest of its seed,
// and a failure when the output differs from the seed's reference.
func TestContractLine(t *testing.T) {
	state := t.TempDir()
	for _, tc := range []struct {
		trace int
		names []string
	}{{0, e2eNames}, {1, layerNames}} {
		res := runCommand(t, state, "outputs", tc.trace)
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Fatalf("trace %d: correct=%v failed=%d attempted=%d", tc.trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(tc.names) {
			t.Errorf("trace %d: %d metrics, want %d", tc.trace, len(res.Metrics), len(tc.names))
		}
		for _, n := range tc.names {
			if _, ok := res.Metrics[n]; !ok {
				t.Errorf("trace %d: missing %s", tc.trace, n)
			}
		}
	}
	if _, err := os.Stat(filepath.Join(state, "outputs")); !os.IsNotExist(err) {
		t.Errorf("a seed with a committed digest recorded one in the state directory (%v)", err)
	}

	wrong := t.TempDir()
	if err := os.WriteFile(filepath.Join(wrong, "phone-zns-seed5.sha256"), []byte("not-this-output\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if res := runCommand(t, state, wrong, 0); res.Correct || res.Failed == 0 {
		t.Errorf("a run whose output differs from its seed's reference reads correct")
	}
}

func runCommand(t *testing.T, state, outputs string, trace int) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"-workload", "phone-zns", "-seed", "5", "-seconds", "1", "-trace", fmt.Sprint(trace), "-state", state, "-outputs", outputs}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	var last string
	for sc := bufio.NewScanner(&out); sc.Scan(); {
		last = sc.Text()
	}
	var res result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return res
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.99); got < 4.9 || got > 5 {
		t.Errorf("p99 = %v", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %v", got)
	}
}

func TestReplayCounts(t *testing.T) {
	report := func(days []int, expired []bool, events []int64) []byte {
		var rep sos.FleetReport
		rep.Shards = len(days)
		for i := range days {
			rep.PerShard = append(rep.PerShard, fleetShard(i, days[i], expired[i], events[i]))
			if expired[i] {
				rep.Totals.Expired++
			}
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	// Shard 0 (age 10) lives through both advances; shard 1 dies in the
	// first and is not replayed again.
	after := [][]byte{
		report([]int{17, 5}, []bool{false, true}, []int64{100, 30}),
		report([]int{24, 5}, []bool{false, true}, []int64{140, 30}),
	}
	fc, err := replayCounts(after)
	if err != nil {
		t.Fatal(err)
	}
	want := fleetCounts{advanced: 14 + 5, replayed: 17 + 5 + 24, events: 100 + 30 + 140, expired: 1}
	if fc != want {
		t.Errorf("replayCounts = %+v, want %+v", fc, want)
	}
}

// fleetShard is a per-shard record for replay accounting tests: shard 0
// starts 10 days old, every other shard new.
func fleetShard(i, days int, expired bool, events int64) fleet.ShardStats {
	age := 0
	if i == 0 {
		age = 10
	}
	return fleet.ShardStats{Shard: i, Days: days, AgeDays: age, Expired: expired, Events: events}
}
