// Command perfbench is the repository benchmark. It runs one workload
// against the simulator in-process, checks the simulated outputs, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics) by name with unit and sample count. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Every time it reports is host time — how long the simulator takes,
// read from the process CPU clock (see cpuNow) — never the simulated
// device's time. Simulated statistics are outputs to check, not speeds.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload phone-zns --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 10
//
// Workloads: phone-audit, phone-zns, fleet-serve (see README.md).
package main

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// Replay and setup floors: every run times at least one replay, and
// reports the median of at least minSetups set-ups (a fleet set-up
// takes ~30 ms, and fewer left its median spreading 25% run to run).
const (
	minEpisodes = 1
	minSetups   = 15
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{phoneAudit.name, phoneZNS.name, fleetServe.name}

// layerNames is the per-layer metric set every traced run prints, in
// order. Metrics that exist on only one workload (fleet and daemon
// times) are reported beside it as extras.
var layerNames = []string{
	"classify.train_s", "sos.assemble_s",
	"core.tick_s", "core.create_s", "core.update_s", "core.read_s", "core.delete_s",
	"core.create_p50_us", "core.create_p99_us", "core.update_p50_us", "core.update_p99_us",
	"core.read_p50_us", "core.read_p99_us", "core.tick_p99_us",
	"core.read_us_per_page", "core.write_us_per_page",
	"core.events", "core.skipped_reads", "core.no_space", "core.reviewed", "core.demoted", "core.auto_deleted", "core.scrub_passes",
	"audit.passes", "audit.slices_scanned", "audit.silent", "audit.lost",
	"obs.events", "obs.dropped",
	"device.page_reads", "device.page_writes", "device.read_retries", "device.degraded_reads", "device.busy_sim_s",
	"ftl.host_writes", "ftl.flash_programs", "ftl.write_amp", "ftl.gc_runs", "ftl.gc_moves", "ftl.static_wl_moves",
	"zns.host_writes", "zns.flash_programs", "zns.write_amp", "zns.gc_runs", "zns.gc_moves", "zns.static_wl_moves",
	"flash.reads", "flash.programs", "flash.erases", "flash.bit_flips",
	"ecc.decode_us_per_page", "ecc.encode_us_per_page",
	"fleet.shard_days_advanced", "fleet.shard_days_replayed", "fleet.replay_ratio", "fleet.events_replayed", "fleet.expired",
	"fleetd.scrapes", "fleetd.metrics_bytes",
	"runtime.alloc_mb", "runtime.gc_cycles", "runtime.gc_cpu_frac",
	"bench.trace_overhead_frac", "bench.scrape_lag_p50_ms", "bench.scrape_backlog", "workload.gen_s",
	"bench.host_gf_ms", "bench.host_sort_ms",
}

// e2eNames is the end-to-end metric set every untraced run prints.
var e2eNames = []string{"setup_s", "device_days_per_s", "peak_heap_mb", "advance_p50_s", "scrape_p50_ms", "scrape_p99_ms"}

func main() {
	// One P: every timed section is single-threaded, and without a spare
	// P the garbage collector has no idle workers burning CPU that the
	// clock (cpuNow) would count.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fl.Uint64("seed", 1, "seed for the system and workload, as sossim -seed")
	secs := fl.Int("seconds", 10, "host seconds of timed work per workload")
	trace := fl.Int("trace", 0, "0 prints end-to-end metrics; 1 runs traced and prints per-layer metrics")
	state := fl.String("state", filepath.Join(".bench_build", "state"), "directory for span files and the output digests of seeds without a committed one")
	outputs := fl.String("outputs", filepath.Join("perfbench", "outputs"), "directory of the committed output digests")
	cpuprofile := fl.String("cpuprofile", "", "write a CPU profile of the whole run to this file (for layer shares)")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *secs < 1 || (*trace != 0 && *trace != 1) || fl.NArg() != 0 {
		fmt.Fprintln(stderr, "perfbench: need -seconds >= 1, -trace 0 or 1, and no positional arguments")
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err == nil {
			err = pprof.StartCPUProfile(f)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: cpu profile:", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	for _, n := range names {
		b := &bench{
			workload: n,
			seed:     *seed,
			duration: time.Duration(*secs) * time.Second,
			traced:   *trace == 1,
			state:    *state,
			outputs:  *outputs,
		}
		if err := b.run(); err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", n, err)
			return 1
		}
		if err := b.print(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

// bench is one workload run and everything it reports.
type bench struct {
	workload string
	seed     uint64
	duration time.Duration
	traced   bool
	state    string
	outputs  string

	tracer    *tracer
	genTime   time.Duration
	episodes  int
	phases    int // scrape phases handed out, one per replay
	attempted int
	failed    int
	// reference is the digest of this run's first checked output; every
	// later output of the run must match it.
	reference *[32]byte
	e2e       []metric
	layers    []metric
	extras    []metric
	notes     []string
	spanFile  string
}

func (b *bench) notef(format string, args ...any) {
	b.notes = append(b.notes, fmt.Sprintf(format, args...))
}

func (b *bench) run() error {
	if err := os.MkdirAll(b.state, 0o755); err != nil {
		return err
	}
	wall, cpu := time.Now(), cpuNow()
	defer func() {
		// CPU time short of wall time is mostly time the host gave
		// other tenants: what the CPU clock keeps out of every metric.
		b.notef("host: %.1f s of CPU time in %.1f s of wall time", seconds(cpuNow()-cpu), time.Since(wall).Seconds())
	}()
	var err error
	switch b.workload {
	case phoneAudit.name:
		err = b.runPhone(phoneAudit)
	case phoneZNS.name:
		err = b.runPhone(phoneZNS)
	case fleetServe.name:
		err = b.runFleet(fleetServe)
	default:
		return fmt.Errorf("unknown workload (want %s, or all)", strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return err
	}
	if b.tracer != nil {
		b.spanFile = filepath.Join(b.state, "spans", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
		if err := b.tracer.writeFile(b.spanFile); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
	}
	return nil
}

// sameOutput checks an output digest against the run's first output
// and against the seed's reference: the digest committed under the
// outputs directory, or, for a seed without one, the digest the first
// run of the seed left in the state directory (recorded when none
// exists). So every run of a seed — traced or not — must produce the
// same simulated output.
func (b *bench) sameOutput(digest [32]byte) bool {
	if b.reference != nil {
		if *b.reference != digest {
			b.notef("output differs from this run's first replay")
			return false
		}
		return true
	}
	b.reference = &digest
	got := hex.EncodeToString(digest[:])
	file := fmt.Sprintf("%s-seed%d.sha256", b.workload, b.seed)
	committed := filepath.Join(b.outputs, file)
	path := committed
	prev, err := os.ReadFile(committed)
	if errors.Is(err, os.ErrNotExist) {
		path = filepath.Join(b.state, "outputs", file)
		prev, err = os.ReadFile(path)
	}
	switch {
	case err == nil:
		if strings.TrimSpace(string(prev)) != got {
			b.notef("output differs from the reference for this seed (%s)", path)
			return false
		}
		return true
	case errors.Is(err, os.ErrNotExist):
		if err := writeFileAtomic(path, []byte(got+"\n")); err != nil {
			b.notef("record output digest: %v", err)
		}
		return true
	default:
		b.notef("read output digest: %v", err)
		return false
	}
}

func writeFileAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// result is the contract line: the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the human-readable report and then the contract line.
func (b *bench) print(w io.Writer) error {
	mode := "end-to-end"
	want, got := e2eNames, b.e2e
	if b.traced {
		mode, want, got = "traced per-layer", layerNames, b.layers
	}
	byName := make(map[string]metric, len(got))
	for _, m := range got {
		byName[m.Name] = m
	}
	fmt.Fprintf(w, "perfbench %s seed=%d seconds=%.0f: %s run, %d replays\n",
		b.workload, b.seed, b.duration.Seconds(), mode, b.episodes)
	for _, n := range b.notes {
		fmt.Fprintln(w, "  #", n)
	}
	res := result{Attempted: b.attempted, Failed: b.failed, Metrics: make(map[string]resultValue, len(want))}
	for _, n := range want {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("%s: metric %s was not measured", b.workload, n)
		}
		fmt.Fprintln(w, m)
		res.Metrics[n] = resultValue{Value: m.Value, Unit: m.Unit}
	}
	for _, m := range b.extras {
		fmt.Fprintln(w, m)
	}
	// failed_frac is printed rather than put in the contract line: it is
	// 0 on a correct run, and the line already carries both counts.
	fmt.Fprintln(w, metric{"failed_frac", "frac", ratio(float64(b.failed), float64(b.attempted)), b.attempted})
	if b.spanFile != "" {
		fmt.Fprintf(w, "  # %d spans written to %s (%d more aggregated only)\n", len(b.tracer.spans), b.spanFile, b.tracer.dropped)
	}
	res.Correct = b.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
