package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"syscall"
	"time"

	"sos"
	"sos/internal/classify"
	"sos/internal/device"
	"sos/internal/ecc"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/workload"
)

// phoneSpec is one single-device workload: sossim's -sim configuration
// replaying, closed-loop, a trace generated before timing starts.
type phoneSpec struct {
	name    string
	backend sos.Backend
	days    int
	// real carries payload bytes on every create and turns the auditor
	// on at its default budget (sossim -sim -audit).
	real bool
	// observe turns the obs recorder on (sossim -sim -metrics).
	observe bool
	// kernels are the calibration kernels that scale the replay times.
	kernels []hostKernel
}

var (
	// phoneAudit is `sossim -sim -audit` on the ftl backend: the only
	// path where ECC sees dense codewords. Eight days reach the first
	// weekly scrub (due on day 7).
	phoneAudit = phoneSpec{name: "phone-audit", backend: sos.BackendFTL, days: 8, real: true, kernels: []hostKernel{kernelGF}}
	// phoneZNS is `sossim -sim -backend zns -metrics`, long enough to
	// fill the 64 MiB device and reach auto-delete.
	phoneZNS = phoneSpec{name: "phone-zns", backend: sos.BackendZNS, days: 120, observe: true, kernels: []hostKernel{kernelSort}}
)

// workloadSeed seeds what every phone run shares: the workload trace
// (sossim -sim -record at the default seed) and the classifier corpus.
// The run seed seeds the device and the auditor. Both shared parts set
// a replay's cost far more than the device does — across seeds, one
// phone trace costs up to 20% more host time than another, and one
// trained classifier twice another — so a run seeded from them would
// measure its seed rather than the program.
const workloadSeed = 1

// assemble builds the run's System as sossim -sim -seed would, around
// the shared classifier: training and assembly each get a span.
func (p phoneSpec) assemble(seed uint64, t *tracer, req int64) (*sos.System, error) {
	opts := []sos.Option{sos.WithSeed(seed), sos.WithBackend(p.backend)}
	if p.real {
		opts = append(opts, sos.WithAudit(0))
	}
	if p.observe {
		opts = append(opts, sos.WithObserve())
	}
	return tracedAssembly(t, req, workloadSeed, systemTrainingFiles, opts...)
}

// phoneTrace generates the personal workload as sossim -sim -seed seeds
// it. With real payloads, every create's bytes are synthesized up front
// into anonymous memory outside the Go heap, so neither their
// generation time nor their memory shows in the timed run; release
// frees that memory.
func phoneTrace(seed uint64, days int, real bool) (tr *replayTrace, release func(), err error) {
	cfg := workload.DefaultPersonalConfig(days)
	cfg.Seed = seed + 0x7ead
	gen, err := workload.NewPersonal(cfg)
	if err != nil {
		return nil, nil, err
	}
	tr = &replayTrace{days: days, events: workload.Collect(gen), real: real}
	tr.payloads = make([][]byte, len(tr.events))
	release = func() {}
	if !real {
		return tr, release, nil
	}
	total := 0
	for _, ev := range tr.events {
		if ev.Kind == workload.EvCreate {
			total += int(ev.Size)
		}
	}
	if total == 0 {
		return tr, release, nil
	}
	arena, err := syscall.Mmap(-1, 0, total, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, nil, fmt.Errorf("payload arena: %w", err)
	}
	off := 0
	for i, ev := range tr.events {
		if ev.Kind != workload.EvCreate {
			continue
		}
		n := int(ev.Size)
		b := arena[off : off+n : off+n]
		fillPayload(b, ev.FileID)
		tr.payloads[i] = b
		off += n
	}
	return tr, func() { _ = syscall.Munmap(arena) }, nil
}

// fillPayload writes sossim's deterministic audit payload for a file:
// an xorshift stream keyed by the workload file id.
func fillPayload(b []byte, fileID int64) {
	x := uint64(fileID)*0x9e3779b97f4a7c15 + 1
	for i := range b {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		b[i] = byte(x)
	}
}

// trainClassifier trains the logistic classifier System assembly would
// train for a (seed, corpus size): the same corpus RNG stream, so a
// System built around it is byte-identical to one that trains its own.
func trainClassifier(seed uint64, files int) (classify.Classifier, error) {
	if seed == 0 {
		seed = 1
	}
	corpus, err := classify.GenerateCorpus(sim.NewRNG(seed+0xc0de), files)
	if err != nil {
		return nil, err
	}
	lr := &classify.Logistic{}
	if err := lr.Train(corpus.Metas, corpus.Labels); err != nil {
		return nil, err
	}
	return lr, nil
}

// systemTrainingFiles is System assembly's default classifier corpus.
const systemTrainingFiles = 8000

// phoneOutput is the checked output of one replay: the Snapshot JSON
// and the exposition rendered from it.
type phoneOutput struct {
	snapshot   []byte
	exposition []byte
}

func renderOutput(sys *sos.System) (phoneOutput, error) {
	var js, prom bytes.Buffer
	snap := sys.Snapshot()
	if err := snap.WriteJSON(&js); err != nil {
		return phoneOutput{}, err
	}
	if _, err := snap.WritePrometheus(&prom); err != nil {
		return phoneOutput{}, err
	}
	return phoneOutput{snapshot: js.Bytes(), exposition: prom.Bytes()}, nil
}

// runPhone runs a phone workload for the configured time.
func (b *bench) runPhone(p phoneSpec) error {
	genStart := cpuNow()
	tr, release, err := phoneTrace(workloadSeed, p.days, p.real)
	if err != nil {
		return err
	}
	defer release()
	b.genTime = cpuNow() - genStart
	b.notef("%s: %d events over %d simulated days per replay", p.name, len(tr.events), p.days)
	if b.traced {
		return b.tracePhone(p, tr)
	}

	heap := startHeapSampler()
	defer heap.close()
	host := newHostSpeed()
	var setups, rates, peaks, days []float64
	var scr scrapeStats
	var measured time.Duration
	for ep := 0; ep < minEpisodes || measured < b.duration; ep++ {
		host.sample()
		settle()
		t0 := cpuNow()
		sys, err := p.assemble(b.seed, nil, 0)
		setups = append(setups, seconds(cpuNow()-t0))
		if err != nil {
			return fmt.Errorf("assemble system: %w", err)
		}
		sc := b.newInbandScraper(sys)
		settle()
		heap.begin()
		res := timedReplay(sys, tr, sc)
		peaks = append(peaks, heap.end())
		measured += res.elapsed
		b.countReplay(res, sc.scrapeStats)
		rates = append(rates, float64(p.days)/seconds(res.elapsed))
		for _, d := range res.dayTimes {
			days = append(days, seconds(d))
		}
		scr.merge(sc.scrapeStats)
		b.checkSystem(sys)
	}
	for len(setups) < minSetups {
		settle()
		t0 := cpuNow()
		if _, err := p.assemble(b.seed, nil, 0); err != nil {
			return fmt.Errorf("assemble system: %w", err)
		}
		setups = append(setups, seconds(cpuNow()-t0))
	}
	b.episodes = len(rates)
	b.notef("scrapes: %d timed, %d drained after the last event", len(scr.latency), scr.backlog)
	host.finish()
	b.endToEnd(host, p.kernels, setups, rates, peaks, days, scr)
	return nil
}

// countReplay adds one replay's operations and failures to the run
// totals.
func (b *bench) countReplay(res replayResult, sc scrapeStats) {
	b.attempted += res.total + len(sc.latency)
	b.failed += res.failed + sc.failed
	if res.err != nil {
		b.notef("engine error: %v (%d events failed)", res.err, res.failed)
	}
}

// checkSystem runs the output checks on a replayed system: its snapshot
// must match every other replay of this seed, and its exposition must
// parse.
func (b *bench) checkSystem(sys *sos.System) {
	b.attempted += 2
	out, err := renderOutput(sys)
	if err != nil {
		b.notef("render output: %v", err)
		b.failed += 2
		return
	}
	if !b.sameOutput(sha256.Sum256(out.snapshot)) {
		b.failed++
	}
	if n, err := obs.ParseExposition(bytes.NewReader(out.exposition)); err != nil || n == 0 {
		b.notef("exposition rejected: %d samples, %v", n, err)
		b.failed++
	}
}

// endToEnd stores the end-to-end metrics shared by every workload:
// host times scaled to the reference host, set-up by the sort kernel
// and the replay or advance times by the workload's kernels. The
// unscaled values are printed beside them.
func (b *bench) endToEnd(host *hostSpeed, ks []hostKernel, setups, rates, peaks, advances []float64, scr scrapeStats) {
	raw := []metric{
		{"setup_s", "s", median(setups), len(setups)},
		{"device_days_per_s", "days/s", median(rates), len(rates)},
		{"peak_heap_mb", "MB", median(peaks), len(peaks)},
		{"advance_p50_s", "s", median(advances), len(advances)},
		{"scrape_p50_ms", "ms", median(scr.latency), len(scr.latency)},
		{"scrape_p99_ms", "ms", quantile(scr.latency, 0.99), len(scr.latency)},
	}
	setup, run := host.scale(kernelSort), host.scale(ks...)
	factor := []float64{setup, 1 / run, 1, run, run, run}
	b.notef("%s", host.note(ks))
	for i, m := range raw {
		b.extras = append(b.extras, metric{"unscaled." + m.Name, m.Unit, m.Value, m.N})
		m.Value *= factor[i]
		b.e2e = append(b.e2e, m)
	}
	b.extras = append(b.extras, host.metrics()...)
}

// tracePhone is the traced run of a phone workload. Replays alternate:
// untraced ones give the overhead baseline and the runtime counters,
// traced ones record a span around every engine call, around classifier
// training, and around system assembly.
func (b *bench) tracePhone(p phoneSpec, tr *replayTrace) error {
	t := newTracer()
	b.tracer = t
	host := newHostSpeed()
	var rt rtUsage
	var plain, traced []float64
	var scr scrapeStats
	var ct coreTrace
	var measured time.Duration
	for ep := 0; ep < 2*minEpisodes || measured < b.duration; ep++ {
		tt := t
		if ep%2 == 0 {
			tt = nil
		}
		host.sample()
		settle()
		sys, err := p.assemble(b.seed, tt, int64(ep))
		if err != nil {
			return fmt.Errorf("assemble system: %w", err)
		}
		sc := b.newInbandScraper(sys)
		settle()
		before := readRuntime()
		res := tracedReplay(sys, tr, tt, sc)
		if tt == nil {
			rt.add(before, readRuntime())
			plain = append(plain, seconds(res.elapsed))
		} else {
			traced = append(traced, seconds(res.elapsed))
			ct.add(sys, res)
		}
		measured += res.elapsed
		b.countReplay(res, sc.scrapeStats)
		scr.merge(sc.scrapeStats)
		b.checkSystem(sys)
	}
	b.episodes = len(plain) + len(traced)

	page := make([]byte, ct.sys.Device.PageSize())
	if p.real {
		page = firstFullPage(tr, len(page))
	}
	return b.tracedLayers(t, &ct, page, fleetCounts{}, &rt, host, median(traced)/median(plain)-1, scr)
}

// coreTrace accumulates the traced replays behind the core, device, and
// lower per-layer metrics; sys and res are the last of them.
type coreTrace struct {
	replays                 int
	pagesRead, pagesWritten int64
	dailyTicks              []float64
	sys                     *sos.System
	res                     replayResult
}

func (c *coreTrace) add(sys *sos.System, res replayResult) {
	c.replays++
	c.pagesRead += res.pagesRead
	c.pagesWritten += res.pagesWritten
	c.dailyTicks = append(c.dailyTicks, res.dailyTicks...)
	c.sys, c.res = sys, res
}

// tracedLayers fills in the per-layer metrics of a traced run, timing
// the ECC rung on page.
func (b *bench) tracedLayers(t *tracer, ct *coreTrace, page []byte, fc fleetCounts, rt *rtUsage, host *hostSpeed, overhead float64, scr scrapeStats) error {
	enc, dec, err := eccRung(t, page)
	if err != nil {
		return err
	}
	b.layers = append(b.layers,
		metric{"classify.train_s", "s", median(secondsOf(t.durations("classify.train"))), ct.replays},
		metric{"sos.assemble_s", "s", median(secondsOf(t.durations("sos.assemble"))), ct.replays},
	)
	b.layers = append(b.layers, coreLayer(t, ct)...)
	b.layers = append(b.layers, systemCounts(ct.sys, ct.res)...)
	b.layers = append(b.layers,
		metric{"ecc.decode_us_per_page", "us", dec.value, dec.n},
		metric{"ecc.encode_us_per_page", "us", enc.value, enc.n},
	)
	b.layers = append(b.layers, fleetLayer(fc)...)
	b.layers = append(b.layers, rt.layerMetrics()...)
	b.layers = append(b.layers,
		metric{"bench.trace_overhead_frac", "frac", overhead, b.episodes},
		metric{"bench.scrape_lag_p50_ms", "ms", median(scr.lag), len(scr.lag)},
		metric{"bench.scrape_backlog", "count", ratio(float64(scr.backlog), float64(b.episodes)), b.episodes},
		metric{"workload.gen_s", "s", seconds(b.genTime), 1},
	)
	host.finish()
	b.layers = append(b.layers, host.metrics()...)
	return nil
}

// firstFullPage returns the first page-sized prefix of a create payload
// in the trace: a page of the workload's own bytes.
func firstFullPage(tr *replayTrace, size int) []byte {
	for _, pl := range tr.payloads {
		if len(pl) >= size {
			return append([]byte(nil), pl[:size]...)
		}
	}
	return make([]byte, size)
}

// tracedAssembly builds a System in two spans: classifier training,
// then assembly around the trained model.
func tracedAssembly(t *tracer, req int64, seed uint64, files int, opts ...sos.Option) (*sos.System, error) {
	t0 := t.begin()
	cls, err := trainClassifier(seed, files)
	t.end("classify.train", req, t0)
	if err != nil {
		return nil, err
	}
	t0 = t.begin()
	sys, err := sos.NewSystem(append(opts, sos.WithClassifier(cls))...)
	t.end("sos.assemble", req, t0)
	return sys, err
}

func secondsOf(us []float64) []float64 {
	out := make([]float64, len(us))
	for i, v := range us {
		out[i] = v / 1e6
	}
	return out
}

// coreLayer derives the core.* timing metrics from the traced replays:
// busy totals per replay, per-call latency quantiles, per-page costs.
func coreLayer(t *tracer, ct *coreTrace) []metric {
	busy := func(name string) metric {
		d := t.durations(name)
		return metric{name + "_s", "s", ratio(sum(d)/1e6, float64(ct.replays)), len(d)}
	}
	q := func(name, suffix string, p float64) metric {
		d := t.durations(name)
		return metric{name + suffix, "us", quantile(d, p), len(d)}
	}
	create, update, read := t.durations(spanCreate), t.durations(spanUpdate), t.durations(spanRead)
	return []metric{
		busy(spanTick), busy(spanCreate), busy(spanUpdate), busy(spanRead), busy(spanDelete),
		q(spanCreate, "_p50_us", 0.5), q(spanCreate, "_p99_us", 0.99),
		q(spanUpdate, "_p50_us", 0.5), q(spanUpdate, "_p99_us", 0.99),
		q(spanRead, "_p50_us", 0.5), q(spanRead, "_p99_us", 0.99),
		{"core.tick_p99_us", "us", quantile(ct.dailyTicks, 0.99), len(ct.dailyTicks)},
		{"core.read_us_per_page", "us", ratio(sum(read), float64(ct.pagesRead)), len(read)},
		{"core.write_us_per_page", "us", ratio(sum(create)+sum(update), float64(ct.pagesWritten)), len(create) + len(update)},
	}
}

// systemCounts reads the simulated-work counters of one replayed
// system from its public stats. They repeat exactly for a seed and
// must not move under a speed-only change.
func systemCounts(sys *sos.System, res replayResult) []metric {
	snap := sys.Snapshot()
	es := snap.Engine
	var as struct{ passes, scanned, silent, lost int64 }
	if snap.Audit != nil {
		as.passes, as.scanned, as.silent, as.lost = snap.Audit.Passes, snap.Audit.SlicesScanned, snap.Audit.Silent, snap.Audit.Lost
	}
	var obsEvents, obsDropped uint64
	if snap.Obs != nil {
		obsEvents, obsDropped = snap.Obs.Events, snap.Obs.Dropped
	}
	d := snap.Device
	chip := sys.Device.Chip().Stats()
	c := func(name string, v int64) metric { return metric{name, "count", float64(v), 1} }
	out := []metric{
		c("core.events", int64(res.events)),
		c("core.skipped_reads", int64(res.skipped)),
		c("core.no_space", int64(res.noSpace)),
		c("core.reviewed", es.Reviewed),
		c("core.demoted", es.Demoted),
		c("core.auto_deleted", es.AutoDeleted),
		c("core.scrub_passes", es.ScrubPasses),
		c("audit.passes", as.passes),
		c("audit.slices_scanned", as.scanned),
		c("audit.silent", as.silent),
		c("audit.lost", as.lost),
		c("obs.events", int64(obsEvents)),
		c("obs.dropped", int64(obsDropped)),
		c("device.page_reads", d.Reads),
		c("device.page_writes", d.Writes),
		c("device.read_retries", d.ReadRetries),
		c("device.degraded_reads", d.DegradedReads),
		{"device.busy_sim_s", "sim_s", d.BusyTime.Seconds(), 1},
	}
	for _, kind := range sos.Backends() {
		var f struct{ host, programs, gcRuns, gcMoves, wl int64 }
		wa := 0.0
		if kind.String() == d.Backend {
			f.host, f.programs, f.gcRuns, f.gcMoves, f.wl = d.FTL.HostWrites, d.FTL.FlashPrograms, d.FTL.GCRuns, d.FTL.GCMoves, d.FTL.StaticWLMoves
			wa = d.WriteAmp
		}
		p := kind.String() + "."
		out = append(out,
			c(p+"host_writes", f.host),
			c(p+"flash_programs", f.programs),
			metric{p + "write_amp", "ratio", wa, 1},
			c(p+"gc_runs", f.gcRuns),
			c(p+"gc_moves", f.gcMoves),
			c(p+"static_wl_moves", f.wl),
		)
	}
	return append(out,
		c("flash.reads", chip.Reads),
		c("flash.programs", chip.Programs),
		c("flash.erases", chip.Erases),
		c("flash.bit_flips", chip.BitFlips),
	)
}

// rung is one timed ladder step: the median per-call time and its
// sample count.
type rung struct {
	value float64
	n     int
}

// eccRungBudget is the host time spent timing each ECC call, and
// eccBatch the calls timed per span: one span per call would cost as
// much as a zero-filled page's encode.
const (
	eccRungBudget = 150 * time.Millisecond
	eccBatch      = 16
)

// eccRung times Encode and DecodeStored with the SYS stream's scheme on
// one page, after checking that the page round-trips. Each span covers
// eccBatch calls; the rung reports the median per-call time.
func eccRung(t *tracer, page []byte) (enc, dec rung, err error) {
	scheme := device.SOSStreams()[0].Scheme
	stored, err := scheme.Encode(page)
	if err != nil {
		return rung{}, rung{}, fmt.Errorf("ecc rung: %w", err)
	}
	buf := append([]byte(nil), stored...)
	data, _, err := ecc.DecodeStored(scheme, buf)
	if err != nil || !bytes.Equal(data, page) {
		return rung{}, rung{}, fmt.Errorf("ecc rung: page does not round-trip (%v)", err)
	}
	// DecodeStored decodes in place, so every call gets a fresh copy of
	// the codeword; the copies sit outside the timed spans.
	copies := make([][]byte, eccBatch)
	for i := range copies {
		copies[i] = make([]byte, len(stored))
	}
	for start, i := time.Now(), int64(0); time.Since(start) < eccRungBudget; i++ {
		t0 := t.begin()
		for j := 0; j < eccBatch && err == nil; j++ {
			_, err = scheme.Encode(page)
		}
		t.end("ecc.encode", i, t0)
		if err != nil {
			return rung{}, rung{}, fmt.Errorf("ecc rung: %w", err)
		}
	}
	for start, i := time.Now(), int64(0); time.Since(start) < eccRungBudget; i++ {
		for _, c := range copies {
			copy(c, stored)
		}
		t0 := t.begin()
		for j := 0; j < eccBatch && err == nil; j++ {
			_, _, err = ecc.DecodeStored(scheme, copies[j])
		}
		t.end("ecc.decode", i, t0)
		if err != nil {
			return rung{}, rung{}, fmt.Errorf("ecc rung: %w", err)
		}
	}
	e, d := t.durations("ecc.encode"), t.durations("ecc.decode")
	return rung{median(e) / eccBatch, len(e) * eccBatch}, rung{median(d) / eccBatch, len(d) * eccBatch}, nil
}
