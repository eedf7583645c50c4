package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"sos"
	"sos/internal/fleetd"
	"sos/internal/obs"
	"sos/internal/workload"
)

// fleetSpec is the fleet-serve workload: the daemon on a loopback
// listener, driven by a closed-loop advancing client and an open-loop
// scraping client.
type fleetSpec struct {
	name string
	// advances equal ?stream=1 advances of days each follow the create.
	advances, days int
	// kernels are the calibration kernels that scale the advance times.
	kernels []hostKernel
}

// fleetServe's advances are two-thirds ftl GC and one-third error-model
// arithmetic, and neither kernel alone tracked them (README: Host-speed
// scaling), so their times scale by the geometric mean of both.
var fleetServe = fleetSpec{name: "fleet-serve", advances: 4, days: 7, kernels: []hostKernel{kernelGF, kernelSort}}

// daemonWorkers is the daemon's worker bound. Every time is CPU time
// (see cpuNow), which equals an advance's latency only while a single
// worker replays shards.
const daemonWorkers = 1

// config is the daemon's smoke fleet: 64 shards, ages {0, 30, 90},
// storms every 8 shards, stragglers every 16, fleet seed 21. Every run
// hosts this one fleet; the run seed sets the scrape schedule's phase.
// The fleet seed also trains the classifier all shards share, and that
// one model sets the fleet's host cost: four 7-day advances take ~2 s
// under some fleet seeds' models and ~6.5 s under others, while with
// one model held fixed the cost varies ~3.5% across fleet seeds.
func (f fleetSpec) config() sos.FleetConfig {
	return fleetd.SmokeConfig()
}

// daemon is fleetd serving on a loopback listener.
type daemon struct {
	srv  *http.Server
	base string
	done chan error
}

func startDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{
		srv:  &http.Server{Handler: fleetd.New(fleetd.Config{Workers: daemonWorkers}).Handler()},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// stop closes the listener and every connection, and waits for Serve
// to return.
func (d *daemon) stop() {
	d.srv.Close()
	<-d.done
}

// newClient returns a client holding one connection to the daemon.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// call sends one request and reads the whole response. It reports the
// send and last-byte times on the CPU clock; a non-2xx status is an
// error.
func call(c *http.Client, method, url string, body []byte) (data []byte, sent, done time.Duration, err error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, 0, 0, err
	}
	sent = cpuNow()
	resp, err := c.Do(req)
	if err != nil {
		return nil, sent, cpuNow(), err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	done = cpuNow()
	if err == nil && (resp.StatusCode < 200 || resp.StatusCode > 299) {
		err = fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, sent, done, err
}

// fleetEpisode is one create-advance-drain cycle against a fresh
// daemon.
type fleetEpisode struct {
	setup    time.Duration // listener start plus POST /v1/fleet
	create   time.Duration // POST /v1/fleet alone
	advances []time.Duration
	scr      scrapeStats
	// metricsBytes is the size of the final /metrics body.
	metricsBytes int
	// peakMB is the live-heap peak while the advances ran.
	peakMB float64
	// Final outputs, read after timing: the aggregate report, the
	// ?per_shard=1 report, and /metrics.
	report, perShard, metrics []byte
	// after holds the ?per_shard=1 report after each advance (traced
	// episodes only): the replay accounting's input.
	after     [][]byte
	attempted int
	failed    int
}

// runFleetEpisode drives one episode. With a tracer it records a span
// per request and fetches the per-shard report after every advance.
func (b *bench) runFleetEpisode(f fleetSpec, t *tracer, heap *heapSampler) (*fleetEpisode, error) {
	ep := &fleetEpisode{}
	settle()
	start := cpuNow()
	d, err := startDaemon()
	if err != nil {
		return nil, fmt.Errorf("start daemon: %w", err)
	}
	defer d.stop()
	adv, scr := newClient(), newClient()
	defer adv.CloseIdleConnections()
	defer scr.CloseIdleConnections()

	cfg, err := json.Marshal(f.config())
	if err != nil {
		return nil, err
	}
	t0 := t.begin()
	body, sent, done, err := call(adv, "POST", d.base+"/v1/fleet", cfg)
	t.end("fleetd.create", 0, t0)
	if err != nil {
		return nil, fmt.Errorf("create fleet: %w", err)
	}
	ep.setup, ep.create = done-start, done-sent
	var cr fleetd.CreateResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		return nil, fmt.Errorf("create fleet: %w", err)
	}
	fleetURL := d.base + "/v1/fleet/" + cr.ID
	advBody, err := json.Marshal(fleetd.AdvanceRequest{Days: f.days})
	if err != nil {
		return nil, err
	}

	settle()
	if heap != nil {
		heap.begin()
	}
	s := &openScraper{client: scr, t: t, phase: b.nextPhase(), urls: [2]string{d.base + "/metrics", fleetURL + "/report"}, ended: make(chan struct{})}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.run(cpuNow())
	}()

	for i := 0; i < f.advances; i++ {
		lat, ok := b.advance(adv, t, int64(i+1), fleetURL+"/advance?stream=1", advBody)
		ep.attempted++
		if !ok {
			ep.failed++
		}
		ep.advances = append(ep.advances, lat)
		if t != nil {
			t0 := t.begin()
			rep, _, _, err := call(adv, "GET", fleetURL+"/report?per_shard=1", nil)
			t.end("fleetd.report_per_shard", int64(i+1), t0)
			ep.attempted++
			if err != nil {
				b.notef("per-shard report: %v", err)
				ep.failed++
			}
			ep.after = append(ep.after, rep)
		}
	}
	s.end = cpuNow()
	close(s.ended)
	wg.Wait()
	if heap != nil {
		ep.peakMB = heap.end()
	}
	ep.scr = s.scrapeStats
	ep.attempted += len(s.latency)
	ep.failed += s.failed

	// Final outputs, outside the timed section.
	for _, out := range []struct {
		dst *[]byte
		url string
	}{
		{&ep.perShard, fleetURL + "/report?per_shard=1"},
		{&ep.report, fleetURL + "/report"},
		{&ep.metrics, d.base + "/metrics"},
	} {
		*out.dst, _, _, err = call(adv, "GET", out.url, nil)
		if err != nil {
			return nil, fmt.Errorf("final outputs: %w", err)
		}
	}
	ep.metricsBytes = len(ep.metrics)
	// Checks: the per-shard report must match every run of this seed,
	// and every /metrics body must parse.
	ep.attempted++
	if !b.sameOutput(sha256.Sum256(ep.perShard)) {
		ep.failed++
	}
	for _, m := range append(s.bodies, ep.metrics) {
		ep.attempted++
		if n, err := obs.ParseExposition(bytes.NewReader(m)); err != nil || n == 0 {
			b.notef("/metrics rejected: %d samples, %v", n, err)
			ep.failed++
		}
	}
	return ep, nil
}

// advance sends one streamed advance and reads it to the last byte. It
// fails unless the status is 2xx, no line carries an error, and the
// last line carries the report.
func (b *bench) advance(c *http.Client, t *tracer, req int64, url string, body []byte) (time.Duration, bool) {
	t0 := t.begin()
	sent := cpuNow()
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		b.notef("advance: %v", err)
		return cpuNow() - sent, false
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var last []byte
	streamErr := false
	for sc.Scan() {
		line := sc.Bytes()
		if bytes.HasPrefix(line, []byte(`{"error"`)) {
			streamErr = true
			b.notef("advance stream error: %s", line)
		}
		last = append(last[:0], line...)
	}
	lat := cpuNow() - sent
	t.end("fleetd.advance", req, t0)
	if err := sc.Err(); err != nil {
		b.notef("advance: %v", err)
		return lat, false
	}
	if resp.StatusCode != http.StatusOK {
		b.notef("advance: status %d", resp.StatusCode)
		return lat, false
	}
	var final struct {
		Report *sos.FleetReport `json:"report"`
	}
	if err := json.Unmarshal(last, &final); err != nil || final.Report == nil {
		b.notef("advance stream did not end in a report line")
		return lat, false
	}
	return lat, !streamErr
}

// openScraper is fleet-serve's open-loop scrape client: one scrape due
// every scrapeInterval from the first advance on (offset by the
// replay's phase), alternating GET /metrics and GET /report over its own
// connection. Each scrape is timed from when it fell due; scrapes still
// due when the advances end are sent and timed, then the scraper stops.
type openScraper struct {
	client *http.Client
	t      *tracer
	phase  time.Duration
	urls   [2]string
	// ended is closed once end — when the last advance completed — is
	// set.
	ended chan struct{}
	end   time.Duration
	// bodies keeps each distinct /metrics body for the parse check.
	bodies [][]byte
	scrapeStats
}

var scrapeSpan = [2]string{"fleetd.metrics", "fleetd.report"}

func (s *openScraper) run(start time.Duration) {
	var last []byte
	for k := 0; ; k++ {
		due := start + s.phase + time.Duration(k)*scrapeInterval
		if !s.waitUntil(due) {
			return
		}
		kind := k % 2
		backlog := s.isEnded()
		t0 := s.t.begin()
		body, sent, done, err := call(s.client, "GET", s.urls[kind], nil)
		s.t.end(scrapeSpan[kind], int64(k), t0)
		if err != nil {
			s.failed++
		}
		s.record(kind, due, sent, done)
		if backlog {
			s.backlog++
		}
		if kind == 0 && err == nil && !bytes.Equal(body, last) {
			last = body
			s.bodies = append(s.bodies, body)
		}
	}
}

func (s *openScraper) isEnded() bool {
	select {
	case <-s.ended:
		return true
	default:
		return false
	}
}

// scrapePoll is how often a scraper ahead of its schedule reads the CPU
// clock, which has no timers.
const scrapePoll = 200 * time.Microsecond

// waitUntil waits until the CPU clock reaches due and reports whether
// that scrape is still part of the run: false once the advances ended
// before it fell due.
func (s *openScraper) waitUntil(due time.Duration) bool {
	timer := time.NewTimer(scrapePoll)
	defer timer.Stop()
	for {
		if s.isEnded() && due > s.end {
			return false
		}
		if cpuNow() >= due {
			return true
		}
		timer.Reset(scrapePoll)
		select {
		case <-timer.C:
		case <-s.ended:
		}
	}
}

// runFleet runs the fleet-serve workload for the configured time.
func (b *bench) runFleet(f fleetSpec) error {
	genStart := cpuNow()
	if _, err := json.Marshal(f.config()); err != nil {
		return err
	}
	b.genTime = cpuNow() - genStart
	b.notef("%s: %d shards, %d advances of %d days per replay, daemon workers %d",
		f.name, f.config().Shards, f.advances, f.days, daemonWorkers)
	b.notef("fleet seed %d for every run; the run seed sets the scrape phase", f.config().Seed)
	if b.traced {
		return b.traceFleet(f)
	}
	heap := startHeapSampler()
	defer heap.close()
	host := newHostSpeed()
	var setups, rates, peaks, advances []float64
	var scr scrapeStats
	var measured time.Duration
	for ep := 0; ep < minEpisodes || measured < b.duration; ep++ {
		host.sample()
		e, err := b.runFleetEpisode(f, nil, heap)
		if err != nil {
			return err
		}
		b.attempted += e.attempted
		b.failed += e.failed
		setups = append(setups, seconds(e.setup))
		var total time.Duration
		for _, a := range e.advances {
			total += a
			advances = append(advances, seconds(a))
		}
		measured += total
		days, err := shardDaysAdvanced(e.perShard)
		if err != nil {
			return err
		}
		rates = append(rates, float64(days)/seconds(total))
		peaks = append(peaks, e.peakMB)
		scr.merge(e.scr)
	}
	for len(setups) < minSetups {
		s, err := b.fleetSetup(f)
		if err != nil {
			return err
		}
		setups = append(setups, seconds(s))
	}
	b.episodes = len(rates)
	b.notef("advance rates (shard-days/s) by episode: %.4g", rates)
	b.notef("scrapes: %d timed, %d drained after the last advance", len(scr.latency), scr.backlog)
	host.finish()
	b.endToEnd(host, f.kernels, setups, rates, peaks, advances, scr)
	return nil
}

// fleetSetup times one set-up alone: listener start plus create.
func (b *bench) fleetSetup(f fleetSpec) (time.Duration, error) {
	settle()
	start := cpuNow()
	d, err := startDaemon()
	if err != nil {
		return 0, err
	}
	defer d.stop()
	c := newClient()
	defer c.CloseIdleConnections()
	cfg, err := json.Marshal(f.config())
	if err != nil {
		return 0, err
	}
	if _, _, _, err := call(c, "POST", d.base+"/v1/fleet", cfg); err != nil {
		return 0, fmt.Errorf("create fleet: %w", err)
	}
	return cpuNow() - start, nil
}

func parseReport(data []byte) (*sos.FleetReport, error) {
	var rep sos.FleetReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("fleet report: %w", err)
	}
	return &rep, nil
}

// shardDaysAdvanced sums the days each shard advanced, as the per-shard
// report counts them (an expired shard stops at its death day).
func shardDaysAdvanced(perShard []byte) (int64, error) {
	rep, err := parseReport(perShard)
	if err != nil {
		return 0, err
	}
	if len(rep.PerShard) != rep.Shards {
		return 0, fmt.Errorf("fleet report: %d shard records for %d shards", len(rep.PerShard), rep.Shards)
	}
	var days int64
	for _, s := range rep.PerShard {
		days += int64(s.Days - s.AgeDays)
	}
	return days, nil
}

// fleetCounts is the fleet-level simulated work of one episode.
type fleetCounts struct {
	advanced, replayed, events, expired int64
	scrapes                             float64
	metricsBytes                        int
}

// replayCounts derives the replay accounting from the per-shard reports
// read after each advance: every shard alive before an advance replays
// from day zero to its new day count.
func replayCounts(after [][]byte) (fleetCounts, error) {
	var fc fleetCounts
	var alive map[int]bool
	for i, data := range after {
		rep, err := parseReport(data)
		if err != nil {
			return fc, err
		}
		next := make(map[int]bool, len(rep.PerShard))
		for _, s := range rep.PerShard {
			if i == 0 || alive[s.Shard] {
				fc.replayed += int64(s.Days)
				fc.events += s.Events
			}
			if !s.Expired {
				next[s.Shard] = true
			}
		}
		alive = next
		if i == len(after)-1 {
			fc.expired = rep.Totals.Expired
			for _, s := range rep.PerShard {
				fc.advanced += int64(s.Days - s.AgeDays)
			}
		}
	}
	return fc, nil
}

// fleetLayer renders the fleet.* and fleetd.* per-layer counts.
func fleetLayer(fc fleetCounts) []metric {
	c := func(name string, v float64) metric { return metric{name, "count", v, 1} }
	return []metric{
		c("fleet.shard_days_advanced", float64(fc.advanced)),
		c("fleet.shard_days_replayed", float64(fc.replayed)),
		{"fleet.replay_ratio", "ratio", ratio(float64(fc.replayed), float64(fc.advanced)), 1},
		c("fleet.events_replayed", float64(fc.events)),
		c("fleet.expired", float64(fc.expired)),
		c("fleetd.scrapes", fc.scrapes),
		{"fleetd.metrics_bytes", "bytes", float64(fc.metricsBytes), 1},
	}
}

// traceFleet is the traced run of fleet-serve. Episodes alternate as in
// the phone workloads. After each traced episode one shard — the
// longest-lived survivor — is replayed in-process with a span around
// every engine call: the core, device, and ECC layers under the daemon,
// checked against the daemon's own record of that shard.
func (b *bench) traceFleet(f fleetSpec) error {
	t := newTracer()
	b.tracer = t
	host := newHostSpeed()
	var rt rtUsage
	var plain, traced []float64
	var scr scrapeStats
	var fc fleetCounts
	var advTime time.Duration
	var create, metricsSvc, reportSvc []float64
	var ct coreTrace
	var probe *probeResult
	var measured time.Duration
	for ep := 0; ep < 2*minEpisodes || measured < b.duration; ep++ {
		tr := t
		if ep%2 == 0 {
			tr = nil
		}
		host.sample()
		before := readRuntime()
		e, err := b.runFleetEpisode(f, tr, nil)
		if err != nil {
			return err
		}
		b.attempted += e.attempted
		b.failed += e.failed
		var total time.Duration
		for _, a := range e.advances {
			total += a
		}
		measured += total
		scr.merge(e.scr)
		if tr == nil {
			rt.add(before, readRuntime())
			plain = append(plain, seconds(total))
			continue
		}
		traced = append(traced, seconds(total))
		advTime += total
		create = append(create, millis(e.create))
		metricsSvc = append(metricsSvc, e.scr.metricsService...)
		reportSvc = append(reportSvc, e.scr.reportService...)
		if fc, err = replayCounts(e.after); err != nil {
			return err
		}
		fc.scrapes = float64(len(e.scr.latency))
		fc.metricsBytes = e.metricsBytes
		probe, err = b.probeShard(f, t, e.perShard)
		if err != nil {
			return err
		}
		ct.add(probe.sys, probe.res)
	}
	b.episodes = len(plain) + len(traced)

	page := make([]byte, probe.sys.Device.PageSize())
	if err := b.tracedLayers(t, &ct, page, fc, &rt, host, median(traced)/median(plain)-1, scr); err != nil {
		return err
	}
	b.extras = []metric{
		{"fleet.advance_us_per_event", "us", ratio(micros(advTime), float64(fc.events)*float64(len(traced))), len(traced) * f.advances},
		{"fleetd.create_ms", "ms", median(create), len(create)},
		{"fleetd.metrics_service_p50_ms", "ms", median(metricsSvc), len(metricsSvc)},
		{"fleetd.report_service_p50_ms", "ms", median(reportSvc), len(reportSvc)},
	}
	b.notef("per-layer core, device, ftl, flash, and ecc figures describe shard %d (%d days), replayed in-process", probe.shard, probe.days)
	return nil
}

// fleetTrainingFiles is the fleet-shared classifier's default corpus,
// and stormBoost the media multiplier of a storm shard's workload.
const (
	fleetTrainingFiles = 1500
	stormBoost         = 4
)

// fleetShardWorkload is the per-shard personal workload a fleet replays
// (sos.fleetWorkloadConfig at workload scale 1): phone-shaped volumes
// resized for the 512 KiB shard chip, with storm shards creating
// stormBoost times the media. probeShard checks the replay it drives
// against the daemon's record, so a drift here fails the run.
func fleetShardWorkload(days int, storm bool) workload.PersonalConfig {
	cfg := workload.DefaultPersonalConfig(days)
	cfg.NewMediaPerDay = 4
	cfg.MediaBytes = 12 * 1024
	cfg.AppDBCount = 6
	cfg.AppDBBytes = 4 * 1024
	cfg.AppDBUpdatesPerDay = 16
	cfg.ReadsPerDay = 15
	if storm {
		cfg.NewMediaPerDay *= stormBoost
	}
	return cfg
}

type probeResult struct {
	shard, days int
	sys         *sos.System
	res         replayResult
}

// probeShard replays the longest-lived unexpired shard of a per-shard
// report in-process, traced, and checks the outcome against the
// daemon's record of that shard.
func (b *bench) probeShard(f fleetSpec, t *tracer, perShard []byte) (*probeResult, error) {
	rep, err := parseReport(perShard)
	if err != nil {
		return nil, err
	}
	pick := -1
	for i, s := range rep.PerShard {
		if !s.Expired && (pick < 0 || s.Days > rep.PerShard[pick].Days) {
			pick = i
		}
	}
	if pick < 0 {
		return nil, errors.New("probe: every shard expired")
	}
	row := rep.PerShard[pick]
	cfg := f.config()
	sys, err := tracedAssembly(t, int64(row.Shard), rep.Seed, fleetTrainingFiles,
		sos.WithProfile(cfg.Profile), sos.WithBackend(cfg.Backend), sos.WithGeometry(sos.FleetGeometry()), sos.WithSeed(row.Seed))
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	wcfg := fleetShardWorkload(row.Days, row.Storm)
	wcfg.Seed = row.Seed + 0x7ead
	gen, err := workload.NewPersonal(wcfg)
	if err != nil {
		return nil, err
	}
	tr := &replayTrace{days: row.Days, events: workload.Collect(gen)}
	tr.payloads = make([][]byte, len(tr.events))
	res := tracedReplay(sys, tr, t, nil)
	b.attempted += res.total + 1
	if res.err != nil {
		b.failed += res.failed
		b.notef("probe: %v", res.err)
	}
	smart := sys.Device.Smart()
	es := sys.Engine.Stats()
	used, _ := sys.FS.Usage()
	got := [...]int64{int64(res.events), int64(res.noSpace), es.Created, es.Deleted, es.AutoDeleted, smart.Reads, smart.Writes, used}
	want := [...]int64{row.Events, row.NoSpace, row.Created, row.Deleted, row.AutoDeleted, row.Reads, row.Writes, row.UsedBytes}
	if got != want || smart.WriteAmp != row.WriteAmp {
		b.failed++
		b.notef("probe: shard %d replay %v differs from the daemon's record %v", row.Shard, got, want)
	}
	return &probeResult{shard: row.Shard, days: row.Days, sys: sys, res: res}, nil
}
