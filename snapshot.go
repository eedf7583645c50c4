package sos

import (
	"encoding/json"
	"io"

	"sos/internal/audit"
	"sos/internal/core"
	"sos/internal/device"
	"sos/internal/obs"
	"sos/internal/sim"
)

// SnapshotVersion identifies the Snapshot schema. Consumers that persist
// snapshots should record it; the version bumps whenever a field changes
// meaning or disappears (adding fields does not bump it).
const SnapshotVersion = 1

// Snapshot is the one unified telemetry view of a System: device SMART
// data (which embeds FTL stats), policy-engine counters, and — when
// observability is enabled — the obs subsystem's event counts and
// histograms. Every number in the Prometheus exposition is read from
// this struct, so scraped values and programmatic reads always agree.
type Snapshot struct {
	Version int      `json:"version"`
	Profile Profile  `json:"profile"`
	Backend string   `json:"backend"`
	At      sim.Time `json:"at"`
	Seconds float64  `json:"seconds"`

	Device device.Smart  `json:"device"`
	Engine core.Stats    `json:"engine"`
	Files  int           `json:"files"`
	Obs    *obs.Snapshot `json:"obs,omitempty"`
	// Audit carries integrity-auditor telemetry on audit-enabled runs
	// and is absent otherwise, keeping audit-off output byte-identical
	// to builds without the auditor.
	Audit *audit.Stats `json:"audit,omitempty"`
}

// Snapshot captures the System's complete telemetry state at the current
// simulated time.
func (s *System) Snapshot() Snapshot {
	snap := Snapshot{
		Version: SnapshotVersion,
		Profile: s.Config.Profile,
		Backend: s.Device.Backend().Name(),
		At:      s.Clock.Now(),
		Seconds: s.Clock.Now().Seconds(),
		Device:  s.Device.Smart(),
		Engine:  s.Engine.Stats(),
		Files:   s.Engine.Files(),
		Obs:     s.obs.Snapshot(),
	}
	if a := s.Engine.Auditor(); a != nil {
		st := a.Stats()
		snap.Audit = &st
	}
	return snap
}

// WriteJSON renders the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WritePrometheus renders the snapshot in the Prometheus text exposition
// format (0.0.4). Metric families are sorted by name, so the output is
// byte-stable for a given snapshot. All metrics carry the sos_ prefix;
// obs histograms and event counters appear under sos_obs_* when
// observability is enabled.
func (s Snapshot) WritePrometheus(w io.Writer) (int64, error) {
	e := obs.NewExposition()

	// Identity: which translation layer the numbers describe.
	e.LabeledGauge("sos_backend_info", "Mounted translation layer; value is always 1.", "backend", s.Backend, 1)

	// Device SMART.
	d := s.Device
	e.Gauge("sos_capacity_bytes", "Advertised logical capacity in bytes (shrinks under capacity variance).", float64(d.CapacityBytes))
	e.Gauge("sos_page_size_bytes", "Logical page size in bytes.", float64(d.PageSize))
	e.Counter("sos_device_reads_total", "Host page reads served by the device.", float64(d.Reads))
	e.Counter("sos_device_writes_total", "Host page writes accepted by the device.", float64(d.Writes))
	e.Counter("sos_device_busy_seconds_total", "Modelled device busy time in seconds.", d.BusyTime.Seconds())
	e.Gauge("sos_wear_frac_avg", "Mean block wear fraction (PEC over rated endurance).", d.AvgWearFrac)
	e.Gauge("sos_wear_frac_max", "Maximum block wear fraction.", d.MaxWearFrac)
	e.Gauge("sos_percent_life_used", "Mean wear as a percentage — the warranty metric.", d.PercentLifeUsed)
	e.Gauge("sos_write_amplification", "Flash programs per host write.", d.WriteAmp)
	e.Gauge("sos_blocks_total", "Physical blocks on the chip.", float64(d.TotalBlocks))
	e.Counter("sos_blocks_retired_total", "Blocks permanently out of service.", float64(d.RetiredBlocks))
	e.Counter("sos_blocks_resuscitated_total", "Worn blocks reborn at lower density.", float64(d.Resuscitations))
	e.Counter("sos_blocks_quarantined_total", "Blocks condemned by fault escalation.", float64(d.QuarantinedBlocks))
	e.Counter("sos_read_retries_total", "Read-ladder re-reads after hard faults.", float64(d.ReadRetries))
	e.Counter("sos_salvaged_reads_total", "Reads recovered or degraded-not-failed by the ladder.", float64(d.SalvagedReads))
	e.Counter("sos_hard_read_faults_total", "Reads that exhausted immediate retries.", float64(d.HardReadFaults))
	e.Counter("sos_power_cycles_total", "Power cycles survived (FTL rebuilt from OOB).", float64(d.Rebuilds))
	e.Histogram("sos_block_wear_frac", "Block population by wear fraction.", wearHistogram(d))

	// FTL.
	f := d.FTL
	e.Counter("sos_ftl_host_writes_total", "Host-initiated page writes.", float64(f.HostWrites))
	e.Counter("sos_ftl_flash_programs_total", "Physical page programs including GC.", float64(f.FlashPrograms))
	e.Counter("sos_ftl_gc_runs_total", "Garbage-collection passes.", float64(f.GCRuns))
	e.Counter("sos_ftl_gc_moves_total", "Pages relocated by GC and scrub.", float64(f.GCMoves))
	e.Counter("sos_ftl_degraded_reads_total", "Reads whose ECC could not fully correct.", float64(f.DegradedReads))
	e.Counter("sos_ftl_program_failures_total", "Program-status failures absorbed.", float64(f.ProgFailures))
	e.Counter("sos_ftl_static_wl_moves_total", "Static wear-leveling relocations.", float64(f.StaticWLMoves))
	e.Counter("sos_ftl_reloc_retries_total", "Transient read faults retried during relocation.", float64(f.RelocRetries))
	e.Counter("sos_ftl_salvaged_pages_total", "Unreadable SPARE pages crystallized as reported loss.", float64(f.SalvagedPages))
	e.Counter("sos_ftl_salvaged_bytes_total", "Logical bytes crystallized as lost by salvage.", float64(f.SalvagedBytes))
	e.Gauge("sos_ftl_free_blocks", "Blocks in the free pool.", float64(f.FreeBlocks))
	e.Gauge("sos_ftl_mapped_pages", "Live logical pages.", float64(f.MappedPages))

	// Policy engine.
	g := s.Engine
	e.Gauge("sos_engine_files", "Files currently tracked by the engine.", float64(s.Files))
	e.Counter("sos_engine_created_total", "Files ingested.", float64(g.Created))
	e.Counter("sos_engine_deleted_total", "Files deleted by the user.", float64(g.Deleted))
	e.Counter("sos_engine_reviewed_total", "Files scored by the periodic review.", float64(g.Reviewed))
	e.Counter("sos_engine_demoted_total", "Files demoted to the SPARE stream.", float64(g.Demoted))
	e.Counter("sos_engine_promoted_total", "Demoted files promoted back to SYS.", float64(g.Promoted))
	e.Counter("sos_engine_auto_deleted_total", "Files removed under capacity pressure.", float64(g.AutoDeleted))
	e.Counter("sos_engine_auto_delete_runs_total", "Capacity-pressure passes.", float64(g.AutoDeleteRuns))
	e.Counter("sos_engine_transcoded_total", "Media files shrunk in place instead of deleted.", float64(g.Transcoded))
	e.Counter("sos_engine_cloud_repairs_total", "Degraded files repaired from pristine copies.", float64(g.CloudRepairs))
	e.Counter("sos_engine_degraded_reads_total", "File reads that returned degraded data.", float64(g.DegradedReads))
	e.Counter("sos_engine_regret_reads_total", "Degraded reads of truly-critical files.", float64(g.RegretReads))
	e.Counter("sos_engine_scrub_passes_total", "Degradation-monitor passes.", float64(g.ScrubPasses))
	e.Counter("sos_engine_scrub_moves_total", "Pages relocated by scrubbing.", float64(g.ScrubMoves))
	e.Counter("sos_engine_sys_misplaced_total", "Truly-critical files demoted to SPARE.", float64(g.SysMisplaced))
	e.Counter("sos_engine_spare_retained_total", "Truly-spare files kept on SYS.", float64(g.SpareRetained))

	// Integrity auditor (audit-enabled runs only): the
	// sos_degradation_* family quantifies how much of the medium's rot
	// is visible, and of what kind.
	if a := s.Audit; a != nil {
		e.Counter("sos_degradation_audit_passes_total", "Integrity-audit passes completed.", float64(a.Passes))
		e.Counter("sos_degradation_slices_scanned_total", "Slice reads spent sampling (the scrub I/O budget).", float64(a.SlicesScanned))
		e.Counter("sos_degradation_clean_total", "Sampled slices verified intact.", float64(a.Clean))
		e.Counter("sos_degradation_degraded_total", "Sampled slices with damage the read path reports.", float64(a.Degraded))
		e.Counter("sos_degradation_silent_total", "Sampled slices with damage only the digest can see.", float64(a.Silent))
		e.Counter("sos_degradation_lost_total", "Sampled slices unreadable or surviving only as salvage.", float64(a.Lost))
		e.Gauge("sos_degradation_silent_rate", "Estimated silent-corruption rate over scanned slices.", a.SilentRate())
		e.Counter("sos_degradation_escalations_total", "SYS findings escalated into device relocation.", float64(a.Escalations))
		e.Counter("sos_degradation_escalation_io_total", "Extra page moves spent on escalation beyond the budget.", float64(a.EscalationIO))
		e.Counter("sos_degradation_repairs_total", "Files repaired from cloud backup on audit evidence.", float64(a.Repairs))
	}

	// Observability subsystem (enabled runs only).
	if o := s.Obs; o != nil {
		for _, k := range obs.Kinds() {
			name := k.String()
			e.LabeledCounter("sos_obs_events_total", "Trace events recorded, by kind.", "kind", name, float64(o.ByKind[name]))
		}
		e.Counter("sos_obs_trace_dropped_total", "Trace events overwritten by the ring buffer.", float64(o.Dropped))
		for name, h := range o.Histograms {
			e.Histogram("sos_obs_"+name, "Observability histogram "+name+".", h)
		}
	}
	return e.WriteTo(w)
}

// wearHistogram reshapes the SMART decile wear histogram into a
// Prometheus histogram: bounds at 0.1 .. 0.9 wear fraction, overflow
// holding blocks at 90%+ (including past-rating blocks), sum
// approximated from the mean.
func wearHistogram(d device.Smart) obs.HistogramSnapshot {
	bounds := make([]float64, 9)
	counts := make([]int64, 10)
	total := int64(0)
	for i := 0; i < 9; i++ {
		bounds[i] = float64(i+1) / 10
	}
	for i, n := range d.WearHistogram {
		counts[i] = int64(n)
		total += int64(n)
	}
	return obs.HistogramSnapshot{
		Count:  total,
		Sum:    d.AvgWearFrac * float64(total),
		Bounds: bounds,
		Counts: counts,
	}
}
