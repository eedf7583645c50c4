// Package core implements the SOS policy engine — the paper's primary
// contribution (§4). It wires the machine classifier to the device's
// class-hint interface: new files land on the conservatively-managed SYS
// partition, a periodic review demotes low-priority files to the
// approximate SPARE partition (Figure 2), a degradation monitor scrubs
// and repairs, capacity pressure switches the engine into auto-delete
// mode until 3% of capacity is free (§4.5), and an optional cloud-backed
// copy amends overly-degraded files (§4.3).
package core

import (
	"errors"
	"fmt"
	"sort"

	"sos/internal/audit"
	"sos/internal/classify"
	"sos/internal/device"
	"sos/internal/fs"
	"sos/internal/media"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/storage"
)

// Engine errors.
var (
	ErrNotTracked = errors.New("core: file not tracked by the engine")
	ErrNoBackup   = errors.New("core: no cloud-backed copy available")
)

// Config configures the engine.
type Config struct {
	// FS is the mounted filesystem (required).
	FS *fs.FS
	// Classifier decides SYS vs SPARE (required; train it first).
	Classifier classify.Classifier
	// Threshold is the minimum spare-confidence for demotion
	// (default 0.7 — "erring on the side of caution").
	Threshold float64
	// ReviewInterval is how often the background review runs
	// (default 1 day, per §4.4).
	ReviewInterval sim.Time
	// ScrubInterval is how often the degradation monitor runs
	// (default 7 days).
	ScrubInterval sim.Time
	// ScrubBudget bounds page moves per scrub pass (0 = unlimited).
	ScrubBudget int
	// FreeTarget is the capacity fraction auto-delete frees before
	// returning to degradation-only mode (default 0.03, §4.5).
	FreeTarget float64
	// CloudBackup enables repair of degraded files from pristine
	// copies (the opportunistic cloud path of §4.3).
	CloudBackup bool
	// TranscodeBeforeDelete makes auto-delete first try shrinking a
	// media payload (downscale + re-encode at lower quality) before
	// removing the file — the §4.5 idea of *transforming* the
	// degradation scheme under pressure rather than only deleting.
	TranscodeBeforeDelete bool
	// MinReviewAge holds files out of review until they have settled
	// (default 12h): freshly-created files stay on SYS briefly.
	MinReviewAge sim.Time
	// ReReviewAge re-evaluates files this long after their last review
	// (default 90 days) — the paper's periodic re-evaluation of user
	// preferences and access patterns (§4.4, [68, 79]). Demoted files
	// whose score has dropped well below the threshold are promoted
	// back to SYS. Negative disables re-review.
	ReReviewAge sim.Time
	// PromoteHysteresis is how far below Threshold a demoted file's
	// score must fall before promotion back to SYS (default 0.15),
	// preventing ping-ponging.
	PromoteHysteresis float64
	// Obs, when non-nil, receives policy-level trace events (reviews,
	// demotions, promotions, auto-deletes, transcodes). Recording only
	// reads engine state and never perturbs decisions.
	Obs *obs.Recorder
	// Audit enables the end-to-end integrity auditor: a budgeted
	// background pass that samples file slices, verifies their
	// write-time digests, and feeds degradation evidence back into
	// review, transcoding, auto-delete, and cloud repair. Off by
	// default; when off the engine's behavior is bit-for-bit identical
	// to a build without the auditor.
	Audit bool
	// AuditInterval is how often the audit pass runs (default 1 day).
	AuditInterval sim.Time
	// AuditBudget is the exact number of slice reads per audit pass
	// (default audit.DefaultBudget).
	AuditBudget int
	// AuditSeed seeds the auditor's sampling RNG.
	AuditSeed uint64
	// Placement selects how lifetime hints are derived for new writes
	// (default PlacementOff — byte-identical to a build without hints).
	Placement storage.Placement
	// Lifetime is the trained days-to-death regressor; required when
	// Placement is PlacementLongevity, ignored otherwise.
	Lifetime classify.LifetimePredictor
	// LifetimeBins are the calibrated deathtime thresholds quantizing
	// Lifetime's predictions; required with PlacementLongevity.
	LifetimeBins classify.Bins
}

func (c *Config) applyDefaults() {
	if c.Threshold == 0 {
		c.Threshold = 0.7
	}
	if c.ReviewInterval == 0 {
		c.ReviewInterval = sim.Day
	}
	if c.ScrubInterval == 0 {
		c.ScrubInterval = 7 * sim.Day
	}
	if c.FreeTarget == 0 {
		c.FreeTarget = 0.03
	}
	if c.MinReviewAge == 0 {
		c.MinReviewAge = 12 * sim.Hour
	}
	if c.ReReviewAge == 0 {
		c.ReReviewAge = 90 * sim.Day
	}
	if c.PromoteHysteresis == 0 {
		c.PromoteHysteresis = 0.15
	}
	if c.AuditInterval == 0 {
		c.AuditInterval = sim.Day
	}
}

// auditTranscodeScore is the audit degradation score at or above which a
// demoted media file is transcoded proactively during review — shrink
// provably-rotten data before pressure forces the choice, while a
// backup (or the surviving majority of the payload) still anchors it.
const auditTranscodeScore = 0.5

// fileState is the engine's per-file record.
type fileState struct {
	meta       classify.FileMeta
	trueLabel  classify.Label
	reviewed   bool
	demoted    bool
	score      float64 // last classifier score
	backup     []byte  // pristine copy (cloud), real files only
	createdAt  sim.Time
	lastAccess sim.Time
	lastReview sim.Time
	transcoded bool // already shrunk once by pressure handling
}

// Stats counts engine activity.
type Stats struct {
	Created        int64
	Deleted        int64
	Reviewed       int64
	Demoted        int64
	Promoted       int64 // demoted files promoted back to SYS on re-review
	SysMisplaced   int64 // truly-critical files demoted to SPARE
	SpareRetained  int64 // truly-spare files kept on SYS (capacity cost)
	AutoDeleted    int64
	AutoDeleteRuns int64
	Transcoded     int64 // media shrunk in place instead of deleted
	CloudRepairs   int64
	DegradedReads  int64 // reads that returned degraded data
	RegretReads    int64 // degraded reads of truly-critical files
	ScrubPasses    int64
	ScrubMoves     int64
}

// Engine is the SOS policy engine.
type Engine struct {
	cfg Config
	fs  *fs.FS
	dev *device.Device
	obs *obs.Recorder // nil disables tracing

	files map[fs.FileID]*fileState

	auditor *audit.Auditor // nil unless cfg.Audit

	nextReview sim.Time
	nextScrub  sim.Time
	nextAudit  sim.Time

	autoDeleteMode    bool
	autoDeleteBackoff int // skip counter after a fruitless run
	stats             Stats
}

// New builds an engine and installs the capacity-pressure handler.
func New(cfg Config) (*Engine, error) {
	if cfg.FS == nil {
		return nil, errors.New("core: nil filesystem")
	}
	if cfg.Classifier == nil {
		return nil, errors.New("core: nil classifier")
	}
	if cfg.Placement == storage.PlacementLongevity && cfg.Lifetime == nil {
		return nil, errors.New("core: longevity placement requires a lifetime predictor")
	}
	cfg.applyDefaults()
	e := &Engine{
		cfg:   cfg,
		fs:    cfg.FS,
		dev:   cfg.FS.Device(),
		obs:   cfg.Obs,
		files: make(map[fs.FileID]*fileState),
	}
	e.nextReview = e.now() + cfg.ReviewInterval
	e.nextScrub = e.now() + cfg.ScrubInterval
	if cfg.Audit {
		e.auditor = audit.New(audit.Config{
			FS:     cfg.FS,
			Dev:    cfg.FS.Device(),
			Seed:   cfg.AuditSeed,
			Budget: cfg.AuditBudget,
		})
		e.nextAudit = e.now() + cfg.AuditInterval
	}
	e.fs.PressureFrac = 1 - cfg.FreeTarget
	e.fs.OnPressure = func(used, capacity int64) { e.autoDelete() }
	return e, nil
}

func (e *Engine) now() sim.Time { return e.dev.Clock().Now() }

// hintFor derives the placement hint for a file's next write. With
// PlacementOff it returns HintNone without consulting any model, so the
// hints-off datapath is untouched. Binary placement reuses the SYS/SPARE
// score (likely-demoted files die sooner → hot); longevity placement
// quantizes the regressor's predicted days-to-death through the
// calibrated bins, mapping BinHot..BinImmortal onto HintHot..HintImmortal.
func (e *Engine) hintFor(meta classify.FileMeta) storage.LifetimeHint {
	switch e.cfg.Placement {
	case storage.PlacementBinary:
		if e.cfg.Classifier.Score(meta) >= e.cfg.Threshold {
			return storage.HintHot
		}
		return storage.HintCold
	case storage.PlacementLongevity:
		bin := e.cfg.LifetimeBins.Bin(e.cfg.Lifetime.PredictDays(meta))
		return storage.LifetimeHint(bin) + 1
	default:
		return storage.HintNone
	}
}

// CreateFile ingests a new file. Per §4.4, new data is first written to
// the high-endurance SYS partition; the periodic review demotes it later
// if the classifier deems it low-priority. trueLabel is ground truth for
// regret accounting only.
func (e *Engine) CreateFile(meta classify.FileMeta, payload []byte, size int64, trueLabel classify.Label) (fs.FileID, error) {
	id, err := e.fs.CreateHinted(meta.Path, payload, size, device.ClassSys, e.hintFor(meta))
	if err != nil {
		return 0, err
	}
	st := &fileState{meta: meta, trueLabel: trueLabel, createdAt: e.now(), lastAccess: e.now()}
	if payload != nil && e.cfg.CloudBackup {
		st.backup = append([]byte(nil), payload...)
	}
	e.files[id] = st
	e.stats.Created++
	return id, nil
}

// UpdateFile rewrites a file's content. Updated files are re-reviewed
// (their access pattern changed).
func (e *Engine) UpdateFile(id fs.FileID, payload []byte, size int64) error {
	st, ok := e.files[id]
	if !ok {
		return ErrNotTracked
	}
	if err := e.fs.UpdateHinted(id, payload, size, e.hintFor(st.meta)); err != nil {
		return err
	}
	st.meta.Modifications++
	st.meta.DaysSinceAccess = 0
	st.lastAccess = e.now()
	if payload != nil && e.cfg.CloudBackup {
		st.backup = append(st.backup[:0], payload...)
	}
	return nil
}

// ReadResult augments the filesystem read with engine-level accounting.
type ReadResult struct {
	fs.ReadResult
	// Regret reports a degraded read of a truly-critical file — the
	// outcome SOS's cautious classification tries to avoid.
	Regret bool
}

// ReadFile reads a file, tracking degradation and access recency.
func (e *Engine) ReadFile(id fs.FileID) (ReadResult, error) {
	return e.readFile(id, false)
}

// ReadFileBatch is ReadFile through the device's batched multi-queue
// read path: all of the file's pages are submitted as one batch
// (fs.ReadBatch). Results are byte-identical to ReadFile; only the
// latency model differs (batch makespan instead of per-page sum). The
// workload runner uses it for read events. As with fs.ReadBatch, a
// multi-page file's Data aliases a filesystem-owned buffer that the
// next ReadFileBatch overwrites; copy it to keep it.
func (e *Engine) ReadFileBatch(id fs.FileID) (ReadResult, error) {
	return e.readFile(id, true)
}

func (e *Engine) readFile(id fs.FileID, batched bool) (ReadResult, error) {
	st, ok := e.files[id]
	if !ok {
		return ReadResult{}, ErrNotTracked
	}
	var res fs.ReadResult
	var err error
	if batched {
		res, err = e.fs.ReadBatch(id)
	} else {
		res, err = e.fs.Read(id)
	}
	if err != nil {
		return ReadResult{}, err
	}
	st.meta.AccessCount++
	st.meta.DaysSinceAccess = 0
	st.lastAccess = e.now()
	out := ReadResult{ReadResult: res}
	if res.DegradedPages > 0 {
		e.stats.DegradedReads++
		if st.trueLabel == classify.LabelSys {
			e.stats.RegretReads++
			out.Regret = true
		}
	}
	return out, nil
}

// DeleteFile removes a file (user-initiated).
func (e *Engine) DeleteFile(id fs.FileID) error {
	if _, ok := e.files[id]; !ok {
		return ErrNotTracked
	}
	if err := e.fs.Delete(id); err != nil {
		return err
	}
	delete(e.files, id)
	if e.auditor != nil {
		e.auditor.Forget(id)
	}
	e.stats.Deleted++
	return nil
}

// Tick advances engine background work to the current clock time:
// periodic review and scrub run when due. Call it between workload
// events (the runner does).
func (e *Engine) Tick() error {
	now := e.now()
	for now >= e.nextReview {
		if _, err := e.Review(); err != nil {
			return err
		}
		e.nextReview += e.cfg.ReviewInterval
	}
	for now >= e.nextScrub {
		if err := e.Scrub(); err != nil {
			return err
		}
		e.nextScrub += e.cfg.ScrubInterval
	}
	for e.auditor != nil && now >= e.nextAudit {
		if err := e.Audit(); err != nil {
			return err
		}
		e.nextAudit += e.cfg.AuditInterval
	}
	return nil
}

// Audit runs one budgeted integrity-audit pass and acts on its
// findings: files with silently-corrupted or lost slices are repaired
// from their cloud backup when one exists (the read path would never
// have flagged the silent ones — that detection is the auditor's whole
// value), and every file's accumulated degradation score stays
// available to review and auto-delete for prioritization.
func (e *Engine) Audit() error {
	if e.auditor == nil {
		return nil
	}
	findings := e.auditor.Pass()
	repaired := make(map[fs.FileID]bool)
	for _, f := range findings {
		if f.Verdict != audit.Silent && f.Verdict != audit.Lost {
			continue
		}
		if repaired[f.File] {
			continue
		}
		st := e.files[f.File]
		if st == nil || st.backup == nil {
			continue
		}
		if err := e.RepairFromCloud(f.File); err != nil {
			return err
		}
		repaired[f.File] = true
		e.auditor.NoteRepair()
		// The rewrite installed fresh payloads and digests; the old
		// evidence no longer describes what is on the medium.
		e.auditor.Forget(f.File)
	}
	return nil
}

// ReviewReport summarizes one review pass.
type ReviewReport struct {
	Scanned  int
	Demoted  int
	Promoted int
	// Transcoded counts provably-degraded demoted media shrunk
	// proactively because of audit evidence (audit-enabled runs only).
	Transcoded int
}

// Review is the periodic classification pass (§4.4): it scores settled,
// unreviewed files and demotes confident-spare ones to the SPARE
// stream. Files reviewed long ago are re-evaluated — access patterns
// and preferences drift [68, 79] — and demoted files whose score has
// fallen well below the threshold are promoted back to SYS.
func (e *Engine) Review() (ReviewReport, error) {
	var rep ReviewReport
	now := e.now()
	ids := e.sortedIDs()
	for _, id := range ids {
		st := e.files[id]
		if st == nil {
			// Deleted mid-pass by pressure handling (demotion can
			// trigger auto-delete of other files).
			continue
		}
		if e.auditor != nil && e.cfg.TranscodeBeforeDelete && st.demoted &&
			!st.transcoded && e.auditor.Score(id) >= auditTranscodeScore {
			// Audit-driven response: the auditor has proven this demoted
			// file substantially rotten, so transcode it now — shrinking
			// it to a durable smaller encoding first, instead of letting
			// it keep decaying until pressure deletes it outright.
			if e.tryTranscode(id) {
				rep.Transcoded++
			}
		}
		fresh := !st.reviewed
		if fresh && now-st.createdAt < e.cfg.MinReviewAge {
			continue
		}
		if !fresh {
			if e.cfg.ReReviewAge < 0 || now-st.lastReview < e.cfg.ReReviewAge {
				continue
			}
		}
		// Age the metadata the classifier sees.
		st.meta.AgeDays = (now - st.createdAt).Days()
		st.meta.DaysSinceAccess = (now - st.lastAccess).Days()
		rep.Scanned++
		st.score = e.cfg.Classifier.Score(st.meta)
		st.reviewed = true
		st.lastReview = now
		e.stats.Reviewed++

		switch {
		case !st.demoted && st.score >= e.cfg.Threshold:
			err := e.fs.Reclassify(id, device.ClassSpare)
			if errors.Is(err, fs.ErrNoSpace) {
				// Device too full to relocate right now; a later
				// review retries after pressure relief.
				st.reviewed = false
				continue
			}
			if err != nil {
				return rep, fmt.Errorf("core: demote %d: %w", id, err)
			}
			st.demoted = true
			rep.Demoted++
			e.stats.Demoted++
			e.obs.Record(obs.Event{Kind: obs.EvDemote, Stream: int(device.ClassSpare), Aux: int64(id)})
			if st.trueLabel == classify.LabelSys {
				e.stats.SysMisplaced++
			}
		case st.demoted && st.score < e.cfg.Threshold-e.cfg.PromoteHysteresis:
			err := e.fs.Reclassify(id, device.ClassSys)
			if errors.Is(err, fs.ErrNoSpace) {
				continue // promotion can wait for space
			}
			if err != nil {
				return rep, fmt.Errorf("core: promote %d: %w", id, err)
			}
			st.demoted = false
			rep.Promoted++
			e.stats.Promoted++
			e.obs.Record(obs.Event{Kind: obs.EvPromote, Stream: int(device.ClassSys), Aux: int64(id)})
		case fresh && st.trueLabel == classify.LabelSpare:
			e.stats.SpareRetained++
		}
	}
	e.obs.Record(obs.Event{Kind: obs.EvReview, Aux: int64(rep.Scanned)})
	e.obs.ObserveReview(rep.Scanned)
	return rep, nil
}

// Scrub runs the device degradation monitor and, when cloud backup is
// enabled, repairs real-payload files whose content degraded.
func (e *Engine) Scrub() error {
	rep, err := e.dev.Scrub(e.cfg.ScrubBudget)
	if err != nil {
		return err
	}
	e.stats.ScrubPasses++
	e.stats.ScrubMoves += int64(rep.PagesRelocated)
	if !e.cfg.CloudBackup {
		return nil
	}
	for _, id := range e.sortedIDs() {
		st := e.files[id]
		if st == nil || st.backup == nil {
			continue
		}
		res, err := e.fs.Read(id)
		if err != nil {
			return err
		}
		if res.DegradedPages > 0 {
			if err := e.RepairFromCloud(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// RepairFromCloud rewrites a file from its pristine backup copy,
// restoring full quality (§4.3's opportunistic repair).
func (e *Engine) RepairFromCloud(id fs.FileID) error {
	st, ok := e.files[id]
	if !ok {
		return ErrNotTracked
	}
	if st.backup == nil {
		return ErrNoBackup
	}
	if err := e.fs.Update(id, st.backup, 0); err != nil {
		return err
	}
	e.stats.CloudRepairs++
	return nil
}

// autoDelete is the §4.5 emergency mode: delete the most expendable
// SPARE files (highest classifier score, i.e. best auto-delete
// prediction) until enough capacity is free. "Enough" is the configured
// FreeTarget, but never less than FreeTarget beyond the level at entry:
// when invoked because the *physical* device is full (logical free space
// can look healthy then), progress still gets made.
func (e *Engine) autoDelete() {
	if e.autoDeleteMode {
		return // re-entrancy guard: deletes fire usage callbacks
	}
	if e.autoDeleteBackoff > 0 {
		// The previous run found nothing deletable; the population
		// will not have changed within a few operations, so don't
		// re-rank the whole file set on every write.
		e.autoDeleteBackoff--
		return
	}
	e.autoDeleteMode = true
	defer func() { e.autoDeleteMode = false }()
	e.stats.AutoDeleteRuns++
	target := e.cfg.FreeTarget
	if entry := e.fs.FreeFrac(); entry+e.cfg.FreeTarget > target {
		target = entry + e.cfg.FreeTarget
	}

	// Candidate tiers, per §4.5's escalation: (0) files already judged
	// expendable and demoted to SPARE; (1) files the classifier already
	// scored expendable but that have not moved yet; (2) under
	// continued pressure, an emergency classification of files the
	// periodic review has not reached. Files scoring below the
	// demotion threshold are never auto-deleted.
	type cand struct {
		id    fs.FileID
		tier  int
		score float64
		rot   float64 // audit degradation score (0 without an auditor)
	}
	var cands []cand
	busy := e.fs.Busy()
	for _, id := range e.sortedIDs() {
		if id == busy {
			// Never delete the file inside the operation that raised
			// the pressure.
			continue
		}
		st := e.files[id]
		score := st.score
		tier := 2
		switch {
		case st.demoted:
			tier = 0
		case st.reviewed:
			tier = 1
		default:
			score = e.cfg.Classifier.Score(st.meta)
			st.score = score
		}
		if score < e.cfg.Threshold {
			continue
		}
		rot := 0.0
		if e.auditor != nil {
			rot = e.auditor.Score(id)
		}
		cands = append(cands, cand{id: id, tier: tier, score: score, rot: rot})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].tier != cands[j].tier {
			return cands[i].tier < cands[j].tier
		}
		// Audit-driven response: within a tier, spend the deletions on
		// data the auditor has already proven rotten — the user has the
		// least left to lose there.
		if cands[i].rot != cands[j].rot {
			return cands[i].rot > cands[j].rot
		}
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].id < cands[j].id
	})
	freed := 0
	for _, c := range cands {
		if e.fs.FreeFrac() >= target {
			break
		}
		if e.cfg.TranscodeBeforeDelete && e.tryTranscode(c.id) {
			freed++
			continue
		}
		if err := e.fs.Delete(c.id); err != nil {
			continue
		}
		delete(e.files, c.id)
		if e.auditor != nil {
			e.auditor.Forget(c.id)
		}
		e.stats.AutoDeleted++
		e.obs.Record(obs.Event{Kind: obs.EvAutoDelete, Aux: int64(c.id)})
		freed++
	}
	if freed == 0 {
		e.autoDeleteBackoff = 50
	}
}

// tryTranscode attempts to shrink a media file in place (downscale +
// re-encode) instead of deleting it. Returns true when the file was
// shrunk; files that are not decodable media, already transcoded, or
// that fail to shrink report false and fall through to deletion.
func (e *Engine) tryTranscode(id fs.FileID) bool {
	st := e.files[id]
	if st == nil || st.transcoded {
		return false
	}
	res, err := e.fs.Read(id)
	if err != nil || res.Data == nil {
		return false
	}
	smaller, err := media.Transcode(res.Data, 2, 55)
	if err != nil {
		return false
	}
	if err := e.fs.Update(id, smaller, 0); err != nil {
		return false
	}
	st.transcoded = true
	if st.backup != nil {
		// The backup mirrors what the device should restore: after a
		// deliberate quality reduction, that is the transcoded copy.
		st.backup = append(st.backup[:0], smaller...)
	}
	e.stats.Transcoded++
	e.obs.Record(obs.Event{Kind: obs.EvTranscode, Aux: int64(id)})
	return true
}

// sortedIDs returns live file ids in deterministic order.
func (e *Engine) sortedIDs() []fs.FileID {
	ids := make([]fs.FileID, 0, len(e.files))
	for id := range e.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Stats returns a snapshot of engine counters.
func (e *Engine) Stats() Stats { return e.stats }

// Auditor exposes the integrity auditor (nil when auditing is off).
func (e *Engine) Auditor() *audit.Auditor { return e.auditor }

// FS exposes the filesystem.
func (e *Engine) FS() *fs.FS { return e.fs }

// Device exposes the device.
func (e *Engine) Device() *device.Device { return e.dev }

// Files returns the number of tracked files.
func (e *Engine) Files() int { return len(e.files) }

// TrackedLabel returns the ground-truth label of a tracked file.
func (e *Engine) TrackedLabel(id fs.FileID) (classify.Label, bool) {
	st, ok := e.files[id]
	if !ok {
		return 0, false
	}
	return st.trueLabel, true
}
