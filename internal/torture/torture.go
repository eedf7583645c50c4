// Package torture is the crash-consistency harness: it replays a seeded
// host workload against a fault-injected flash stack, cuts power at
// sampled op indices (including inside GC relocation, scrub migration,
// and erase), rebuilds the translation layer from the surviving medium,
// and verifies the recovery contract. The harness is backend-generic:
// Config.Backend mounts either the device-side multi-stream FTL or the
// host-side FTL over zones, and the contract is identical:
//
//   - the backend's internal invariants hold after every rebuild;
//   - every acknowledged SYS write is readable with exactly the newest
//     acked content (or, after a torn cut, a later-issued write that
//     persisted without its acknowledgement — a strictly newer value);
//   - SPARE data may degrade or be lost, but every loss is REPORTED
//     (a read error or a Degraded result) — silent corruption is a bug;
//   - the digest store is crash-consistent: every payload write carries
//     its host-computed digest into the OOB tag, and after any rebuild a
//     cleanly-read page's stored digest must hash-match the recovered
//     content. Acked digests survive; a torn write's digest either
//     persisted with its page (and matches the strictly newer content)
//     or the whole page is gone — a digest that disagrees with a clean
//     read would turn honest rot into a false audit alarm, so it is a
//     contract breach;
//   - trimmed pages are exempt: an OOB rebuild may resurrect a trim
//     issued just before the crash (documented FTL semantics).
//
// Everything is deterministic from Config.Seed: the workload script, the
// chip's error processes, and the sampled cut points. Trials fan out via
// parallel.Map with results in trial order, so a run's Report is
// identical at any parallelism.
package torture

import (
	"bytes"
	"errors"
	"fmt"
	"sort"

	"sos/internal/device"
	"sos/internal/ecc"
	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/parallel"
	"sos/internal/sim"
	"sos/internal/storage"
)

// Config parameterizes a torture run. The zero value is invalid; use
// DefaultConfig as a base.
type Config struct {
	// Seed drives workload synthesis, chip error processes, and any
	// probabilistic rules in Plan.
	Seed uint64
	// Ops is the number of host-level workload steps replayed per trial.
	Ops int
	// Cuts is how many power-cut op indices are sampled (evenly spaced
	// over the dry run's total chip-op count). Odd-numbered trials use
	// torn cuts (the dying op persists without its acknowledgement).
	Cuts int
	// Parallel is the worker count for fanning out trials; results are
	// identical at any value. <=1 means serial.
	Parallel int
	// Plan layers extra fault rules (read bursts, fail storms, bad
	// blocks) under every trial; its power-cut and seed fields are
	// overridden per trial.
	Plan fault.Plan
	// Backend selects the translation layer under torture (default ftl).
	Backend storage.Kind
	// Queues > 1 coalesces consecutive workload writes into WriteBatch
	// submissions dealt across that many queues, so power cuts land in
	// the middle of batches; otherwise every write is a batch of one.
	// The chip-op sequence is identical either way, so reports match
	// the Queues<=1 run exactly.
	Queues int
	// Workers bounds batch-internal goroutine use (encode fan-out).
	Workers int
	// ReadWorkers > 1 coalesces consecutive host reads into ReadBatch
	// submissions with this worker bound, so power cuts land inside
	// batched read runs; otherwise every read is a batch of one. The
	// fault injector reports a single plane and applies the fault
	// schedule one page op at a time in run order, so the chip-op
	// sequence — the cut-index space — stays deterministic at any
	// worker count.
	ReadWorkers int
	// Hints attaches a lifetime hint to every write, derived as a pure
	// function of the step's existing fields (no extra RNG draws, so the
	// workload script and chip-op sequence are unchanged). With hints on,
	// GC's dead-skip deferral is active during the cut window, and verify
	// additionally checks that every surviving page's rebuilt OOB hint
	// matches the generation the read returned.
	Hints bool
}

// stepHint derives the lifetime hint for a write step: a pure function
// of fields the script already carries. The mix is half HintHot so that
// on the small torture chip GC victims routinely carry a hot majority
// and the dead-skip deferral actually fires, while the warm and cold
// slots keep relocation moving more than one bin.
func stepHint(s step) storage.LifetimeHint {
	return [...]storage.LifetimeHint{
		storage.HintHot, storage.HintHot, storage.HintWarm, storage.HintCold,
	}[(s.lpa+s.seq)%4]
}

// DefaultConfig returns a torture configuration sized for CI: a small
// chip, a few hundred host ops, and a modest cut matrix.
func DefaultConfig() Config {
	return Config{Seed: 1, Ops: 260, Cuts: 24, Parallel: 1}
}

// Report aggregates a torture run.
type Report struct {
	// TotalChipOps is the dry run's chip-op count (the cut-index space).
	TotalChipOps int64
	// Cuts and TornCuts count executed power-cut trials.
	Cuts, TornCuts int
	// Recovered counts trials where backend recovery succeeded.
	Recovered int
	// RecoveryFailures counts trials where remounting the surviving
	// medium failed — must be zero.
	RecoveryFailures int
	// InvariantViolations counts post-rebuild CheckInvariants failures —
	// must be zero.
	InvariantViolations int
	// WorkloadErrors counts non-power-cut errors during replay — must be
	// zero.
	WorkloadErrors int
	// VerifiedPages is the total number of acked logical pages checked.
	VerifiedPages int64
	// SysLossBytes counts acked SYS bytes that were missing or degraded
	// after recovery — must be zero.
	SysLossBytes int64
	// SpareLossBytes counts acked SPARE bytes lost WITH a report (read
	// error or Degraded flag) — allowed, bounded, and surfaced.
	SpareLossBytes int64
	// SilentLossBytes counts bytes that came back wrong with no error
	// and no Degraded flag, on any stream — must be zero.
	SilentLossBytes int64
	// DigestsVerified counts cleanly-read payload pages whose rebuilt
	// OOB digest was checked against the recovered content.
	DigestsVerified int64
	// DigestMismatches counts digest-store inconsistencies after
	// rebuild: a clean read whose stored digest is missing or disagrees
	// with the recovered content — must be zero (it would make the
	// integrity auditor cry wolf on healthy data).
	DigestMismatches int64
	// HintsVerified counts payload pages whose rebuilt OOB lifetime hint
	// was checked against the generation the read returned (Hints runs).
	HintsVerified int64
	// HintMismatches counts rebuilt hints that disagree with the
	// surviving generation's — must be zero, or dead-skip GC decisions
	// would diverge between the pre-crash and rebuilt instances.
	HintMismatches int64
	// DeadSkipDefers totals GC victim deferrals observed before the cut
	// across trials (Hints runs exercise the deferral path; informational).
	DeadSkipDefers int64
	// Failures holds diagnostics for the first few violations.
	Failures []string
}

// Violations reports the total count of contract breaches.
func (r Report) Violations() int {
	n := r.RecoveryFailures + r.InvariantViolations + r.WorkloadErrors
	if r.SysLossBytes > 0 {
		n++
	}
	if r.SilentLossBytes > 0 {
		n++
	}
	if r.DigestMismatches > 0 {
		n++
	}
	if r.HintMismatches > 0 {
		n++
	}
	return n
}

const maxFailureNotes = 8

// Workload step kinds.
const (
	kWrite = iota // payload write
	kAcct         // accounting-only write (nil data)
	kTrim         // host discard
	kRead         // host read
	kAge          // clock advance + scrub pass
)

type step struct {
	kind    int
	lpa     int64
	stream  storage.StreamID
	dataLen int
	seq     int64 // payload generation number (write steps)
}

// Stream layout of the tortured device, mirroring the SOS split: SYS is
// strongly protected and wear-leveled, SPARE runs native density with
// detect-only ECC (approximate storage).
const (
	sysStream   = storage.StreamID(0)
	spareStream = storage.StreamID(1)
)

const (
	payloadLPAs = 40  // payload namespace [0, payloadLPAs)
	acctLPABase = 100 // accounting namespace [acctLPABase, acctLPABase+acctLPAs)
	acctLPAs    = 24
)

// pat returns the deterministic payload for generation seq of lpa.
func pat(lpa, seq int64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(lpa*131 + seq*29 + int64(i)*7 + 5)
	}
	return b
}

// buildSteps synthesizes the workload script. It is generated once per
// run and shared by every trial, so trials differ only in where power
// dies. The mix leans on overwrites so GC, relocation, and scrub all
// run inside the cut window.
func buildSteps(seed uint64, ops int) []step {
	rng := sim.NewRNG(seed*0x9e3779b97f4a7c15 + 0x7021)
	steps := make([]step, 0, ops)
	var written []int64 // payload LPAs issued at least once
	seen := map[int64]bool{}
	for i := 0; i < ops; i++ {
		r := rng.Float64()
		switch {
		case r < 0.55: // payload write
			lpa := rng.Int63n(payloadLPAs)
			stream := sysStream
			if rng.Bool(0.5) {
				stream = spareStream
			}
			steps = append(steps, step{
				kind:    kWrite,
				lpa:     lpa,
				stream:  stream,
				dataLen: 64 + rng.Intn(128),
				seq:     int64(i),
			})
			if !seen[lpa] {
				seen[lpa] = true
				written = append(written, lpa)
			}
		case r < 0.70: // accounting write
			steps = append(steps, step{
				kind:    kAcct,
				lpa:     acctLPABase + rng.Int63n(acctLPAs),
				stream:  sysStream,
				dataLen: 64 + rng.Intn(128),
				seq:     int64(i),
			})
		case r < 0.78 && len(written) > 0: // trim
			steps = append(steps, step{kind: kTrim, lpa: written[rng.Intn(len(written))]})
		case r < 0.95 && len(written) > 0: // read
			steps = append(steps, step{kind: kRead, lpa: written[rng.Intn(len(written))]})
		default: // age + scrub
			steps = append(steps, step{kind: kAge})
		}
	}
	return steps
}

// newMedium builds a fresh chip for one trial. Identical seeds yield
// identical chips, so all trials replay the same physical history up to
// their cut point.
func newMedium(seed uint64, clock *sim.Clock) (*flash.Chip, error) {
	return flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 24},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     seed,
	})
}

// tortureStreams returns the stream layout, mirroring the SOS split.
func tortureStreams() ([]storage.StreamPolicy, error) {
	pQLC, err := flash.PseudoMode(flash.PLC, 4)
	if err != nil {
		return nil, err
	}
	return []storage.StreamPolicy{
		{Name: "sys", Mode: pQLC, Scheme: ecc.MustRSScheme(223, 32), WearLeveling: true},
		{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.DetectOnly{}},
	}, nil
}

// newBackend mounts the configured translation layer over the medium.
// The zns variant groups the small chip into two-block zones so the cut
// matrix exercises zone reclamation and offline transitions.
func newBackend(kind storage.Kind, medium storage.Flash) (storage.Backend, error) {
	streams, err := tortureStreams()
	if err != nil {
		return nil, err
	}
	return device.NewBackend(device.BackendConfig{
		Kind:          kind,
		Medium:        medium,
		Streams:       streams,
		BlocksPerZone: 2,
	})
}

// rec tracks the host's view of one LPA during replay: what was
// acknowledged before the cut, and what was issued without an ack.
type rec struct {
	stream   storage.StreamID
	acct     bool
	ackedSeq int64 // -1: never acked
	pendSeq  int64 // -1: none in flight at the cut
	dataLen  int   // acked write's payload length
	pendLen  int   // in-flight write's payload length
	trimmed  bool
	// ackedHint/pendHint mirror the seq pair for Hints runs (HintNone
	// when hints are off).
	ackedHint storage.LifetimeHint
	pendHint  storage.LifetimeHint
}

// trialResult is one power-cut trial's verdict.
type trialResult struct {
	torn      bool
	recovered bool
	verified  int64
	sysLoss   int64
	spareLoss int64
	silent    int64
	digests   int64
	digestBad int64
	hints     int64
	hintBad   int64
	defers    int64
	failures  []string
	// exactly one of these is set on a contract breach
	recoveryFailure    bool
	invariantViolation bool
	workloadError      bool
}

func (t *trialResult) fail(format string, args ...any) {
	if len(t.failures) < maxFailureNotes {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// maxBatchOps caps how many consecutive writes coalesce into one
// WriteBatch during batched replay. Small enough that the workload's
// interleaved trims, reads, and ages still break batches up.
const maxBatchOps = 8

// replay drives steps against f until the power cut (or exhaustion),
// maintaining the acked-state ledger from per-op fates. It returns the
// ledger and whether a non-power-cut error aborted the run. Every write
// step is submitted through WriteBatch: with queues > 1 consecutive
// writes coalesce so cuts land mid-batch, otherwise each is a batch of
// one. With readWorkers > 1 consecutive reads coalesce into ReadBatch
// the same way.
func replay(f storage.Backend, inj *fault.Injector, clock *sim.Clock, steps []step, queues, workers, readWorkers int, hints bool) (map[int64]*rec, bool) {
	recs := map[int64]*rec{}
	at := func(s step) *rec {
		r, ok := recs[s.lpa]
		if !ok {
			r = &rec{ackedSeq: -1, pendSeq: -1}
			recs[s.lpa] = r
		}
		return r
	}

	writeRun := 1
	if queues > 1 {
		writeRun = maxBatchOps
	}
	batchedReads := readWorkers > 1
	rq := queues
	if rq < 1 {
		rq = 1
	}
	var (
		bops   []storage.BatchOp
		bsteps []step
		seq    uint64
		rops   []storage.BatchReadOp
		rfates []storage.BatchReadFate
	)
	// flushReads submits the pending read batch; fate errors are triaged
	// exactly like the kRead step's Read returns (unknown LPAs
	// tolerated, the power cut ends the trial, anything else aborts).
	flushReads := func() (cut, aborted bool) {
		if len(rops) == 0 {
			return false, false
		}
		for i := range rops {
			rops[i].Queue = sim.DealQueue(i, len(rops), rq)
		}
		if cap(rfates) < len(rops) {
			rfates = make([]storage.BatchReadFate, len(rops))
		}
		fates := rfates[:len(rops)]
		for i := range fates {
			fates[i] = storage.BatchReadFate{}
		}
		f.ReadBatch(rops, fates, rq, readWorkers)
		rops = rops[:0]
		for i := range fates {
			err := fates[i].Err
			switch {
			case err == nil, errors.Is(err, storage.ErrUnknownLPA):
			case errors.Is(err, fault.ErrPowerCut):
				return true, false
			default:
				return false, true
			}
		}
		return false, false
	}
	// flush submits the pending batch and settles the ledger from the
	// fates in Seq order.
	flush := func() (cut, aborted bool) {
		if len(bops) == 0 {
			return false, false
		}
		for i := range bops {
			bops[i].Queue = sim.DealQueue(i, len(bops), rq)
		}
		fates := make([]storage.BatchFate, len(bops))
		f.WriteBatch(bops, fates, rq, workers)
		for i := range bops {
			s := bsteps[i]
			r := at(s)
			r.pendSeq, r.pendLen = s.seq, s.dataLen
			r.pendHint = bops[i].Hint
			err := fates[i].Err
			if err == nil {
				r.stream, r.acct = s.stream, s.kind == kAcct
				r.ackedSeq, r.pendSeq = s.seq, -1
				r.dataLen = s.dataLen
				r.ackedHint = bops[i].Hint
				if s.kind == kWrite {
					r.trimmed = false
				}
				continue
			}
			if errors.Is(err, fault.ErrPowerCut) {
				// Power died on this op; later ops in the batch never
				// reached the medium, so their pendSeq stays unset.
				return true, false
			}
			return false, true
		}
		bops, bsteps = bops[:0], bsteps[:0]
		return false, false
	}

	for _, s := range steps {
		if batchedReads && s.kind == kRead {
			seq++
			rops = append(rops, storage.BatchReadOp{LPA: s.lpa, Seq: seq})
			if len(rops) >= maxBatchOps {
				if cut, aborted := flushReads(); cut || aborted {
					return recs, aborted
				}
				if inj.Down() {
					return recs, false
				}
			}
			continue
		}
		if batchedReads {
			// Non-read step: drain pending reads first, so they reach the
			// medium before this step does.
			if cut, aborted := flushReads(); cut || aborted {
				return recs, aborted
			}
			if inj.Down() {
				return recs, false
			}
		}
		if s.kind == kWrite || s.kind == kAcct {
			seq++
			op := storage.BatchOp{LPA: s.lpa, Stream: s.stream, Seq: seq}
			if hints {
				op.Hint = stepHint(s)
			}
			if s.kind == kWrite {
				op.Data = pat(s.lpa, s.seq, s.dataLen)
				// Digest rides the same program op as the payload, so a
				// power cut here is a cut mid-digest-update: page and
				// digest land (or tear) together.
				op.Digest, op.HasDigest = storage.DigestOf(op.Data), true
			} else {
				op.DataLen = s.dataLen
			}
			bops = append(bops, op)
			bsteps = append(bsteps, s)
			if len(bops) >= writeRun {
				if cut, aborted := flush(); cut || aborted {
					return recs, aborted
				}
				if inj.Down() {
					return recs, false
				}
			}
			continue
		}
		// Trim, read, or age step: drain the pending writes first, so
		// they reach the medium before this step does.
		if cut, aborted := flush(); cut || aborted {
			return recs, aborted
		}
		if inj.Down() {
			return recs, false
		}
		var err error
		switch s.kind {
		case kTrim:
			err = f.Trim(s.lpa)
			if err == nil {
				at(s).trimmed = true
			} else if errors.Is(err, storage.ErrUnknownLPA) {
				err = nil // already trimmed, or never acked before a cut replayed earlier
			}
		case kRead:
			_, err = f.Read(s.lpa)
			if err != nil && errors.Is(err, storage.ErrUnknownLPA) {
				err = nil
			}
		case kAge:
			clock.Advance(6 * sim.Hour)
			_, err = f.Scrub(4)
		}
		if err != nil {
			if errors.Is(err, fault.ErrPowerCut) {
				return recs, false
			}
			return recs, true
		}
		// GC and scrub swallow medium errors internally; the Down check
		// catches cuts that a step absorbed without surfacing.
		if inj.Down() {
			return recs, false
		}
	}
	if cut, aborted := flush(); cut || aborted {
		return recs, aborted
	}
	if batchedReads {
		if _, aborted := flushReads(); aborted {
			return recs, aborted
		}
	}
	return recs, false
}

// verify checks the recovery contract for every acked LPA.
func verify(t *trialResult, f storage.Backend, recs map[int64]*rec, hints bool) {
	lpas := make([]int64, 0, len(recs))
	for lpa := range recs {
		lpas = append(lpas, lpa)
	}
	sort.Slice(lpas, func(i, j int) bool { return lpas[i] < lpas[j] })
	for _, lpa := range lpas {
		r := recs[lpa]
		if r.ackedSeq < 0 || r.trimmed {
			// Never acknowledged, or trimmed (rebuild may legitimately
			// resurrect a trim — exempt either way).
			continue
		}
		t.verified++
		loss := func(n int64, why string) {
			if r.stream == sysStream {
				t.sysLoss += n
				t.fail("lpa %d (sys): %s", lpa, why)
			} else {
				t.spareLoss += n
			}
		}
		res, err := f.Read(lpa)
		if err != nil {
			loss(int64(r.dataLen), fmt.Sprintf("read: %v", err))
			continue
		}
		if res.Degraded {
			loss(int64(r.dataLen), "degraded after recovery")
			continue
		}
		if r.acct {
			continue // mapping present and decodable is all an accounting page promises
		}
		want := pat(lpa, r.ackedSeq, r.dataLen)
		ok := bytes.Equal(res.Data, want)
		wantHint := r.ackedHint
		if !ok && r.pendSeq >= 0 {
			// A torn cut may persist the in-flight write unacknowledged;
			// recovering the strictly newer value is legal.
			ok = bytes.Equal(res.Data, pat(lpa, r.pendSeq, r.pendLen))
			wantHint = r.pendHint
		}
		if !ok {
			t.silent += int64(r.dataLen)
			t.fail("lpa %d (%v): silent content mismatch (acked seq %d, pending %d)",
				lpa, r.stream, r.ackedSeq, r.pendSeq)
			continue
		}
		if hints {
			// Hint crash consistency: dead-skip decisions are a pure
			// function of OOB-persisted hints, so the rebuilt hint must be
			// the one written with the generation the read just returned
			// (relocation carries hints verbatim; hint and page share a
			// program op, so they land or tear together).
			t.hints++
			if got, has := f.Hint(lpa); !has || got != wantHint {
				t.hintBad++
				t.fail("lpa %d (%v): rebuilt hint %v (present=%v) != %v of surviving generation",
					lpa, r.stream, got, has, wantHint)
			}
		}
		// Digest-store crash consistency: the rebuilt OOB digest must
		// hash-match the clean content the read just returned — whether
		// that is the acked generation or a torn-but-persisted newer one
		// (page and digest share a program op, so they land together).
		// A missing or disagreeing digest here would make the integrity
		// auditor flag healthy data as silently corrupt.
		t.digests++
		if got, has := f.Digest(lpa); !has || got != storage.DigestOf(res.Data) {
			t.digestBad++
			t.fail("lpa %d (%v): rebuilt digest inconsistent with clean content (present=%v, acked seq %d, pending %d)",
				lpa, r.stream, has, r.ackedSeq, r.pendSeq)
		}
	}
}

// runTrial replays the workload with power dying at cutOp, recovers,
// and verifies.
func runTrial(cfg Config, steps []step, cutOp int64, torn bool) trialResult {
	t := trialResult{torn: torn}
	clock := &sim.Clock{}
	chip, err := newMedium(cfg.Seed, clock)
	if err != nil {
		t.workloadError = true
		t.fail("chip: %v", err)
		return t
	}
	plan := cfg.Plan
	plan.Seed = cfg.Seed ^ 0xfa017
	plan.PowerCutAtOp = cutOp
	plan.TornCut = torn
	inj := fault.New(chip, plan)

	f, err := newBackend(cfg.Backend, inj)
	if err != nil {
		t.workloadError = true
		t.fail("new backend: %v", err)
		return t
	}

	recs, aborted := replay(f, inj, clock, steps, cfg.Queues, cfg.Workers, cfg.ReadWorkers, cfg.Hints)
	if aborted {
		t.workloadError = true
		t.fail("replay aborted with non-power-cut error")
		return t
	}
	t.defers, _ = f.DeadSkipStats()

	// Power restored: remount from the surviving medium alone.
	inj.Restore()
	f2, err := f.Recover()
	if err != nil {
		t.recoveryFailure = true
		t.fail("recover after cut at op %d: %v", cutOp, err)
		return t
	}
	t.recovered = true
	if err := f2.CheckInvariants(); err != nil {
		t.invariantViolation = true
		t.fail("invariants after cut at op %d: %v", cutOp, err)
	}
	verify(&t, f2, recs, cfg.Hints)
	return t
}

// Run executes the torture matrix: a dry run to size the cut-index
// space, then one recovery trial per sampled cut point.
func Run(cfg Config) (Report, error) {
	if cfg.Ops <= 0 || cfg.Cuts <= 0 {
		return Report{}, errors.New("torture: Ops and Cuts must be positive")
	}
	steps := buildSteps(cfg.Seed, cfg.Ops)

	// Dry run: a transparent injector counts total chip ops.
	dryClock := &sim.Clock{}
	dryChip, err := newMedium(cfg.Seed, dryClock)
	if err != nil {
		return Report{}, err
	}
	dryInj := fault.New(dryChip, fault.Plan{})
	dryBE, err := newBackend(cfg.Backend, dryInj)
	if err != nil {
		return Report{}, err
	}
	if _, aborted := replay(dryBE, dryInj, dryClock, steps, cfg.Queues, cfg.Workers, cfg.ReadWorkers, cfg.Hints); aborted {
		return Report{}, errors.New("torture: dry run aborted; workload does not fit the medium")
	}
	total := dryInj.Ops()
	if total < 1 {
		return Report{}, errors.New("torture: workload produced no chip ops")
	}

	// Sample cut points evenly across [1, total].
	cuts := cfg.Cuts
	if int64(cuts) > total {
		cuts = int(total)
	}
	cutOps := make([]int64, cuts)
	for i := range cutOps {
		cutOps[i] = 1 + int64(i)*(total-1)/int64(cuts)
	}

	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	results, err := parallel.Map(cuts, workers, func(i int) (trialResult, error) {
		return runTrial(cfg, steps, cutOps[i], i%2 == 1), nil
	})
	if err != nil {
		return Report{}, err
	}

	rep := Report{TotalChipOps: total, Cuts: cuts}
	for _, t := range results {
		if t.torn {
			rep.TornCuts++
		}
		if t.recovered {
			rep.Recovered++
		}
		if t.recoveryFailure {
			rep.RecoveryFailures++
		}
		if t.invariantViolation {
			rep.InvariantViolations++
		}
		if t.workloadError {
			rep.WorkloadErrors++
		}
		rep.VerifiedPages += t.verified
		rep.SysLossBytes += t.sysLoss
		rep.SpareLossBytes += t.spareLoss
		rep.SilentLossBytes += t.silent
		rep.DigestsVerified += t.digests
		rep.DigestMismatches += t.digestBad
		rep.HintsVerified += t.hints
		rep.HintMismatches += t.hintBad
		rep.DeadSkipDefers += t.defers
		for _, note := range t.failures {
			if len(rep.Failures) < maxFailureNotes {
				rep.Failures = append(rep.Failures, note)
			}
		}
	}
	return rep, nil
}
