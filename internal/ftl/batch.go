package ftl

import (
	"errors"
	"sync"

	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/storage"
)

// Batched multi-queue writes: the only write path (Write is a batch of
// one). WriteBatch is semantically one write per op in submission (Seq)
// order, restructured so the expensive parts run concurrently — and
// each payload byte is written exactly once — without perturbing any
// result:
//
//	phase A — validate: reject malformed ops, size their codewords
//	                    (storage.ValidateBatch, shared with zns)
//	phase B — place:    one serial pass in canonical order reserves
//	                    (block, page) slots and write serials — all
//	                    allocation-policy state advances here
//	phase C — encode:   per-queue ECC encode, written directly into
//	                    chip-owned page buffers taken per plane
//	                    (parallel across queues; output depends only on
//	                    the bytes, not on scheduling)
//	phase D — program:  per-plane workers execute the reserved programs,
//	                    one whole-plane run per lock acquisition, with
//	                    buffer ownership handed to the chip (no copy)
//	phase E — settle:   one serial pass in canonical order applies
//	                    mapping updates, telemetry, and failure repair
//
// Placement before encode is what makes the no-copy handoff possible:
// the plane that will store a payload is known before its codeword is
// produced, so the codeword can be born in the buffer the chip will
// keep. Every op that needs the allocator's slow machinery — GC,
// allocation under a low pool, a static wear-leveling check, or an LPA
// already pending in the current run — stops the run and goes through
// the slow path (writeOne) with no placement pending, so reclamation
// never races an unsettled placement. writeOne also retries program
// failures; it is the only slow path.
//
// The structure is identical at every queue and worker count; those
// only change wall-clock time.

// batchDesc is one reserved program, recorded in phase B, encoded in
// phase C, executed in phase D, settled in phase E.
type batchDesc struct {
	opIdx   int
	lpa     int64
	stream  StreamID
	dataLen int
	block   int
	page    int
	plane   int32
	serial  uint64
	payload bool   // op carries bytes (vs accounting-only)
	stored  []byte // chip-owned encode target; nil = accounting-only
	storedN int
	// Host integrity digest, carried into the OOB tag and mapping.
	digest    uint64
	hasDigest bool
	// Predicted-lifetime bin, routed at place time and persisted in OOB.
	hint storage.LifetimeHint

	// Phase C/D outcome.
	err     error
	runPos  int32 // index into the plane's program run; -1 = never ran
	skipped bool  // never attempted: an earlier program failed this block
}

// batchScratch is WriteBatch's reusable state.
type batchScratch struct {
	descs    []batchDesc
	encN     []int               // per-op codeword size; -1 = rejected
	planes   int                 // plane count of the current medium
	planeIdx [][]int32           // per-plane descriptor index lists
	planeOps [][]flash.ProgramOp // per-plane program-run scratch
	sizes    []int               // buffer-take scratch
	bufs     [][]byte            // buffer-take scratch
	pending  map[int64]struct{}  // LPAs placed in the current run
	wg       sync.WaitGroup
}

// WriteBatch implements storage.Backend. fates[i] records the outcome
// of ops[i]; queues is the submission-queue count the ops were dealt
// across and workers bounds goroutine use. Results are identical for
// every (queues, workers) pair.
func (f *FTL) WriteBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	defer f.FlushCapacity()
	f.writeBatch(ops, fates, queues, workers)
}

// writeBatch runs the phases; WriteBatch and Write deliver the
// capacity callback around it.
func (f *FTL) writeBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	if queues < 1 {
		queues = 1
	}
	if workers < 1 {
		workers = 1
	}
	f.ensureBatchScratch(len(ops), f.chip.Planes())

	storage.ValidateBatch(ops, fates, f.streams, f.logicalSz, f.bs.encN[:len(ops)])

	for i := 0; i < len(ops); {
		placed := f.placeRun(ops, fates, i)
		if placed == 0 {
			// Head op needs the slow path (GC, static WL, pressure
			// allocation); no placements are pending here, so every
			// reclamation hazard is exactly as in a one-op write.
			b, p, err := f.writeOne(&ops[i], storage.MaxProgramAttempts)
			fates[i] = storage.BatchFate{Err: err, Block: b, Page: p}
			i++
			continue
		}
		f.groupPlanes()
		f.takeRunBufs()
		f.encodeRun(ops, queues, workers)
		f.execDescs(workers)
		f.settleDescs(ops, fates)
		i += placed
	}
}

// ensureBatchScratch sizes the reusable scratch for a batch of n ops
// over a medium with the given plane count.
func (f *FTL) ensureBatchScratch(n, planes int) {
	bs := &f.bs
	if cap(bs.encN) < n {
		bs.encN = make([]int, n)
	}
	if cap(bs.descs) < n {
		bs.descs = make([]batchDesc, 0, n)
	}
	if cap(bs.sizes) < n {
		bs.sizes = make([]int, n)
	}
	if cap(bs.bufs) < n {
		bs.bufs = make([][]byte, n)
	}
	bs.planes = planes
	for len(bs.planeIdx) < planes {
		bs.planeIdx = append(bs.planeIdx, nil)
	}
	for len(bs.planeOps) < planes {
		bs.planeOps = append(bs.planeOps, nil)
	}
	if bs.pending == nil {
		bs.pending = make(map[int64]struct{}, 64)
	}
}

// placeRun is phase B: starting at ops[start], reserve placements for
// the longest prefix of ops the fast path can take — stream active
// block has room, or a fresh block is allocatable without GC, without
// tripping the static wear-leveling check, and above the reserve. The
// run also stops before an op whose LPA is already placed in this run
// (its mapping update must observe the earlier op's settle first).
// Returns how many ops it consumed (descs may be fewer: ops rejected by
// validation are consumed without a descriptor).
func (f *FTL) placeRun(ops []storage.BatchOp, fates []storage.BatchFate, start int) int {
	bs := &f.bs
	// Forget the previous run's LPAs key by key: clearing the whole map
	// costs its high-water capacity, which a one-op batch would pay in
	// full.
	for di := range bs.descs {
		delete(bs.pending, bs.descs[di].lpa)
	}
	bs.descs = bs.descs[:0]
	placed := 0
	for idx := start; idx < len(ops); idx++ {
		op := &ops[idx]
		if bs.encN[idx] < 0 {
			// Rejected by validation; fate already set.
			placed++
			continue
		}
		if _, dup := bs.pending[op.LPA]; dup {
			break
		}
		id := op.Stream
		b := f.activeWritable(id, op.Hint)
		if b < 0 {
			// Allocation needed: only when it cannot trigger GC or the
			// static wear-leveling check — those run writeOne-only.
			if len(f.freePool) <= f.gcLow || len(f.freePool) <= f.reserve {
				break
			}
			if f.allocsSinceWL+1 >= staticWLCheckEvery {
				break
			}
			f.allocsSinceWL++
			var err error
			if b, err = f.allocBlock(id, op.Hint); err != nil {
				break
			}
		}
		u := &f.Units[b]
		page := u.Programmed
		u.Programmed++
		u.Live++ // optimistic; settle undoes it on failure
		u.Pending++
		f.writeSerial++
		dataLen := op.PayloadLen()
		d := batchDesc{
			opIdx: idx, lpa: op.LPA, stream: id, dataLen: dataLen,
			block: b, page: page, serial: f.writeSerial, runPos: -1,
			digest: op.Digest, hasDigest: op.HasDigest, hint: op.Hint,
		}
		if op.Data != nil {
			d.payload = true
			d.storedN = bs.encN[idx]
		} else {
			d.storedN = f.streams[id].Scheme.Overhead(dataLen)
		}
		bs.descs = append(bs.descs, d)
		bs.pending[op.LPA] = struct{}{}
		placed++
	}
	return placed
}

// groupPlanes buckets the run's descriptors by owning plane; each
// bucket keeps canonical (Seq) order.
func (f *FTL) groupPlanes() {
	bs := &f.bs
	pidx := bs.planeIdx[:bs.planes]
	for p := range pidx {
		pidx[p] = pidx[p][:0]
	}
	for di := range bs.descs {
		d := &bs.descs[di]
		p := f.chip.PlaneOf(d.block)
		d.plane = int32(p)
		pidx[p] = append(pidx[p], int32(di))
	}
}

// takeRunBufs hands each payload descriptor a chip-owned page buffer
// from its plane's pool — one locked call per plane — for phase C to
// encode into. Ownership passes to the chip at program time; buffers of
// descriptors that never reach the chip are returned after phase D.
func (f *FTL) takeRunBufs() {
	bs := &f.bs
	for p := 0; p < bs.planes; p++ {
		k := 0
		for _, di := range bs.planeIdx[p] {
			d := &bs.descs[di]
			if d.payload {
				bs.sizes[k] = d.storedN
				k++
			}
		}
		if k == 0 {
			continue
		}
		f.chip.TakeProgramBufs(p, bs.sizes[:k], bs.bufs[:k])
		k = 0
		for _, di := range bs.planeIdx[p] {
			d := &bs.descs[di]
			if d.payload {
				d.stored = bs.bufs[k]
				bs.bufs[k] = nil
				k++
			}
		}
	}
}

// encodeRun is phase C: encode every payload descriptor's codeword into
// its chip-owned buffer, parallel across queues when workers allow.
// Each descriptor writes only its own buffer, its own stored slot, and
// its own err, so queues share nothing.
func (f *FTL) encodeRun(ops []storage.BatchOp, queues, workers int) {
	bs := &f.bs
	if workers > 1 && queues > 1 {
		for q := 1; q < queues; q++ {
			bs.wg.Add(1)
			f.encodeRunAsync(ops, q, queues)
		}
		f.encodeRunQueue(ops, 0, queues)
		bs.wg.Wait()
		return
	}
	for q := 0; q < queues; q++ {
		f.encodeRunQueue(ops, q, queues)
	}
}

// encodeRunAsync runs encodeRunQueue on its own goroutine; a method
// call rather than a closure so the spawn allocates no capture
// environment.
func (f *FTL) encodeRunAsync(ops []storage.BatchOp, q, queues int) {
	go func() {
		defer f.bs.wg.Done()
		f.encodeRunQueue(ops, q, queues)
	}()
}

// encodeRunQueue encodes queue q's payload descriptors. An encode
// failure (unreachable after phase A validation, kept for safety) is
// recorded as a program-status failure so phase E's repair machinery —
// reservation rollback, block seal, slow-path retry — restores
// consistency; the retry surfaces the real error as the op's fate.
func (f *FTL) encodeRunQueue(ops []storage.BatchOp, q, queues int) {
	bs := &f.bs
	for di := range bs.descs {
		d := &bs.descs[di]
		if !d.payload {
			continue
		}
		op := &ops[d.opIdx]
		oq := op.Queue
		if oq < 0 || oq >= queues {
			oq = 0
		}
		if oq != q {
			continue
		}
		n, err := f.streams[d.stream].Scheme.EncodeInto(d.stored, op.Data)
		if err != nil {
			d.err = flash.ErrProgramFail
			continue
		}
		d.stored = d.stored[:n]
	}
}

// execDescs is phase D: execute the run's reserved programs, fanned out
// across plane workers. Each plane's descriptors run in canonical
// order, so per-plane RNG draws are identical at every worker count.
// Afterwards, buffers of descriptors that never reached the chip go
// back to their plane's pool.
func (f *FTL) execDescs(workers int) {
	bs := &f.bs
	if len(bs.descs) == 0 {
		return
	}
	pidx := bs.planeIdx[:bs.planes]
	nw := workers
	if nw > bs.planes {
		nw = bs.planes
	}
	if nw <= 1 {
		for p := range pidx {
			f.execPlane(p, pidx[p])
		}
	} else {
		for w := 1; w < nw; w++ {
			bs.wg.Add(1)
			f.execPlanesAsync(pidx, w, nw)
		}
		f.execPlanesWorker(pidx, 0, nw)
		bs.wg.Wait()
	}
	for di := range bs.descs {
		d := &bs.descs[di]
		if d.payload && d.runPos < 0 && d.stored != nil {
			bs.bufs[0] = d.stored
			f.chip.ReturnProgramBufs(int(d.plane), bs.bufs[:1])
			bs.bufs[0] = nil
			d.stored = nil
		}
	}
}

// execPlanesAsync runs one plane worker on its own goroutine.
func (f *FTL) execPlanesAsync(pidx [][]int32, w, nw int) {
	go func() {
		defer f.bs.wg.Done()
		f.execPlanesWorker(pidx, w, nw)
	}()
}

// execPlanesWorker executes every plane assigned to worker w (static
// stride assignment: plane p belongs to worker p % nw).
func (f *FTL) execPlanesWorker(pidx [][]int32, w, nw int) {
	for p := w; p < len(pidx); p += nw {
		f.execPlane(p, pidx[p])
	}
}

// execPlane executes one plane's descriptors in canonical order as a
// single program run under one plane-lock acquisition. After a
// program-status failure the block takes no further programs (its page
// cursor stalled), so the chip reports that block's later descriptors
// as ErrOutOfOrder — translated back here to skipped ErrProgramFail,
// exactly the descriptors one-op programs would have skipped, with
// identical RNG draws (ErrOutOfOrder returns before any failure draw).
// Descriptors that already failed encode poison their block the same
// way without reaching the chip.
func (f *FTL) execPlane(p int, idxs []int32) {
	if len(idxs) == 0 {
		return
	}
	bs := &f.bs
	var failedBlocks []int
	failed := func(b int) bool {
		for _, fb := range failedBlocks {
			if fb == b {
				return true
			}
		}
		return false
	}
	run := bs.planeOps[p][:0]
	for _, di := range idxs {
		d := &bs.descs[di]
		if d.err != nil {
			// Encode failure: the block's reserved pages after this one
			// must not program (the cursor would skip a page).
			failedBlocks = append(failedBlocks, d.block)
			continue
		}
		if len(failedBlocks) > 0 && failed(d.block) {
			d.err = flash.ErrProgramFail
			d.skipped = true
			continue
		}
		d.runPos = int32(len(run))
		run = append(run, flash.ProgramOp{
			Block: d.block, Page: d.page, Data: d.stored, DataLen: d.storedN, Own: d.payload,
			Tag: flash.PageTag{LPA: d.lpa, Stream: uint8(d.stream), DataLen: int32(d.dataLen), Serial: d.serial, Digest: d.digest, HasDigest: d.hasDigest, Hint: uint8(d.hint)},
		})
	}
	bs.planeOps[p] = run
	f.chip.ProgramRunTagged(run)
	for _, di := range idxs {
		d := &bs.descs[di]
		if d.runPos < 0 {
			continue
		}
		err := run[d.runPos].Err
		if err != nil && errors.Is(err, flash.ErrOutOfOrder) && failed(d.block) {
			err = flash.ErrProgramFail
			d.skipped = true
		}
		d.err = err
		if err != nil {
			if d.payload {
				d.stored = nil // chip reclaimed the owned buffer
			}
			if !d.skipped && errors.Is(err, flash.ErrProgramFail) {
				failedBlocks = append(failedBlocks, d.block)
			}
		}
	}
}

// settleDescs is phase E: one serial pass in canonical order applies
// every descriptor's outcome — mapping updates and telemetry for
// successes, reservation rollback plus a slow-path retry for program
// failures. Pending counts drop one descriptor at a time, so a retry's
// GC can never touch a block that still has unsettled placements. A
// retry gets what is left of the op's storage.MaxProgramAttempts
// budget.
func (f *FTL) settleDescs(ops []storage.BatchOp, fates []storage.BatchFate) {
	bs := &f.bs
	for di := range bs.descs {
		d := &bs.descs[di]
		u := &f.Units[d.block]
		u.Pending--
		if d.err == nil {
			f.HostWrites++
			f.FlashPrograms++
			if d.hint != storage.HintNone {
				f.Hinted++
			}
			f.obs.Record(obs.Event{Kind: obs.EvProgram, LBA: d.lpa, Block: d.block, Page: d.page, Stream: int(d.stream), Aux: int64(d.dataLen)})
			if old, ok := f.Lookup(d.lpa); ok {
				f.invalidate(old)
			}
			f.SetMapping(d.lpa, storage.Mapping{Unit: d.block, Index: d.page, Stream: d.stream, DataLen: d.dataLen, Digest: d.digest, HasDigest: d.hasDigest, Hint: d.hint})
			fates[d.opIdx] = storage.BatchFate{Block: d.block, Page: d.page}
			continue
		}
		// Roll back the optimistic reservation.
		u.Live--
		if !errors.Is(d.err, flash.ErrProgramFail) {
			fates[d.opIdx] = storage.BatchFate{Err: d.err, Block: -1, Page: -1}
			continue
		}
		attempts := storage.MaxProgramAttempts
		if !d.skipped {
			// First failure on this block: seal it (freezing its page
			// cursor at the chip's) and count the wear event, exactly as
			// program would. The failed program was an attempt.
			f.sealFailedBlock(d.block)
			attempts--
		}
		b, p, err := f.writeOne(&ops[d.opIdx], attempts)
		fates[d.opIdx] = storage.BatchFate{Err: err, Block: b, Page: p}
	}
}
