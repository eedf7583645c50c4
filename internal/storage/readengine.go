package storage

import (
	"fmt"
	"sync"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/obs"
)

// ReadBatch implements Backend: the serial resolve pass maps every op
// to its chip page (UnitOps.PageAddr) in canonical order and the read
// engine runs the read, decode, and settle phases. fates[i] records the
// outcome of ops[i]; results are identical for every (queues, workers)
// pair. Reads have no shared cursor, so a batch fans out across planes
// whether its units are blocks or zones of consecutive blocks.
func (r *Reclaimer) ReadBatch(ops []BatchReadOp, fates []BatchReadFate, queues, workers int) {
	r.readBatch(&r.rs, ops, fates, queues, workers)
}

// Read fetches lpa, decoding through the stream's ECC scheme: a one-op
// batch on the one-op engine. The payload stays valid until the next
// Read.
func (r *Reclaimer) Read(lpa int64) (ReadResult, error) {
	r.r1op[0] = BatchReadOp{LPA: lpa}
	r.readBatch(&r.r1, r.r1op[:], r.r1fate[:], 1, 1)
	return r.r1fate[0].Res, r.r1fate[0].Err
}

// readBatch is the resolve pass: unmapped or unlocatable LPAs get their
// final fate here; the rest go to the engine with everything later
// phases need, so no phase touches the L2P table concurrently.
func (r *Reclaimer) readBatch(e *readEngine, ops []BatchReadOp, fates []BatchReadFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	e.begin(r.chip, len(ops))
	for i := range ops {
		fates[i] = BatchReadFate{Block: -1, Page: -1}
		m, ok := r.Lookup(ops[i].LPA)
		if !ok {
			fates[i].Err = ErrUnknownLPA
			continue
		}
		ppa, err := r.ops.PageAddr(m.Unit, m.Index)
		if err != nil {
			fates[i].Err = err
			continue
		}
		fates[i].Block, fates[i].Page = ppa.Block, ppa.Page
		e.add(i, ops[i].LPA, ppa, m.Stream, r.streams[m.Stream].Scheme, m.DataLen, m.BaseFlips)
	}
	r.DegradedReads += e.run(ops, fates, queues, workers, r.name, r.obs)
}

// Locate reports where a mapped lpa physically lives in chip
// coordinates, its stream, and its logical payload length. The device
// layer's fault ladder uses it to escalate repeated hard read faults
// into retirement and to salvage what it can of an unreadable page.
func (r *Reclaimer) Locate(lpa int64) (ppa PPA, stream StreamID, dataLen int, ok bool) {
	m, found := r.Lookup(lpa)
	if !found {
		return PPA{}, 0, 0, false
	}
	ppa, err := r.ops.PageAddr(m.Unit, m.Index)
	if err != nil {
		return PPA{}, 0, 0, false
	}
	return ppa, m.Stream, m.DataLen, true
}

// readEngine runs the phases of a batched read. Reclaimer.ReadBatch is
// semantically one read per op in submission (Seq) order, restructured
// so the expensive parts run concurrently without perturbing any
// result:
//
//	resolve — the serial L2P pass (Reclaimer.readBatch), in canonical
//	          order: it sets every op's fate to its physical page (or
//	          its final error for an unmapped LPA) and adds each mapped
//	          op
//	read    — per-plane workers execute the resolved reads, one
//	          whole-plane run per lock acquisition, each plane's ops in
//	          canonical order so the plane RNG draws (error injection)
//	          and disturb counters advance exactly as one-by-one reads
//	          would
//	decode  — per-queue ECC decode, in place within chip-owned
//	          buffers (parallel across queues; output depends only on
//	          the bytes, not on scheduling)
//	settle  — one serial pass in canonical order applies telemetry and
//	          builds each op's ReadResult
//
// Reads mutate no mapping state, so there is no placement phase and no
// slow path mid-batch; the only state reads advance — per-plane RNG
// streams, read-disturb counters, degraded-read telemetry — is confined
// to the read and settle phases, both of which run in canonical
// per-plane / global order. The structure is identical at every queue
// and worker count; those only change wall-clock time.
//
// Returned payloads alias chip-pool buffers the engine retains; they
// stay valid until the engine's next batch returns them to their
// plane's pool. The Reclaimer therefore keeps one engine for ReadBatch
// and another, one op wide, for Read: a device read-ladder re-read
// inside a batch must not recycle buffers the batch's fates still
// alias.
type readEngine struct {
	chip     Flash
	descs    []readDesc
	planes   int
	planeIdx [][]int32        // per-plane descriptor index lists
	planeOps [][]flash.ReadOp // per-plane read-run scratch
	sizes    []int            // buffer-take scratch
	bufs     [][]byte         // buffer-take scratch
	ret      [][][]byte       // per-plane buffers retained for the caller
	wg       sync.WaitGroup
}

// readDesc is one resolved read: added by the resolve pass,
// executed, decoded, then settled.
type readDesc struct {
	opIdx     int
	lpa       int64
	ppa       PPA
	stream    StreamID
	scheme    ecc.Scheme
	dataLen   int
	baseFlips int
	storedN   int // stored (encoded) length, for buffer sizing
	plane     int32
	runPos    int32

	dst []byte // chip-pool destination, retained until the next batch

	// Read-phase outcome.
	raw  flash.ReadResult
	rerr error

	// Decode-phase outcome.
	data      []byte
	corrected int
	derr      error
}

// begin starts a batch of up to n ops over chip. It returns the previous
// batch's retained destination buffers to their plane pools — the point
// at which the previous batch's payloads stop being valid — and sizes
// the reusable scratch.
func (e *readEngine) begin(chip Flash, n int) {
	for p := range e.ret {
		if len(e.ret[p]) == 0 {
			continue
		}
		e.chip.ReturnProgramBufs(p, e.ret[p])
		clear(e.ret[p])
		e.ret[p] = e.ret[p][:0]
	}
	e.chip = chip
	if cap(e.descs) < n {
		e.descs = make([]readDesc, 0, n)
	}
	e.descs = e.descs[:0]
	if cap(e.sizes) < n {
		e.sizes = make([]int, n)
	}
	if cap(e.bufs) < n {
		e.bufs = make([][]byte, n)
	}
	e.planes = chip.Planes()
	for len(e.planeIdx) < e.planes {
		e.planeIdx = append(e.planeIdx, nil)
	}
	for len(e.planeOps) < e.planes {
		e.planeOps = append(e.planeOps, nil)
	}
	for len(e.ret) < e.planes {
		e.ret = append(e.ret, nil)
	}
}

// add records the resolved read of ops[opIdx]: the physical page it
// maps to and the mapping fields its result carries. Adds happen in
// canonical order, during the serial resolve pass.
func (e *readEngine) add(opIdx int, lpa int64, ppa PPA, stream StreamID, scheme ecc.Scheme, dataLen, baseFlips int) {
	e.descs = append(e.descs, readDesc{
		opIdx: opIdx, lpa: lpa, ppa: ppa, stream: stream, scheme: scheme,
		dataLen: dataLen, baseFlips: baseFlips,
		storedN: ecc.StoredLen(scheme, dataLen), runPos: -1,
	})
}

// run executes the read, decode, and settle phases for the added ops,
// writing each result into fates[opIdx]. name prefixes read-error
// wrapping ("ftl", "zns"), rec receives one read event per settled op,
// and the return value is the number of degraded reads for the
// backend's telemetry.
func (e *readEngine) run(ops []BatchReadOp, fates []BatchReadFate, queues, workers int, name string, rec *obs.Recorder) (degraded int64) {
	if queues < 1 {
		queues = 1
	}
	if workers < 1 {
		workers = 1
	}
	e.groupPlanes()
	e.takeBufs()
	e.execReads(workers)
	e.decode(ops, queues, workers)
	return e.settle(fates, name, rec)
}

// groupPlanes buckets the batch's descriptors by owning plane; each
// bucket keeps canonical (Seq) order, which is what makes per-plane RNG
// draws identical to one-by-one reads.
func (e *readEngine) groupPlanes() {
	pidx := e.planeIdx[:e.planes]
	for p := range pidx {
		pidx[p] = pidx[p][:0]
	}
	for di := range e.descs {
		d := &e.descs[di]
		p := e.chip.PlaneOf(d.ppa.Block)
		d.plane = int32(p)
		pidx[p] = append(pidx[p], int32(di))
	}
}

// takeBufs hands each descriptor a chip-owned destination buffer from
// its plane's pool — one locked call per plane. Accounting-only pages
// simply leave theirs unused; every buffer is retained and returned at
// the start of the next batch, so decoded payloads stay valid for the
// caller in between.
func (e *readEngine) takeBufs() {
	for p := 0; p < e.planes; p++ {
		idxs := e.planeIdx[p]
		if len(idxs) == 0 {
			continue
		}
		for k, di := range idxs {
			e.sizes[k] = e.descs[di].storedN
		}
		e.chip.TakeProgramBufs(p, e.sizes[:len(idxs)], e.bufs[:len(idxs)])
		for k, di := range idxs {
			e.descs[di].dst = e.bufs[k]
			e.ret[p] = append(e.ret[p], e.bufs[k])
			e.bufs[k] = nil
		}
	}
}

// execReads executes every plane's reads as a single run under one
// plane-lock acquisition, fanned out across plane workers (static
// stride assignment: plane p belongs to worker p % nw).
func (e *readEngine) execReads(workers int) {
	if len(e.descs) == 0 {
		return
	}
	nw := workers
	if nw > e.planes {
		nw = e.planes
	}
	if nw <= 1 {
		e.execPlanes(0, 1)
		return
	}
	for w := 1; w < nw; w++ {
		e.wg.Add(1)
		e.execPlanesAsync(w, nw)
	}
	e.execPlanes(0, nw)
	e.wg.Wait()
}

// execPlanesAsync runs one plane worker on its own goroutine; a method
// call rather than a closure over the batch so the spawn captures
// nothing but the engine.
func (e *readEngine) execPlanesAsync(w, nw int) {
	go func() {
		defer e.wg.Done()
		e.execPlanes(w, nw)
	}()
}

// execPlanes executes every plane assigned to worker w, each as one
// read run in canonical order.
func (e *readEngine) execPlanes(w, nw int) {
	for p := w; p < e.planes; p += nw {
		idxs := e.planeIdx[p]
		if len(idxs) == 0 {
			continue
		}
		run := e.planeOps[p][:0]
		for _, di := range idxs {
			d := &e.descs[di]
			d.runPos = int32(len(run))
			run = append(run, flash.ReadOp{Block: d.ppa.Block, Page: d.ppa.Page, Dst: d.dst})
		}
		e.planeOps[p] = run
		e.chip.ReadRunInto(run)
		for _, di := range idxs {
			d := &e.descs[di]
			d.raw = run[d.runPos].Res
			d.rerr = run[d.runPos].Err
		}
	}
}

// decode decodes every payload read through its stream's ECC scheme,
// in place within the chip-owned buffer, parallel across queues when
// workers allow. Each descriptor writes only its own buffer and its own
// fields, so queues share nothing. Decoding is a pure function of the
// bytes the read phase produced; telemetry waits for the serial settle.
func (e *readEngine) decode(ops []BatchReadOp, queues, workers int) {
	if workers > 1 && queues > 1 {
		for q := 1; q < queues; q++ {
			e.wg.Add(1)
			e.decodeAsync(ops, q, queues)
		}
		e.decodeQueue(ops, 0, queues)
		e.wg.Wait()
		return
	}
	for q := 0; q < queues; q++ {
		e.decodeQueue(ops, q, queues)
	}
}

// decodeAsync runs decodeQueue on its own goroutine.
func (e *readEngine) decodeAsync(ops []BatchReadOp, q, queues int) {
	go func() {
		defer e.wg.Done()
		e.decodeQueue(ops, q, queues)
	}()
}

// decodeQueue decodes queue q's payload descriptors.
func (e *readEngine) decodeQueue(ops []BatchReadOp, q, queues int) {
	for di := range e.descs {
		d := &e.descs[di]
		if d.rerr != nil || d.raw.Data == nil {
			continue
		}
		oq := ops[d.opIdx].Queue
		if oq < 0 || oq >= queues {
			oq = 0
		}
		if oq != q {
			continue
		}
		d.data, d.corrected, d.derr = ecc.DecodeStored(d.scheme, d.raw.Data)
	}
}

// settle is one serial pass in canonical order applying telemetry and
// building each op's result.
func (e *readEngine) settle(fates []BatchReadFate, name string, rec *obs.Recorder) (degraded int64) {
	for di := range e.descs {
		d := &e.descs[di]
		if d.rerr != nil {
			fates[d.opIdx].Err = fmt.Errorf("%s: read %v: %w", name, d.ppa, d.rerr)
			continue
		}
		rec.Record(obs.Event{Kind: obs.EvRead, LBA: d.lpa, Block: d.ppa.Block, Page: d.ppa.Page, Stream: int(d.stream), Aux: int64(d.dataLen)})
		res := ReadResult{DataLen: d.dataLen, RawFlips: d.baseFlips + d.raw.FlippedTotal, Stream: d.stream}
		if d.raw.Data == nil {
			// Accounting-only: estimate decodability from the flip count,
			// including corruption crystallized across relocations.
			res.Degraded = !d.scheme.EstimateDecode(d.baseFlips+d.raw.FlippedTotal, d.dataLen)
		} else {
			data := d.data
			if len(data) > d.dataLen {
				data = data[:d.dataLen] // strip alignment padding
			}
			res.Data = data
			res.Corrected = d.corrected
			res.Degraded = d.derr != nil
		}
		if res.Degraded {
			degraded++
		}
		fates[d.opIdx].Res = res
	}
	return degraded
}
