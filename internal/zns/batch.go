package zns

import (
	"sync"

	"sos/internal/flash"
	"sos/internal/storage"
)

// Batched multi-queue writes over zones: the only write path (Write is
// a batch of one). Zone appends are inherently serial — every append
// advances a shared write pointer — so the batch path parallelizes only
// the ECC encode (per-queue arenas, one worker per queue) and then
// replays the appends in one canonical pass that is
// operation-for-operation identical to one-op batches in Seq order.
// Unlike the device-side FTL there is no plane fan-out to guard: encode
// is a pure function of the bytes, and the chip sees the same op
// sequence at every queue and worker count.

// batchScratch is WriteBatch's reusable state.
type batchScratch struct {
	// encN is each op's codeword size from storage.ValidateBatch (-1 for
	// a reject, 0 for an accounting-only op), off its span's offset in
	// its queue's arena.
	encN   []int
	off    []int
	stored [][]byte // per-op encoded payload (aliases arenas)
	arenas [][]byte // per-queue encode arenas
	qsize  []int
	wg     sync.WaitGroup
}

// WriteBatch implements storage.Backend. fates[i] records the outcome
// of ops[i]; queues is the submission-queue count the ops were dealt
// across and workers bounds goroutine use. Results are identical for
// every (queues, workers) pair.
func (b *Backend) WriteBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	defer b.FlushCapacity()
	b.writeBatch(ops, fates, queues, workers)
}

// writeBatch runs the encode and append passes; WriteBatch and Write
// deliver the capacity callback around it.
func (b *Backend) writeBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	if len(ops) == 0 {
		return
	}
	if queues < 1 {
		queues = 1
	}
	if workers < 1 {
		workers = 1
	}
	b.ensureBatchScratch(len(ops), queues)

	b.encodeBatch(ops, fates, queues, workers)

	for i := range ops {
		if b.bs.encN[i] < 0 {
			continue // rejected by validation/encode; fate already set
		}
		op := &ops[i]
		dataLen := op.PayloadLen()
		stored := b.bs.stored[i]
		storedLen := len(stored)
		if op.Data == nil {
			storedLen = b.streams[op.Stream].Scheme.Overhead(dataLen)
		}
		// Serial left zero: appendCore stamps it once the destination zone
		// is secured (GC relocations must not outrank this write).
		tag := flash.PageTag{LPA: op.LPA, Stream: uint8(op.Stream), DataLen: int32(dataLen), Digest: op.Digest, HasDigest: op.HasDigest, Hint: uint8(op.Hint)}
		z, idx, blk, page, err := b.appendCore(stored, storedLen, tag, true)
		if err != nil {
			fates[i] = storage.BatchFate{Err: err, Block: -1, Page: -1}
			continue
		}
		b.HostWrites++
		if op.Hint != storage.HintNone {
			b.Hinted++
		}
		b.install(op.LPA, storage.Mapping{Unit: z, Index: idx, Stream: op.Stream, DataLen: dataLen, Digest: op.Digest, HasDigest: op.HasDigest, Hint: op.Hint})
		fates[i] = storage.BatchFate{Block: blk, Page: page}
	}
}

// ensureBatchScratch sizes the reusable scratch for a batch of n ops
// over the given queue count.
func (b *Backend) ensureBatchScratch(n, queues int) {
	bs := &b.bs
	if cap(bs.encN) < n {
		bs.encN = make([]int, n)
		bs.off = make([]int, n)
	}
	if cap(bs.stored) < n {
		bs.stored = make([][]byte, n)
	}
	if cap(bs.qsize) < queues {
		bs.qsize = make([]int, queues)
	}
	for len(bs.arenas) < queues {
		bs.arenas = append(bs.arenas, nil)
	}
}

// encodeBatch validates every op (storage.ValidateBatch) and runs the
// encode phase: per-queue ECC encode into per-queue arenas, parallel
// across queues when workers allow. Rejected ops get their fate set
// here and are skipped by the append pass. Payloads encode through
// their stream's scheme — by name the zone attribute's (NewBackend
// enforces it) — so the append hands the device a finished page.
func (b *Backend) encodeBatch(ops []storage.BatchOp, fates []storage.BatchFate, queues, workers int) {
	bs := &b.bs
	encN := bs.encN[:len(ops)]
	storage.ValidateBatch(ops, fates, b.streams, b.logicalSz, encN)
	stored := bs.stored[:len(ops)]
	qsize := bs.qsize[:queues]
	for q := range qsize {
		qsize[q] = 0
	}
	for i := range ops {
		stored[i] = nil
		if encN[i] <= 0 {
			continue
		}
		q := ops[i].Queue
		if q < 0 || q >= queues {
			q = 0
		}
		bs.off[i] = qsize[q]
		qsize[q] += encN[i]
	}
	for q := 0; q < queues; q++ {
		if cap(bs.arenas[q]) < qsize[q] {
			bs.arenas[q] = make([]byte, qsize[q])
		}
	}
	if workers > 1 && queues > 1 {
		for q := 1; q < queues; q++ {
			bs.wg.Add(1)
			b.encodeQueueAsync(ops, fates, q, queues)
		}
		b.encodeQueue(ops, fates, 0, queues)
		bs.wg.Wait()
		return
	}
	for q := 0; q < queues; q++ {
		b.encodeQueue(ops, fates, q, queues)
	}
}

// encodeQueueAsync runs encodeQueue on its own goroutine; a method call
// rather than a closure so the spawn allocates no capture environment.
func (b *Backend) encodeQueueAsync(ops []storage.BatchOp, fates []storage.BatchFate, q, queues int) {
	go func() {
		defer b.bs.wg.Done()
		b.encodeQueue(ops, fates, q, queues)
	}()
}

// encodeQueue encodes every payload op of queue q into the queue's
// arena. Each op writes only its own arena span, its own stored slot,
// and its own fate, so queues share nothing.
func (b *Backend) encodeQueue(ops []storage.BatchOp, fates []storage.BatchFate, q, queues int) {
	bs := &b.bs
	arena := bs.arenas[q]
	for i := range ops {
		op := &ops[i]
		oq := op.Queue
		if oq < 0 || oq >= queues {
			oq = 0
		}
		if oq != q || bs.encN[i] <= 0 {
			continue
		}
		dst := arena[bs.off[i] : bs.off[i]+bs.encN[i]]
		n, err := b.streams[op.Stream].Scheme.EncodeInto(dst, op.Data)
		if err != nil {
			fates[i].Err = err
			bs.encN[i] = -1
			continue
		}
		bs.stored[i] = dst[:n]
	}
}
