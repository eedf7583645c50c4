package ftl

import (
	"errors"
	"testing"

	"sos/internal/ecc"
	"sos/internal/flash"
	"sos/internal/sim"
	"sos/internal/storage"
)

// TestWriteBatchZeroAlloc pins the steady-state batched submission path
// at zero allocations per batch (workers=1, so no goroutine spawns):
// encode arenas, descriptor lists, plane index lists, and the pending
// set are all reused scratch. A regression here means a per-batch
// allocation crept into the hot path (see DESIGN.md §9/§10).
func TestWriteBatchZeroAlloc(t *testing.T) {
	f := noneFTL(t, 128) // large enough that GC never runs in-measurement
	const nOps = 4
	ops := make([]storage.BatchOp, nOps)
	fates := make([]storage.BatchFate, nOps)
	payload := make([]byte, 256)
	var seq uint64
	build := func() {
		for i := range ops {
			seq++
			ops[i] = storage.BatchOp{Seq: seq, Queue: 0}
			if i%2 == 0 {
				ops[i].LPA = int64(i)
				ops[i].Data = payload
			} else {
				ops[i].LPA = int64(100 + i) // accounting-only namespace
				ops[i].DataLen = 64
			}
		}
	}
	// Warm the chip's per-plane page-buffer pools: program a few hundred
	// scratch pages, trim them, and reclaim the now-fully-stale blocks —
	// erase returns every buffer to its plane's pool. Without this the
	// measurement would charge the batch path for the chip's pool-growth
	// allocations (one buffer per net-new programmed page).
	scratchBlocks := map[int]struct{}{}
	for lpa := int64(5000); lpa < 5400; lpa++ {
		if err := f.Write(lpa, payload, 0, 0); err != nil {
			t.Fatal(err)
		}
		if ppa, _, _, ok := f.Locate(lpa); ok {
			scratchBlocks[ppa.Block] = struct{}{}
		}
	}
	for lpa := int64(5000); lpa < 5400; lpa++ {
		if err := f.Trim(lpa); err != nil {
			t.Fatal(err)
		}
	}
	for b := range scratchBlocks {
		if f.Units[b].Live == 0 && f.Active[0] != b {
			if err := f.Reclaim(b); err != nil {
				t.Fatalf("reclaim scratch block %d: %v", b, err)
			}
		}
	}
	// Warm the batch scratch (arenas, descs, pending set) itself.
	for k := 0; k < 3; k++ {
		build()
		f.WriteBatch(ops, fates, 1, 1)
		for i := range fates {
			if fates[i].Err != nil {
				t.Fatal(fates[i].Err)
			}
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		build()
		f.WriteBatch(ops, fates, 1, 1)
		for i := range fates {
			if fates[i].Err != nil {
				t.Fatal(fates[i].Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state WriteBatch allocates %.1f times per batch, want 0", allocs)
	}

	// The hinted path must hold the same bound: per-(stream, bin) active
	// blocks are fixed slots, not maps, so routing ops to four distinct
	// bins allocates nothing once each bin's active block exists.
	buildHinted := func() {
		build()
		for i := range ops {
			ops[i].Hint = storage.LifetimeHint(1 + i%4)
		}
	}
	for k := 0; k < 3; k++ {
		buildHinted()
		f.WriteBatch(ops, fates, 1, 1)
		for i := range fates {
			if fates[i].Err != nil {
				t.Fatal(fates[i].Err)
			}
		}
	}
	allocs = testing.AllocsPerRun(50, func() {
		buildHinted()
		f.WriteBatch(ops, fates, 1, 1)
		for i := range fates {
			if fates[i].Err != nil {
				t.Fatal(fates[i].Err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state hinted WriteBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// alwaysDegraded is DetectOnly whose verification always fails: the
// payload still aliases the stored buffer and the sentinel error marks
// the slice degraded. It drives the batched read path's degraded-SPARE
// decode branch deterministically — the same code a real CRC mismatch
// takes, without depending on the media model's flip schedule.
type alwaysDegraded struct{ ecc.DetectOnly }

func (alwaysDegraded) Decode(stored []byte) ([]byte, int, error) {
	return stored[:len(stored)-4], 0, ecc.ErrUncorrectable
}

func (alwaysDegraded) DecodeInPlace(stored []byte) ([]byte, int, error) {
	return stored[:len(stored)-4], 0, ecc.ErrUncorrectable
}

// TestReadBatchZeroAlloc pins the steady-state batched read path at
// zero allocations per batch (workers=1, so no goroutine spawns):
// descriptors, plane index lists, read runs, pool buffers, and the
// retained-buffer lists are all reused scratch. The batch mixes the
// clean aliasing decode, the degraded-SPARE decode branch (payload
// alias + sentinel error), and an unmapped LPA (sentinel fate), so a
// regression in any of the three costs shows up here.
func TestReadBatchZeroAlloc(t *testing.T) {
	clock := &sim.Clock{}
	chip, err := flash.NewChip(flash.ChipConfig{
		Geometry: flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: 64},
		Tech:     flash.PLC,
		Clock:    clock,
		Seed:     1234,
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Chip: chip,
		Streams: []StreamPolicy{
			{Name: "spare", Mode: flash.NativeMode(flash.PLC), Scheme: ecc.None{}},
			{Name: "degraded", Mode: flash.NativeMode(flash.PLC), Scheme: alwaysDegraded{}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 256)
	for lpa := int64(0); lpa < 24; lpa++ {
		if err := f.Write(lpa, payload, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	for lpa := int64(100); lpa < 124; lpa++ {
		if err := f.Write(lpa, payload, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	const nOps = 8
	ops := make([]storage.BatchReadOp, nOps)
	fates := make([]storage.BatchReadFate, nOps)
	var seq uint64
	build := func() {
		for i := range ops {
			seq++
			lpa := int64(i % 24) // clean aliasing decode
			switch i % 4 {
			case 1:
				lpa = int64(100 + i%24) // degraded decode branch
			case 3:
				lpa = 9000 // unmapped: sentinel fate, no descriptor
			}
			ops[i] = storage.BatchReadOp{LPA: lpa, Seq: seq, Queue: 0}
		}
	}
	check := func() {
		for i := range fates {
			switch i % 4 {
			case 1:
				if fates[i].Err != nil || !fates[i].Res.Degraded {
					t.Fatalf("op %d: want degraded fate, got err=%v res=%+v", i, fates[i].Err, fates[i].Res)
				}
			case 3:
				if !errors.Is(fates[i].Err, ErrUnknownLPA) {
					t.Fatalf("op %d: want ErrUnknownLPA, got %v", i, fates[i].Err)
				}
			default:
				if fates[i].Err != nil || fates[i].Res.Data == nil {
					t.Fatalf("op %d: want clean payload, got err=%v", i, fates[i].Err)
				}
			}
		}
	}
	// Warm the batch scratch and the plane buffer pools (the first
	// batches grow both; steady state reuses them).
	for k := 0; k < 3; k++ {
		build()
		f.ReadBatch(ops, fates, 1, 1)
		check()
	}
	allocs := testing.AllocsPerRun(50, func() {
		build()
		f.ReadBatch(ops, fates, 1, 1)
	})
	check()
	if allocs != 0 {
		t.Fatalf("steady-state ReadBatch allocates %.1f times per batch, want 0", allocs)
	}
}
