package device

import (
	"bytes"
	"testing"

	"sos/internal/fault"
	"sos/internal/flash"
	"sos/internal/obs"
	"sos/internal/sim"
	"sos/internal/storage"
)

// perOpDevice builds the SOS stream split (SYS on Reed-Solomon) over
// the given backend, with the chip's per-plane page-buffer pools
// pre-filled: programmed pages keep their buffers until erase, so an
// empty pool would charge every net-new page's storage to the datapath
// under measurement.
func perOpDevice(t *testing.T, kind storage.Kind, plan *fault.Plan, rec *obs.Recorder) *Device {
	t.Helper()
	d, err := New(Config{
		Geometry: DefaultGeometry(),
		Tech:     flash.PLC,
		Backend:  kind,
		Streams:  SOSStreams(),
		Seed:     42,
		Fault:    plan,
		Obs:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	fillPools(d.Chip(), 256)
	return d
}

// fillPools pre-fills each plane's page-buffer pool with n buffers.
func fillPools(chip *flash.Chip, n int) {
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = chip.Geometry().RawPageBytes()
	}
	bufs := make([][]byte, n)
	for p := 0; p < chip.Planes(); p++ {
		chip.TakeProgramBufs(p, sizes, bufs)
		chip.ReturnProgramBufs(p, bufs)
	}
}

// sysPage returns a distinct 3000-byte SYS payload for lba.
func sysPage(lba int64) []byte {
	return bytes.Repeat([]byte{byte(lba*7 + 1)}, 3000)
}

// TestPerOpZeroAlloc pins the per-op contract: Write and Read are
// one-op batches through the same datapath as WriteBatch and ReadBatch,
// so steady-state per-op SYS traffic — Reed-Solomon encode and decode
// included — allocates nothing, on either backend, at the device and at
// the backend's own Read.
func TestPerOpZeroAlloc(t *testing.T) {
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			d := perOpDevice(t, kind, nil, nil)
			payload := sysPage(9)
			// Warm the one-op frames, batch scratch, read engines, and
			// the L2P table for the LBAs under measurement.
			for lba := int64(0); lba < 256; lba++ {
				if _, err := d.Write(lba, payload, 0, ClassSys); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Read(lba); err != nil {
					t.Fatal(err)
				}
				if _, err := d.Backend().Read(lba); err != nil {
					t.Fatal(err)
				}
			}
			lba := int64(0)
			if allocs := testing.AllocsPerRun(100, func() {
				if _, err := d.Write(lba%128, payload, 0, ClassSys); err != nil {
					t.Fatal(err)
				}
				lba++
			}); allocs != 0 {
				t.Errorf("Device.Write allocates %.1f times per op, want 0", allocs)
			}
			if allocs := testing.AllocsPerRun(100, func() {
				res, err := d.Read(lba % 128)
				if err != nil || res.Degraded {
					t.Fatal(err, res.Degraded)
				}
				lba++
			}); allocs != 0 {
				t.Errorf("Device.Read allocates %.1f times per op, want 0", allocs)
			}
			be := d.Backend()
			if allocs := testing.AllocsPerRun(100, func() {
				res, err := be.Read(lba % 128)
				if err != nil || res.Degraded {
					t.Fatal(err, res.Degraded)
				}
				lba++
			}); allocs != 0 {
				t.Errorf("%s Read allocates %.1f times per op, want 0", be.Name(), allocs)
			}
		})
	}
}

// TestPerOpWriteBytesObserved pins write-size telemetry: a per-op Write
// is a one-op batch, so its payload lands in the write-size histogram
// at its real length even when the caller passes dataLen 0 — exactly as
// a WriteBatch op does.
func TestPerOpWriteBytesObserved(t *testing.T) {
	rec := obs.New(obs.Config{})
	d := perOpDevice(t, storage.KindFTL, nil, rec)
	if _, err := d.Write(1, sysPage(1), 0, ClassSys); err != nil {
		t.Fatal(err)
	}
	_, fates, err := d.WriteBatch([]BatchWrite{{LBA: 2, Data: sysPage(2), Class: ClassSys}})
	if err != nil || fates[0].Err != nil {
		t.Fatal(err, fates[0].Err)
	}
	if got, sum := rec.WriteBytes.Count(), rec.WriteBytes.Sum(); got != 2 || sum != 6000 {
		t.Fatalf("write-size histogram count %d sum %v, want 2 and 6000", got, sum)
	}
}

// TestReadBatchLadderReread drives the device read ladder inside a
// batch: a read-fault window covers the first read of one (or two)
// slices of a 16-op ReadBatch, so those slices walk the ladder and
// re-read through the backend's one-op Read while the batch's other
// fates still alias the batch's buffers. Every slice must come back
// with the bytes written to it.
func TestReadBatchLadderReread(t *testing.T) {
	for _, kind := range storage.Kinds() {
		for _, faulted := range []int64{1, 2} {
			name := kind.String() + "/one"
			if faulted == 2 {
				name = kind.String() + "/two"
			}
			t.Run(name, func(t *testing.T) {
				d := perOpDevice(t, kind, &fault.Plan{}, nil)
				const n = 16
				rds := make([]BatchRead, n)
				for i := range rds {
					lba := int64(i)
					if _, err := d.Write(lba, sysPage(lba), 0, ClassSys); err != nil {
						t.Fatal(err)
					}
					rds[i] = BatchRead{LBA: lba}
				}
				// The batch reads its slices as one run in LBA order, so
				// slice 4's read is op base+5.
				base := d.Injector().Ops()
				d.Injector().SetPlan(fault.Plan{ReadFaultWindow: fault.Window{From: base + 5, To: base + 5 + faulted}})
				_, fates := d.ReadBatch(rds)
				for i := range fates {
					if fates[i].Err != nil {
						t.Fatalf("slice %d: %v", i, fates[i].Err)
					}
					if !bytes.Equal(fates[i].Res.Data, sysPage(int64(i))) {
						t.Fatalf("slice %d came back with the wrong bytes", i)
					}
				}
				if got := d.Smart().ReadRetries; got != faulted {
					t.Fatalf("ladder re-reads = %d, want %d", got, faulted)
				}
			})
		}
	}
}

// TestRelocationZeroAlloc extends the per-op contract to relocation: on
// either backend, steady-state SYS payload writes whose GC relocates
// live payload pages — read runs, Reed–Solomon decode and re-encode,
// program, remap — allocate nothing. Random overwrites keep a 64-block
// chip about three quarters full, so GC moves more than one live page
// per write and an allocation per relocation would show. The chip is
// SLC, whose raw error rate leaves every codeword clean: correcting a
// flipped codeword takes Reed–Solomon's allocating error path, as on
// reads (DESIGN.md §9).
func TestRelocationZeroAlloc(t *testing.T) {
	const live = 2800
	for _, kind := range storage.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			geo := DefaultGeometry()
			geo.Blocks = 64
			d, err := New(Config{Geometry: geo, Tech: flash.SLC, Backend: kind, Streams: BaselineStreams(flash.SLC), Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			fillPools(d.Chip(), 512)
			payload := sysPage(3)
			rng := sim.NewRNG(7)
			write := func(lba int64) {
				if _, err := d.Write(lba, payload, 0, ClassSys); err != nil {
					t.Fatal(err)
				}
			}
			for lba := int64(0); lba < live; lba++ {
				write(lba)
			}
			for i := 0; i < 4000; i++ {
				write(int64(rng.Intn(live)))
			}
			moves := d.Backend().Stats().GCMoves
			allocs := testing.AllocsPerRun(400, func() { write(int64(rng.Intn(live))) })
			if moves = d.Backend().Stats().GCMoves - moves; moves <= 401 {
				t.Fatalf("%d relocations over 401 writes, want more than one per write", moves)
			}
			if allocs != 0 {
				t.Errorf("SYS writes relocating %d live pages over 401 writes allocate %.2f times per write, want 0", moves, allocs)
			}
		})
	}
}
