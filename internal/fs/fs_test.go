package fs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"sos/internal/device"
	"sos/internal/flash"
	"sos/internal/sim"
)

func testFS(t *testing.T, blocks int) (*FS, *sim.Clock) {
	t.Helper()
	clock := &sim.Clock{}
	dev, err := device.NewSOS(flash.Geometry{
		PageSize: 512, Spare: 128, PagesPerBlock: 10, Blocks: blocks,
	}, 99, clock)
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return f, clock
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil device accepted")
	}
}

func TestCreateReadRoundtrip(t *testing.T) {
	f, _ := testFS(t, 32)
	payload := bytes.Repeat([]byte{0xab}, 1500) // spans 3 pages
	id, err := f.Create("/sdcard/DCIM/a.jpg", payload, 0, device.ClassSys)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("roundtrip mismatch")
	}
	if res.Pages != 3 {
		t.Fatalf("pages = %d", res.Pages)
	}
	if res.Size != 1500 {
		t.Fatalf("size = %d", res.Size)
	}
	if res.Latency <= 0 {
		t.Fatal("no latency accumulated")
	}
}

func TestCreateValidation(t *testing.T) {
	f, _ := testFS(t, 32)
	if _, err := f.Create("", nil, 100, device.ClassSys); !errors.Is(err, ErrEmptyName) {
		t.Fatalf("empty name: %v", err)
	}
	if _, err := f.Create("/x", nil, 0, device.ClassSys); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero size: %v", err)
	}
	if _, err := f.Create("/x", nil, 100, device.ClassSys); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Create("/x", nil, 100, device.ClassSys); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate name: %v", err)
	}
}

func TestAccountingFile(t *testing.T) {
	f, _ := testFS(t, 32)
	id, err := f.Create("/sdcard/big.mp4", nil, 5000, device.ClassSpare)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Data != nil {
		t.Fatal("accounting file returned data")
	}
	if res.Pages != 10 { // ceil(5000/512)
		t.Fatalf("pages = %d", res.Pages)
	}
	st, _ := f.Stat(id)
	if st.Real {
		t.Fatal("accounting file marked real")
	}
}

func TestUpdateRewrites(t *testing.T) {
	f, _ := testFS(t, 32)
	id, _ := f.Create("/doc.pdf", []byte("version-one"), 0, device.ClassSys)
	used1, _ := f.Usage()
	if err := f.Update(id, []byte("v2"), 0); err != nil {
		t.Fatal(err)
	}
	res, _ := f.Read(id)
	if string(res.Data) != "v2" {
		t.Fatalf("read %q", res.Data)
	}
	used2, _ := f.Usage()
	if used2 > used1 {
		t.Fatalf("shrinking update grew usage: %d -> %d", used1, used2)
	}
	if err := f.Update(999, []byte("x"), 0); !errors.Is(err, ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := f.Update(id, nil, 0); !errors.Is(err, ErrBadSize) {
		t.Fatalf("zero-size update: %v", err)
	}
	st, _ := f.Stat(id)
	if st.Writes < 2 {
		t.Fatalf("writes = %d", st.Writes)
	}
}

func TestDeleteFreesSpace(t *testing.T) {
	f, _ := testFS(t, 32)
	id, _ := f.Create("/a", nil, 4000, device.ClassSpare)
	used1, _ := f.Usage()
	if used1 == 0 {
		t.Fatal("usage not tracked")
	}
	if err := f.Delete(id); err != nil {
		t.Fatal(err)
	}
	used2, _ := f.Usage()
	if used2 != 0 {
		t.Fatalf("usage after delete = %d", used2)
	}
	if _, err := f.Read(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("deleted file readable")
	}
	if err := f.Delete(id); !errors.Is(err, ErrNotFound) {
		t.Fatal("double delete accepted")
	}
	if f.Files() != 0 {
		t.Fatalf("files = %d", f.Files())
	}
}

func TestLookupAndList(t *testing.T) {
	f, _ := testFS(t, 32)
	id, _ := f.Create("/b.txt", []byte("hi"), 0, device.ClassSys)
	got, err := f.Lookup("/b.txt")
	if err != nil || got != id {
		t.Fatalf("lookup = %v, %v", got, err)
	}
	if _, err := f.Lookup("/missing"); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing lookup")
	}
	l := f.List()
	if len(l) != 1 || l[0].Name != "/b.txt" {
		t.Fatalf("list = %+v", l)
	}
}

func TestReclassifyFile(t *testing.T) {
	f, _ := testFS(t, 32)
	payload := bytes.Repeat([]byte{0x5a}, 1200)
	id, _ := f.Create("/photo.jpg", payload, 0, device.ClassSys)
	if err := f.Reclassify(id, device.ClassSpare); err != nil {
		t.Fatal(err)
	}
	st, _ := f.Stat(id)
	if st.Class != device.ClassSpare {
		t.Fatalf("class = %v", st.Class)
	}
	res, err := f.Read(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res.Data, payload) {
		t.Fatal("reclassification corrupted content")
	}
	// No-op reclassify.
	if err := f.Reclassify(id, device.ClassSpare); err != nil {
		t.Fatal(err)
	}
	if err := f.Reclassify(999, device.ClassSys); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing reclassify")
	}
}

func TestNoSpace(t *testing.T) {
	f, _ := testFS(t, 8)
	// Capacity is small; keep creating distinct files until ErrNoSpace.
	var err error
	for i := 0; i < 1000; i++ {
		_, err = f.Create(string(rune('a'+i%26))+string(rune('0'+i/26)), nil, 2048, device.ClassSpare)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("filling returned %v", err)
	}
}

func TestPressureCallback(t *testing.T) {
	f, _ := testFS(t, 16)
	fired := 0
	f.OnPressure = func(used, capacity int64) { fired++ }
	f.PressureFrac = 0.5
	_, capacity := f.Usage()
	target := capacity/2 + 4096
	var written int64
	i := 0
	for written < target {
		if _, err := f.Create(string(rune('a'+i)), nil, 4096, device.ClassSpare); err != nil {
			t.Fatal(err)
		}
		written += 4096
		i++
	}
	if fired == 0 {
		t.Fatal("pressure callback never fired")
	}
}

func TestFreeFrac(t *testing.T) {
	f, _ := testFS(t, 32)
	if ff := f.FreeFrac(); ff != 1 {
		t.Fatalf("fresh FreeFrac = %v", ff)
	}
	_, _ = f.Create("/x", nil, 100000, device.ClassSpare)
	if ff := f.FreeFrac(); ff >= 1 || ff <= 0 {
		t.Fatalf("FreeFrac = %v", ff)
	}
}

func TestStatFields(t *testing.T) {
	f, clock := testFS(t, 32)
	clock.Advance(5 * sim.Day)
	id, _ := f.Create("/x.mp3", []byte("abc"), 0, device.ClassSpare)
	_, _ = f.Read(id)
	_, _ = f.Read(id)
	st, err := f.Stat(id)
	if err != nil {
		t.Fatal(err)
	}
	if st.Created != 5*sim.Day {
		t.Fatalf("created = %v", st.Created)
	}
	if st.Reads != 2 || st.Writes != 1 {
		t.Fatalf("reads/writes = %d/%d", st.Reads, st.Writes)
	}
	if _, err := f.Stat(12345); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing stat")
	}
}

func TestShrinkTriggersPressure(t *testing.T) {
	// Simulate capacity variance: when the device reports a shrink, the
	// filesystem must re-evaluate pressure.
	f, _ := testFS(t, 16)
	fired := false
	f.OnPressure = func(used, capacity int64) { fired = true }
	// Fill to ~60%.
	_, capacity := f.Usage()
	var written int64
	i := 0
	for written < capacity*6/10 {
		if _, err := f.Create(string(rune('a'+i%26))+string(rune('A'+i/26)), nil, 4096, device.ClassSpare); err != nil {
			t.Fatal(err)
		}
		written += 4096
		i++
	}
	if fired {
		t.Fatal("pressure fired prematurely")
	}
	// Device shrinks to just above used: pressure must fire.
	f.Device().OnCapacityChange(written + 1024)
	if !fired {
		t.Fatal("shrink did not raise pressure")
	}
}

func TestReadBatchMatchesRead(t *testing.T) {
	// Two identically seeded filesystems age the same files on a worn
	// chip; one reads page at a time, the other as one batch. Payload
	// and damage must agree, including a size that ends mid-page.
	sizes := []int{1500, 2048, 4000}
	build := func() (*FS, []FileID) {
		f, clock := testFS(t, 64)
		chip := f.dev.Chip()
		for b := 0; b < chip.Blocks(); b++ {
			for i := 0; i < 380; i++ {
				if err := chip.Erase(b); err != nil {
					t.Fatal(err)
				}
			}
		}
		var ids []FileID
		for i, size := range sizes {
			payload := make([]byte, size)
			for j := range payload {
				payload[j] = byte(j*7 + i)
			}
			class := device.ClassSys
			if i%2 == 1 {
				class = device.ClassSpare
			}
			id, err := f.Create(fmt.Sprintf("/f%d", i), payload, 0, class)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
		}
		clock.Advance(3 * sim.Year)
		return f, ids
	}
	perPage, _ := build()
	batched, ids := build()
	flips, degraded := 0, 0
	for i, id := range ids {
		want, err := perPage.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := batched.ReadBatch(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Data) != sizes[i] || !bytes.Equal(got.Data, want.Data) {
			t.Errorf("file %d: ReadBatch data (%d bytes) differs from Read's (%d bytes)", i, len(got.Data), len(want.Data))
		}
		if got.DegradedPages != want.DegradedPages || got.RawFlips != want.RawFlips {
			t.Errorf("file %d: ReadBatch degraded=%d flips=%d, Read degraded=%d flips=%d",
				i, got.DegradedPages, got.RawFlips, want.DegradedPages, want.RawFlips)
		}
		flips += want.RawFlips
		degraded += want.DegradedPages
	}
	if flips == 0 || degraded == 0 {
		t.Fatalf("aged files read back with %d flips and %d degraded pages; damage accounting not exercised", flips, degraded)
	}
}

func TestReadBatchZeroAlloc(t *testing.T) {
	// A multi-page real file's payload lands in the FS-owned buffer, so
	// once scratch is warm a ReadBatch allocates nothing.
	f, _ := testFS(t, 32)
	id, err := f.Create("/a", bytes.Repeat([]byte{0x5a}, 1500), 0, device.ClassSys)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.ReadBatch(id); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := f.ReadBatch(id); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ReadBatch allocates %.1f times per read, want 0", allocs)
	}
}
