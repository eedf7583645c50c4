package experiments

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E19", "E20", "E21"}
	ids := IDs()
	if len(ids) != len(want) {
		t.Fatalf("registry has %d experiments: %v", len(ids), ids)
	}
	for i, id := range want {
		if ids[i] != id {
			t.Fatalf("ids[%d] = %s, want %s (order)", i, ids[i], id)
		}
		if _, ok := Title(id); !ok {
			t.Fatalf("no title for %s", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("E99", true); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// runQuick executes one experiment in quick mode and does basic shape
// validation.
func runQuick(t *testing.T, id string) *Result {
	t.Helper()
	r, err := Run(id, true)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Fatalf("result id %q", r.ID)
	}
	if len(r.Tables) == 0 {
		t.Fatalf("%s produced no tables", id)
	}
	for ti, tab := range r.Tables {
		if len(tab.Rows) == 0 {
			t.Fatalf("%s table %d empty", id, ti)
		}
	}
	if r.String() == "" {
		t.Fatalf("%s renders empty", id)
	}
	return r
}

// cell fetches a table cell by (row, header name).
func cell(t *testing.T, r *Result, table, row int, header string) string {
	t.Helper()
	tab := r.Tables[table]
	for i, h := range tab.Header {
		if h == header {
			return tab.Rows[row][i]
		}
	}
	t.Fatalf("%s: no column %q in %v", r.ID, header, tab.Header)
	return ""
}

func cellF(t *testing.T, r *Result, table, row int, header string) float64 {
	t.Helper()
	s := cell(t, r, table, row, header)
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell %q not numeric: %v", r.ID, s, err)
	}
	return v
}

func TestE1Shares(t *testing.T) {
	r := runQuick(t, "E1")
	total := 0.0
	for row := range r.Tables[0].Rows {
		total += cellF(t, r, 0, row, "share_%")
	}
	if total < 99.9 || total > 100.1 {
		t.Fatalf("shares sum to %v", total)
	}
}

func TestE2Ladder(t *testing.T) {
	r := runQuick(t, "E2")
	// Native modes must descend in endurance down the first 5 rows.
	prev := 1 << 60
	for row := 0; row < 5; row++ {
		e := int(cellF(t, r, 0, row, "rated_PEC"))
		if e >= prev {
			t.Fatalf("ladder not descending at row %d", row)
		}
		prev = e
	}
	// pQLC (row 5) must beat native PLC (row 4).
	if cellF(t, r, 0, 5, "rated_PEC") <= cellF(t, r, 0, 4, "rated_PEC") {
		t.Fatal("pseudo-QLC does not outlast native PLC")
	}
}

func TestE3WearGap(t *testing.T) {
	r := runQuick(t, "E3")
	for row := range r.Tables[0].Rows {
		avg := cellF(t, r, 0, row, "avg_wear_%")
		if avg <= 0 || avg >= 60 {
			t.Fatalf("row %d: wear %.2f%% outside the wear-gap story", row, avg)
		}
	}
}

func TestE4Projection(t *testing.T) {
	r := runQuick(t, "E4")
	rows := r.Tables[0].Rows
	first := cellF(t, r, 0, 0, "emissions_Mt")
	last := cellF(t, r, 0, len(rows)-1, "emissions_Mt")
	if first < 120 || first > 125 {
		t.Fatalf("2021 emissions %v", first)
	}
	if last <= first*2 {
		t.Fatalf("2030 emissions %v did not grow strongly", last)
	}
	people := cellF(t, r, 0, len(rows)-1, "people_equiv_M")
	if people < 100 {
		t.Fatalf("2030 people equivalent %vM below the paper's band", people)
	}
}

func TestE5Tax(t *testing.T) {
	r := runQuick(t, "E5")
	frac := cellF(t, r, 0, 0, "tax_fraction_%")
	if frac < 35 || frac > 45 {
		t.Fatalf("tax fraction %v%%, paper says ~40%%", frac)
	}
}

func TestE6Gains(t *testing.T) {
	r := runQuick(t, "E6")
	overTLC := cellF(t, r, 0, 0, "gain_%")
	overQLC := cellF(t, r, 0, 1, "gain_%")
	if overTLC < 45 || overTLC > 52 {
		t.Fatalf("gain over TLC %v%%", overTLC)
	}
	if overQLC < 8 || overQLC > 14 {
		t.Fatalf("gain over QLC %v%%", overQLC)
	}
}

func TestE7Shape(t *testing.T) {
	r := runQuick(t, "E7")
	// Row order: tlc, qlc, sos. SOS must use the least silicon.
	tlc := cellF(t, r, 0, 0, "embodied_rel_%")
	qlc := cellF(t, r, 0, 1, "embodied_rel_%")
	sos := cellF(t, r, 0, 2, "embodied_rel_%")
	if !(sos < qlc && qlc < tlc) {
		t.Fatalf("silicon ordering broken: tlc=%v qlc=%v sos=%v", tlc, qlc, sos)
	}
	if sos > 70 {
		t.Fatalf("SOS silicon %v%% of TLC, want ~67%%", sos)
	}
	// Regret reads stay far below degraded reads on SOS.
	degraded := cellF(t, r, 0, 2, "degraded_reads")
	regret := cellF(t, r, 0, 2, "regret_reads")
	if degraded > 0 && regret > degraded/2 {
		t.Fatalf("regret %v vs degraded %v: classification not protecting SYS", regret, degraded)
	}
}

func TestE8Ablation(t *testing.T) {
	r := runQuick(t, "E8")
	if len(r.Tables[0].Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(r.Tables[0].Rows))
	}
	// Both configurations must have sustained substantial writes.
	for row := 0; row < 2; row++ {
		if cellF(t, r, 0, row, "total_writes") < 1000 {
			t.Fatalf("row %d sustained too few writes", row)
		}
	}
}

func TestE9Resuscitation(t *testing.T) {
	r := runQuick(t, "E9")
	offWrites := cellF(t, r, 0, 0, "total_writes")
	onWrites := cellF(t, r, 0, 1, "total_writes")
	if onWrites < offWrites {
		t.Fatalf("resuscitation reduced sustained writes: %v vs %v", onWrites, offWrites)
	}
	if cellF(t, r, 0, 1, "resuscitated") == 0 {
		t.Fatal("no blocks resuscitated in the pTLC run")
	}
}

func TestE10Accuracy(t *testing.T) {
	r := runQuick(t, "E10")
	for row := range r.Tables[0].Rows {
		acc := cellF(t, r, 0, row, "accuracy_%")
		if acc < 70 || acc > 93 {
			t.Fatalf("row %d accuracy %v%% outside the paper band", row, acc)
		}
	}
	// Sweep: sys-loss must not increase with threshold.
	sweep := r.Tables[1]
	prev := 101.0
	for row := range sweep.Rows {
		loss := cellF(t, r, 1, row, "sys_loss_%")
		if loss > prev+1e-9 {
			t.Fatal("sys loss increased with threshold")
		}
		prev = loss
	}
}

func TestE11AutoDelete(t *testing.T) {
	r := runQuick(t, "E11")
	heavyDeleted := cellF(t, r, 0, 0, "files_auto_deleted")
	lightRuns := cellF(t, r, 0, 1, "auto_delete_runs")
	if heavyDeleted == 0 {
		t.Fatal("heavy phase triggered no auto-deletes")
	}
	heavyRuns := cellF(t, r, 0, 0, "auto_delete_runs")
	if lightRuns > heavyRuns/2 {
		t.Fatalf("auto-delete did not quiet down: heavy=%v light=%v", heavyRuns, lightRuns)
	}
	free := cellF(t, r, 0, 1, "free_frac_%")
	if free < 3 {
		t.Fatalf("final free fraction %v%% below the 3%% target", free)
	}
}

func TestE12Latency(t *testing.T) {
	r := runQuick(t, "E12")
	// PLC row (index 2) slower than TLC row (0).
	if cellF(t, r, 0, 2, "tR_us") <= cellF(t, r, 0, 0, "tR_us") {
		t.Fatal("PLC not slower than TLC")
	}
	for row := range r.Tables[0].Rows {
		if cellF(t, r, 0, row, "tolerant_speedup_x") < 1 {
			t.Fatalf("row %d: tolerance slowed reads down", row)
		}
	}
}

func TestE13Quality(t *testing.T) {
	r := runQuick(t, "E13")
	decay := r.Tables[0]
	// PSNR decreases with age at fixed wear.
	first := cellF(t, r, 0, 0, "psnr_dB")
	last := cellF(t, r, 0, len(decay.Rows)-1, "psnr_dB")
	if last > first {
		t.Fatalf("PSNR rose with age: %v -> %v", first, last)
	}
	if first < 25 {
		t.Fatalf("young media already unusable: %v dB", first)
	}
	// Split placement beats all-SPARE.
	split := r.Tables[2]
	if len(split.Rows) != 2 {
		t.Fatalf("split table rows: %d", len(split.Rows))
	}
	allSpare := cellF(t, r, 2, 0, "psnr_dB")
	prefixSys := cellF(t, r, 2, 1, "psnr_dB")
	if prefixSys < allSpare {
		t.Fatalf("priority split (%v dB) did not beat all-SPARE (%v dB)", prefixSys, allSpare)
	}
}

func TestE15Extensions(t *testing.T) {
	r := runQuick(t, "E15")
	// Preference ablation: aggressive demotes at least as much as
	// neutral; protective at most as much.
	neutral := cellF(t, r, 0, 0, "demoted")
	protective := cellF(t, r, 0, 1, "demoted")
	aggressive := cellF(t, r, 0, 2, "demoted")
	if protective > neutral {
		t.Fatalf("protective prefs demoted more (%v) than neutral (%v)", protective, neutral)
	}
	if aggressive < neutral {
		t.Fatalf("aggressive prefs demoted less (%v) than neutral (%v)", aggressive, neutral)
	}
	// Promotion round trip.
	if got := cell(t, r, 1, 0, "class"); got != "spare" {
		t.Skipf("cold file not demoted (%s); promotion leg unverifiable", got)
	}
	if got := cell(t, r, 1, 1, "class"); got != "sys" {
		t.Fatalf("hot file not promoted back: %s", got)
	}
	// Transcoding retains at least as much media.
	delOnly := cellF(t, r, 2, 0, "media_surviving")
	withTrans := cellF(t, r, 2, 1, "media_surviving")
	if withTrans < delOnly {
		t.Fatalf("transcoding retained less media: %v vs %v", withTrans, delOnly)
	}
	if cellF(t, r, 2, 1, "transcoded") == 0 {
		t.Fatal("no transcodes in the transcode arm")
	}
}

func TestE14Flow(t *testing.T) {
	r := runQuick(t, "E14")
	out := r.String()
	if !strings.Contains(out, "sys") || !strings.Contains(out, "spare") {
		t.Fatalf("flow does not show the sys->spare move:\n%s", out)
	}
}

// TestRunAllQuick renders every experiment and pins the bytes to a
// golden copy of `sossim -exp all -quick`. Regenerate, only for an
// intentional change, with:
//
//	go run ./cmd/sossim -exp all -quick > testdata/experiments/quick.txt
func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("RunAll covered by individual tests")
	}
	rs, err := RunAll(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != len(IDs()) {
		t.Fatalf("RunAll returned %d results", len(rs))
	}
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	want, err := os.ReadFile(filepath.Join("..", "..", "testdata", "experiments", "quick.txt"))
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick experiment output diverged from the golden at line %d:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}
