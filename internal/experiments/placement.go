package experiments

import (
	"fmt"

	"sos"
	"sos/internal/core"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/workload"
)

func init() {
	register("E19", "extension: longevity-predicted placement and dead-data-aware GC", runE19)
}

// e19Geometry is the scaled-down churn chip: small enough that the
// workload turns capacity over fast and GC dominates write
// amplification — the regime where deathtime placement can pay.
func e19Geometry() flash.Geometry {
	return flash.Geometry{PageSize: 512, Spare: 128, PagesPerBlock: 30, Blocks: 60}
}

// e19Family is one workload family: a distinct mix of media ingest,
// database churn, and deletion pressure, scaled to device capacity.
type e19Family struct {
	name string
	cfg  func(capacityBytes int64, days int) workload.PersonalConfig
}

// e19Families returns the two contrasted families: "phone" (media
// dominates capacity, moderate DB churn, capacity turnover ~8 days) and
// "messaging" (many small media files, heavy DB churn, aggressive
// deletion, turnover ~10 days).
func e19Families() []e19Family {
	return []e19Family{
		{name: "phone", cfg: func(capB int64, days int) workload.PersonalConfig {
			daily := float64(capB) / 8
			return workload.PersonalConfig{
				Days: days, NewMediaPerDay: 4, MediaBytes: int64(daily * 0.45 / 4),
				AppDBCount: 8, AppDBBytes: int64(daily * 0.55 / 20), AppDBUpdatesPerDay: 20,
				ReadsPerDay: 40, DeletesPerDay: 2, Seed: 7,
			}
		}},
		{name: "messaging", cfg: func(capB int64, days int) workload.PersonalConfig {
			daily := float64(capB) / 10
			return workload.PersonalConfig{
				Days: days, NewMediaPerDay: 10, MediaBytes: int64(daily * 0.30 / 10),
				AppDBCount: 16, AppDBBytes: int64(daily * 0.70 / 60), AppDBUpdatesPerDay: 60,
				ReadsPerDay: 60, DeletesPerDay: 6, Seed: 13,
			}
		}},
	}
}

// e19Spec is one table row: a (backend, family, placement) cell run at
// identical seeds so the placement policy is the only variable.
type e19Spec struct {
	backend   sos.Backend
	family    e19Family
	placement sos.Placement
}

// e19Vals is the measured half of a row.
type e19Vals struct {
	wa         float64 // write amplification
	wearGap    float64 // max - avg block wear fraction
	enduranceX float64 // run horizons until the worst block exhausts (1/max wear)
	hinted     int64   // hinted host writes reaching the backend
	defers     int64   // GC victim deferrals (dead-skip)
	deadPages  int64   // live-but-dying pages those deferrals avoided moving
	identical  bool    // queues=4/workers=8 rerun matched queues=1/workers=1 exactly
}

// e19Run executes one cell at one concurrency point.
func e19Run(spec e19Spec, days, queues, workers int) (e19Vals, *core.RunReport, error) {
	sys, err := sos.NewSystem(
		sos.WithGeometry(e19Geometry()),
		sos.WithBackend(spec.backend),
		sos.WithPlacement(spec.placement),
		sos.WithSeed(31),
		sos.WithQueues(queues),
		sos.WithWorkers(workers),
	)
	if err != nil {
		return e19Vals{}, nil, err
	}
	gen, err := workload.NewPersonal(spec.family.cfg(sys.Device.CapacityBytes(), days))
	if err != nil {
		return e19Vals{}, nil, err
	}
	rep, err := core.Run(sys.Engine, gen, core.RunConfig{})
	if err != nil {
		return e19Vals{}, nil, err
	}
	smart := rep.FinalSmart
	v := e19Vals{
		wa:      smart.WriteAmp,
		wearGap: smart.MaxWearFrac - smart.AvgWearFrac,
	}
	if smart.MaxWearFrac > 0 {
		v.enduranceX = 1 / smart.MaxWearFrac
	}
	be := sys.Device.Backend()
	v.hinted = be.HintedWrites()
	v.defers, v.deadPages = be.DeadSkipStats()
	return v, rep, nil
}

// e19Trial runs a cell at queues=1/workers=1 and again at
// queues=4/workers=8; the concurrency contract requires the simulated
// outcome — SMART, engine stats, and placement telemetry — to match
// exactly.
func e19Trial(spec e19Spec, days int) (e19Vals, error) {
	v1, r1, err := e19Run(spec, days, 1, 1)
	if err != nil {
		return e19Vals{}, err
	}
	v8, r8, err := e19Run(spec, days, 4, 8)
	if err != nil {
		return e19Vals{}, err
	}
	v1.identical = v1 == v8 &&
		r1.FinalSmart == r8.FinalSmart &&
		r1.EngineStats == r8.EngineStats
	return v1, nil
}

// runE19 measures what deathtime placement buys: the same seeded
// workload families run with hints off, with the binary SYS/SPARE score
// as a two-bin hint, and with the trained lifetime regressor quantized
// into four deathtime bins. Colocating data that dies together leaves
// GC victims either fully dead (cheap) or fully live (deferred by the
// dead-skip pass), cutting relocation traffic — lower WA, a narrower
// wear spread, and more effective endurance from the same medium.
func runE19(quick bool) (*Result, error) {
	days := 120
	if quick {
		days = 70
	}
	var specs []e19Spec
	for _, backend := range sos.Backends() {
		for _, fam := range e19Families() {
			for _, p := range sos.Placements() {
				specs = append(specs, e19Spec{backend: backend, family: fam, placement: p})
			}
		}
	}
	vals, err := expMap(len(specs), func(i int) (e19Vals, error) {
		return e19Trial(specs[i], days)
	})
	if err != nil {
		return nil, err
	}

	t := &metrics.Table{Header: []string{
		"backend", "family", "placement", "write_amp", "wear_gap", "endurance_x",
		"hinted_writes", "gc_defers", "dead_pages_skipped", "identical_q4w8",
	}}
	for i, spec := range specs {
		v := vals[i]
		t.AddRow(spec.backend.String(), spec.family.name, spec.placement.String(),
			fmt.Sprintf("%.3f", v.wa), fmt.Sprintf("%.4f", v.wearGap),
			fmt.Sprintf("%.0f", v.enduranceX), v.hinted, v.defers, v.deadPages, v.identical)
	}

	notes := []string{
		"identical seeds per cell: the placement policy is the only variable; identical_q4w8 pins byte-equal outcomes at queues=4/workers=8",
		"binary placement reuses the demotion score at write time; longevity quantizes the lifetime regressor into four deathtime bins",
	}
	// Per (backend, family): longevity must beat hints-off on both WA and
	// wear gap for the experiment's thesis to hold; surface it either way.
	per := len(sos.Placements())
	for i := 0; i+per <= len(specs); i += per {
		off, longevity := vals[i], vals[i+per-1]
		spec := specs[i]
		verdict := "improves"
		if longevity.wa >= off.wa || longevity.wearGap >= off.wearGap {
			verdict = "DOES NOT improve"
		}
		notes = append(notes, fmt.Sprintf(
			"%s/%s: longevity %s on hints-off — WA %.3f -> %.3f, wear gap %.4f -> %.4f",
			spec.backend, spec.family.name, verdict,
			off.wa, longevity.wa, off.wearGap, longevity.wearGap))
		if !off.identical || !longevity.identical {
			notes = append(notes, fmt.Sprintf(
				"WARNING: %s/%s not byte-identical across concurrency", spec.backend, spec.family.name))
		}
	}
	return &Result{
		ID: "E19", Title: "longevity-predicted placement and dead-data-aware GC",
		Tables: []*metrics.Table{t},
		Notes:  notes,
	}, nil
}
