// Command carbonreport regenerates the paper's §3 carbon arithmetic:
// base-year emissions, the 2021-2030 projection, carbon-credit pricing,
// and the density gains of the SOS layout — plus a fleet what-if.
//
// Usage:
//
//	carbonreport
//	carbonreport -devices 1500000000 -capacity 128
//	carbonreport -growth 0.25 -density 4 -shareboost 1.5
//	carbonreport -capacities 64,128,256,512 -parallel 0
//	carbonreport -fleet-shards 64 -fleet-days 7 -backend zns
//	carbonreport -metrics
//	carbonreport -trace marks.jsonl
//
// -capacities adds a fleet sweep across device capacities, fanned out
// over -parallel workers (0 = all cores). The sweep table is identical
// for every worker count: rows are computed independently and emitted
// in capacity order. -fleet-shards adds a simulated fleet section: a
// real sos.Fleet (the engine behind `sossim -serve`) is advanced
// -fleet-days and its carbon and wear distributions are reported —
// byte-identical at every -parallel. -metrics replaces the human report
// with the same numbers in the Prometheus text exposition format;
// -trace records one milestone event per report section as JSON lines.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"sos"
	"sos/internal/carbon"
	"sos/internal/flash"
	"sos/internal/metrics"
	"sos/internal/obs"
	"sos/internal/parallel"
)

func main() {
	var opts reportOpts
	flag.Int64Var(&opts.Devices, "devices", 1_400_000_000, "annual personal-device fleet for the what-if")
	flag.Float64Var(&opts.Capacity, "capacity", 128, "device capacity in GB")
	flag.Float64Var(&opts.Growth, "growth", 0.30, "annual data growth rate")
	flag.Float64Var(&opts.Density, "density", 4.0, "density gain multiple by the horizon")
	flag.Float64Var(&opts.ShareBoost, "shareboost", 2.0, "flash share-of-storage growth by the horizon")
	flag.StringVar(&opts.Baseline, "baseline", "tlc", "fleet baseline technology: tlc|qlc")
	flag.StringVar(&opts.Capacities, "capacities", "", "comma-separated GB list for a fleet capacity sweep")
	flag.IntVar(&opts.Parallel, "parallel", 1, "worker goroutines for the capacity sweep and fleet simulation (0 = all cores)")
	// Same parser as sossim's -backend (sos.Backend's TextUnmarshaler),
	// so both CLIs accept exactly the same name set.
	flag.TextVar(&opts.Backend, "backend", sos.BackendFTL, "translation layer for the fleet simulation: ftl|zns")
	flag.IntVar(&opts.FleetShards, "fleet-shards", 0, "simulate a real device fleet with this many shards (0 = off)")
	flag.IntVar(&opts.FleetDays, "fleet-days", 7, "with -fleet-shards: simulated days to advance the fleet")
	flag.Uint64Var(&opts.FleetSeed, "fleet-seed", 21, "with -fleet-shards: fleet seed")
	flag.BoolVar(&opts.Metrics, "metrics", false, "print the Prometheus text exposition instead of the report")
	flag.StringVar(&opts.TraceFile, "trace", "", "write milestone events (JSON lines) to this file")
	flag.Parse()
	fail(run(opts, os.Stdout))
}

// reportOpts parameterizes one report.
type reportOpts struct {
	Devices    int64
	Capacity   float64
	Growth     float64
	Density    float64
	ShareBoost float64
	Baseline   string
	Capacities string
	Parallel   int
	// Backend/FleetShards/FleetDays/FleetSeed parameterize the simulated
	// fleet section (FleetShards 0 = off).
	Backend     sos.Backend
	FleetShards int
	FleetDays   int
	FleetSeed   uint64
	Metrics     bool
	TraceFile   string
}

func run(opts reportOpts, out io.Writer) error {
	// The recorder stamps report milestones; carbonreport has no
	// simulation clock, so events carry At == 0 and Aux identifies the
	// section (projection year, sweep capacity).
	var rec *obs.Recorder
	if opts.TraceFile != "" {
		rec = obs.New(obs.Config{})
	}
	exp := obs.NewExposition()

	// Base year.
	mt := carbon.EmissionsMt(carbon.BaseProductionEB2021, carbon.KgCO2ePerGB)
	if !opts.Metrics {
		fmt.Fprintf(out, "2021 flash production: %.0f EB -> %.1f Mt CO2e (= %.1fM people)\n\n",
			carbon.BaseProductionEB2021, mt, carbon.PeopleEquivalent(mt)/1e6)
	}
	exp.Gauge("carbon_base_production_eb", "2021 flash production in exabytes.", carbon.BaseProductionEB2021)
	exp.Gauge("carbon_base_emissions_mt", "2021 flash production emissions in Mt CO2e.", mt)
	rec.Record(obs.Event{Kind: obs.EvMark, Aux: 2021})

	// Projection.
	p := carbon.DefaultProjection()
	p.DataGrowth = opts.Growth
	p.DensityGainByHorizon = opts.Density
	p.ShareBoostByHorizon = opts.ShareBoost
	tab, err := p.Table()
	if err != nil {
		return err
	}
	t := &metrics.Table{Header: []string{"year", "EB", "Mt_CO2e", "people_M", "wafer_x"}}
	for _, pt := range tab {
		t.AddRow(pt.Year, pt.ProductionEB, pt.EmissionsMt, pt.PeopleEquiv/1e6, pt.WaferGrowth)
		year := strconv.Itoa(pt.Year)
		exp.LabeledGauge("carbon_projected_production_eb", "Projected flash production by year, in exabytes.", "year", year, pt.ProductionEB)
		exp.LabeledGauge("carbon_projected_emissions_mt", "Projected flash emissions by year, in Mt CO2e.", "year", year, pt.EmissionsMt)
		rec.Record(obs.Event{Kind: obs.EvMark, Aux: int64(pt.Year)})
	}
	if !opts.Metrics {
		fmt.Fprintln(out, t)
	}

	// Credits.
	c := carbon.DefaultCreditModel()
	if !opts.Metrics {
		fmt.Fprintf(out, "carbon credits: $%.0f/t x %.2f kg/GB = $%.2f/TB = %.0f%% of a $%.0f/TB SSD\n\n",
			c.PricePerTonne, carbon.KgCO2ePerGB, c.TaxPerTB(), c.TaxFraction()*100, c.SSDPricePerTB)
	}
	exp.Gauge("carbon_credit_tax_per_tb_dollars", "Carbon credit cost per TB in dollars.", c.TaxPerTB())
	exp.Gauge("carbon_credit_tax_fraction", "Carbon credit cost as a fraction of SSD price.", c.TaxFraction())

	// Fleet what-if.
	base, err := parseBaseline(opts.Baseline)
	if err != nil {
		return err
	}
	bkg, skg, saved, err := carbon.FleetSavings(opts.Devices, opts.Capacity, base)
	if err != nil {
		return err
	}
	if !opts.Metrics {
		fmt.Fprintf(out, "fleet what-if: %d devices x %.0f GB\n", opts.Devices, opts.Capacity)
		fmt.Fprintf(out, "  %s baseline: %.2f Mt CO2e\n", base, bkg/1e9)
		fmt.Fprintf(out, "  SOS split:   %.2f Mt CO2e\n", skg/1e9)
		fmt.Fprintf(out, "  saved:       %.2f Mt CO2e (%.1f%%)\n", (bkg-skg)/1e9, saved*100)
	}
	exp.Gauge("carbon_fleet_baseline_mt", "Fleet embodied carbon under the conventional baseline, Mt CO2e.", bkg/1e9)
	exp.Gauge("carbon_fleet_sos_mt", "Fleet embodied carbon under the SOS layout, Mt CO2e.", skg/1e9)
	exp.Gauge("carbon_fleet_saved_fraction", "Fractional fleet savings of SOS over the baseline.", saved)
	rec.Record(obs.Event{Kind: obs.EvMark, Aux: int64(opts.Capacity)})

	if opts.Capacities != "" {
		caps, err := parseCapacities(opts.Capacities)
		if err != nil {
			return err
		}
		sweep, rows, err := fleetSweep(opts.Devices, caps, base, opts.Parallel)
		if err != nil {
			return err
		}
		if !opts.Metrics {
			fmt.Fprintf(out, "\nfleet sweep: %d devices, %s baseline\n%s", opts.Devices, base, sweep)
		}
		for i, r := range rows {
			gb := strconv.FormatFloat(caps[i], 'g', -1, 64)
			exp.LabeledGauge("carbon_sweep_saved_fraction", "Fractional fleet savings by device capacity in GB.", "capacity_gb", gb, r.savedFrac)
			rec.Record(obs.Event{Kind: obs.EvMark, Aux: int64(caps[i])})
		}
	}

	if opts.FleetShards > 0 {
		if err := fleetSim(opts, exp, rec, out); err != nil {
			return err
		}
	}

	if opts.TraceFile != "" {
		f, err := os.Create(opts.TraceFile)
		if err != nil {
			return err
		}
		if err := obs.WriteEventsJSON(f, rec.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if opts.Metrics {
		_, err := exp.WriteTo(out)
		return err
	}
	return nil
}

func parseBaseline(s string) (flash.Tech, error) {
	switch s {
	case "tlc":
		return flash.TLC, nil
	case "qlc":
		return flash.QLC, nil
	default:
		return 0, fmt.Errorf("unknown baseline %q", s)
	}
}

// parseCapacities parses a comma-separated list of capacities in GB.
func parseCapacities(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	caps := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad capacity %q", p)
		}
		caps = append(caps, v)
	}
	if len(caps) == 0 {
		return nil, fmt.Errorf("empty capacity list")
	}
	return caps, nil
}

// sweepRow is one fleet-sweep result.
type sweepRow struct {
	baseMt, sosMt, savedFrac float64
}

// fleetSweep computes FleetSavings for each capacity on a bounded worker
// pool; rows come back in input order regardless of worker count.
func fleetSweep(devices int64, caps []float64, base flash.Tech, workers int) (*metrics.Table, []sweepRow, error) {
	rows, err := parallel.Map(len(caps), workers, func(i int) (sweepRow, error) {
		bkg, skg, saved, err := carbon.FleetSavings(devices, caps[i], base)
		if err != nil {
			return sweepRow{}, err
		}
		return sweepRow{bkg / 1e9, skg / 1e9, saved}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	t := &metrics.Table{Header: []string{"GB_per_device", "baseline_Mt", "sos_Mt", "saved_%"}}
	for i, r := range rows {
		t.AddRow(caps[i], r.baseMt, r.sosMt, r.savedFrac*100)
	}
	return t, rows, nil
}

// fleetSim runs a real simulated fleet — the same engine `sossim
// -serve` hosts — and reports its carbon and wear distributions. Shard
// seeds split before dispatch and aggregation runs in shard-index
// order, so the section is byte-identical at every -parallel value.
func fleetSim(opts reportOpts, exp *obs.Exposition, rec *obs.Recorder, out io.Writer) error {
	f, err := sos.NewFleet(sos.FleetConfig{
		Shards:         opts.FleetShards,
		Seed:           opts.FleetSeed,
		Backend:        opts.Backend,
		Workers:        opts.Parallel,
		AgeMixDays:     []int{0, 30, 90},
		StormEvery:     8,
		StragglerEvery: 16,
	})
	if err != nil {
		return err
	}
	rep, err := f.Advance(opts.FleetDays)
	if err != nil {
		return err
	}
	if !opts.Metrics {
		fmt.Fprintf(out, "\nfleet simulation: %d shards x %d days (%s backend, seed %d)\n",
			opts.FleetShards, opts.FleetDays, opts.Backend, opts.FleetSeed)
		fmt.Fprintf(out, "  embodied: %.6f kg vs %.6f kg baseline -> saved %.1f%%\n",
			rep.Carbon.EmbodiedKg, rep.Carbon.BaselineKg, rep.Carbon.SavedFrac*100)
		fmt.Fprintf(out, "  expired devices: %d of %d\n", rep.Totals.Expired, rep.Shards)
		t := &metrics.Table{Header: []string{"metric", "min", "p50", "p90", "p99", "max"}}
		for _, row := range []struct {
			name string
			q    sos.FleetQuantiles
		}{
			{"write_amp", rep.Dist.WriteAmp},
			{"max_wear_frac", rep.Dist.MaxWearFrac},
			{"used_frac", rep.Dist.UsedFrac},
			{"auto_deleted", rep.Dist.AutoDeleted},
		} {
			t.AddRow(row.name, row.q.Min, row.q.P50, row.q.P90, row.q.P99, row.q.Max)
		}
		fmt.Fprintln(out, t)
	}
	exp.Gauge("carbon_fleetsim_shards", "Simulated fleet shard population.", float64(rep.Shards))
	exp.Gauge("carbon_fleetsim_expired", "Simulated fleet devices that wore out.", float64(rep.Totals.Expired))
	exp.Gauge("carbon_fleetsim_saved_fraction", "Embodied-carbon saving fraction of the simulated fleet.", rep.Carbon.SavedFrac)
	for _, p := range []struct {
		label string
		v     float64
	}{
		{"min", rep.Dist.WriteAmp.Min}, {"p50", rep.Dist.WriteAmp.P50},
		{"p90", rep.Dist.WriteAmp.P90}, {"p99", rep.Dist.WriteAmp.P99},
		{"max", rep.Dist.WriteAmp.Max},
	} {
		exp.GaugeKV("carbon_fleetsim_write_amp", "Per-shard write amplification quantiles.", p.v,
			obs.Label{Name: "q", Value: p.label})
	}
	rec.Record(obs.Event{Kind: obs.EvMark, Aux: int64(opts.FleetShards)})
	return nil
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "carbonreport:", err)
		os.Exit(1)
	}
}
