// Benchmark harness: one sub-benchmark per table and figure of the
// paper, each printing the rows/series it regenerates on its first run,
// plus the concurrency and ablation benches DESIGN.md calls out. Run
// with:
//
//	go test -bench=. -benchmem
package wlanscale_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"wlanscale/internal/airtime"
	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/client"
	"wlanscale/internal/core"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/meshprobe"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/health"
	"wlanscale/internal/obs/series"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/rf"
	"wlanscale/internal/rng"
	"wlanscale/internal/stats"
	"wlanscale/internal/telemetry"
)

// printOnce guards each experiment's row dump so -bench output contains
// one copy of every reproduced table/figure.
var printed sync.Map

func printOnce(key, out string) {
	if _, loaded := printed.LoadOrStore(key, true); !loaded {
		fmt.Printf("\n%s\n", out)
	}
}

// BenchmarkExperiments regenerates every table and figure of the paper,
// one sub-benchmark per entry of core.Experiments, named after it
// (BenchmarkExperiments/table5). The fixture is seed 2026 at the default
// scale: large enough for stable distributions, small enough that the
// whole suite finishes in minutes. The simulations several experiments
// share — both usage epochs, both neighbour scans — run once, off the
// clock, so each sub-benchmark times what its experiment adds: an
// aggregation over the shared results, or a simulation of its own.
func BenchmarkExperiments(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Seed = 2026
	study, err := core.NewStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	run := &core.Run{Study: study}
	for _, e := range core.Experiments {
		b.Run(e.Name, func(b *testing.B) {
			out, err := run.Render(e) // runs any shared simulation off the clock
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if out, err = run.Render(e); err != nil {
					b.Fatal(err)
				}
			}
			printOnce(e.Name, out)
		})
	}
}

// ---- Concurrency benches (DESIGN.md §7). ----

// BenchmarkRunUsageEpoch measures the parallel usage-epoch pipeline on
// the bench fixture (seed 2026, 120 networks). "workers=max" sizes the
// pool to GOMAXPROCS, so running with -cpu 1,4,8 produces the scaling
// curve; equivalence of outputs across worker counts is pinned by
// TestRunUsageEpochWorkerEquivalence. Each iteration needs a fresh
// study (AP pipelines accumulate state), so setup runs off the clock.
//
// The obs=off/obs=on pair is the observability overhead guard: off runs
// with the nil (no-op) registry, on with a live obs.Registry attached.
// EXPERIMENTS.md records the measured delta; the budget is <2%.
//
// The trace=off/1%/100% trio guards the tracing overhead the same way:
// off is the nil tracer, 1% the production sampling rate (budget <3%
// over off, per ISSUE 4), 100% the worst case merakid -trace-sample
// 1.0 can configure. Each traced iteration gets a fresh recorder so
// ring contents never carry across runs.
//
// The series=on arm adds the PR-9 stack on top of obs=on: a series
// recorder sampling the registry plus the default health rules
// evaluating, on a 100ms cadence concurrent with the run — an order of
// magnitude hotter than merakid's 15s default, so the measured delta
// over obs=on bounds production overhead from above (budget <3%, per
// ISSUE 9; EXPERIMENTS.md records the measurement).
func BenchmarkRunUsageEpoch(b *testing.B) {
	run := func(b *testing.B, workers int, reg *obs.Registry, sample float64, seriesOn bool) {
		cfg := core.DefaultConfig()
		cfg.Seed = 2026
		cfg.Obs = reg
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if sample > 0 {
				cfg.Trace = trace.New(trace.NewRecorder(1<<16), cfg.Seed, sample)
			}
			study, err := core.NewStudy(cfg)
			if err != nil {
				b.Fatal(err)
			}
			var stop chan struct{}
			var looped <-chan struct{}
			if seriesOn {
				rec := series.NewRecorder(reg, series.Options{Cap: 64})
				eng := health.NewEngine(rec, health.DefaultRules(2, 2))
				stop = make(chan struct{})
				done := make(chan struct{})
				looped = done
				go func() {
					defer close(done)
					t := time.NewTicker(100 * time.Millisecond)
					defer t.Stop()
					for {
						select {
						case <-stop:
							return
						case now := <-t.C:
							rec.Sample(now)
							eng.Eval(now)
						}
					}
				}()
			}
			b.StartTimer()
			_, err = study.RunUsageEpochWorkers(study.Fleet15, workers)
			b.StopTimer()
			if seriesOn {
				close(stop)
				<-looped
			}
			b.StartTimer()
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	max := runtime.GOMAXPROCS(0)
	b.Run("workers=1", func(b *testing.B) { run(b, 1, nil, 0, false) })
	b.Run("workers=max", func(b *testing.B) { run(b, max, nil, 0, false) })
	b.Run("workers=max/obs=off", func(b *testing.B) { run(b, max, nil, 0, false) })
	b.Run("workers=max/obs=on", func(b *testing.B) { run(b, max, obs.NewRegistry(), 0, false) })
	b.Run("workers=max/series=on", func(b *testing.B) { run(b, max, obs.NewRegistry(), 0, true) })
	b.Run("workers=max/trace=off", func(b *testing.B) { run(b, max, nil, 0, false) })
	b.Run("workers=max/trace=1pct", func(b *testing.B) { run(b, max, nil, 0.01, false) })
	b.Run("workers=max/trace=100pct", func(b *testing.B) { run(b, max, nil, 1.0, false) })
}

// BenchmarkStoreIngest measures parallel report ingestion into one
// store — the contention on its single lock along the harvest path.
// Reports are pre-built off the clock; -cpu 1,2,4 sweeps the ingester
// count.
func BenchmarkStoreIngest(b *testing.B) {
	const nDevices = 256
	reports := make([]*telemetry.Report, nDevices)
	root := rng.New(2026)
	for n := range reports {
		src := root.SplitN("ingest", n)
		clients := make([]telemetry.ClientRecord, 8)
		for c := range clients {
			clients[c] = telemetry.ClientRecord{
				MAC:    dot11.MAC{0xac, 0xbc, 0x32, byte(n), byte(c), 1},
				Band:   dot11.Band24,
				RSSIdB: int32(5 + src.IntN(40)),
				Apps: []telemetry.AppUsageRecord{
					{App: "Netflix", UpBytes: src.Uint64() % 1e6, DownBytes: src.Uint64() % 1e8, Flows: 3},
					{App: "YouTube", UpBytes: src.Uint64() % 1e6, DownBytes: src.Uint64() % 1e8, Flows: 2},
				},
			}
		}
		reports[n] = &telemetry.Report{
			Serial:  fmt.Sprintf("Q2XX-%04d", n),
			Clients: clients,
			Radios: []telemetry.RadioStats{
				{Band: dot11.Band24, Channel: 6, CycleUS: 1000, RxClearUS: 300, Rx11US: 120, TxUS: 40},
			},
		}
	}
	store := backend.NewStore()
	var next atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)-1) % nDevices
			store.Ingest(reports[i])
		}
	})
}

// ---- Ablation benches (DESIGN.md §4). ----

// BenchmarkAblation_HardThreshold contrasts the soft SINR->PER delivery
// curve with a hard RSSI threshold. The hard threshold cannot produce
// the intermediate-delivery mass that dominates Figure 3.
func BenchmarkAblation_HardThreshold(b *testing.B) {
	measure := func(hard bool) (intermediate float64) {
		root := rng.New(99)
		cdf := &stats.CDF{}
		for i := 0; i < 400; i++ {
			d := 20 + root.SplitN("d", i).Float64()*120
			l := meshprobe.New(rf.EnvDrywallOffice, dot11.Band24, d, 26, 0.25, root.SplitN("l", i))
			if l.MedianSNRdB() < 3 {
				continue
			}
			if hard {
				// Hard threshold: the link delivers everything or
				// nothing based on its median SNR.
				if l.MedianSNRdB() >= l.Rate.MinSNRdB {
					cdf.Add(1)
				} else {
					cdf.Add(0)
				}
				continue
			}
			cdf.Add(l.MeanDelivery(20, meshprobe.BinomialApprox))
		}
		return core.IntermediateFraction(cdf, 0.05, 0.95)
	}
	var soft, hard float64
	for i := 0; i < b.N; i++ {
		soft = measure(false)
		hard = measure(true)
	}
	printOnce("abl-hard", fmt.Sprintf(
		"Ablation (delivery model): intermediate-link fraction %.0f%% with the SINR curve vs %.0f%% with a hard RSSI threshold",
		soft*100, hard*100))
}

// BenchmarkAblation_UniformDuty contrasts heavy-tailed per-neighbor
// duty cycles with uniform ones. Uniform duty restores the
// count-to-utilization proportionality that Figures 7/8 rule out.
func BenchmarkAblation_UniformDuty(b *testing.B) {
	measure := func(uniform bool) float64 {
		root := rng.New(5)
		sc := &stats.Scatter{}
		ch6, _ := dot11.ChannelByNumber(dot11.Band24, 6)
		for trial := 0; trial < 400; trial++ {
			tsrc := root.SplitN("t", trial)
			hood := airtime.NewNeighborhood()
			n := tsrc.Poisson(1 + tsrc.Exp(6))
			for i := 0; i < n; i++ {
				hood.Add(airtime.NewBeaconSource(ch6, -55, 2, 0.1))
				if uniform {
					hood.Add(airtime.NewClientTrafficSource(ch6, -55, 0.012, 0.5, tsrc.SplitN("u", i)))
				} else {
					hood.Add(airtime.NewDataSource(ch6, 20, -55, tsrc.SplitN("d", i)))
				}
			}
			obs := hood.ObserveED(ch6, 13)
			sc.Add(float64(n), obs.Busy)
		}
		return sc.Pearson()
	}
	var heavy, uniform float64
	for i := 0; i < b.N; i++ {
		heavy = measure(false)
		uniform = measure(true)
	}
	printOnce("abl-duty", fmt.Sprintf(
		"Ablation (duty model): utilization-vs-count Pearson r = %+.2f with heavy-tailed duty vs %+.2f with uniform duty",
		heavy, uniform))
}

// BenchmarkAblation_ProbeSampling quantifies the accuracy/cost trade of
// the binomial window approximation against per-probe sampling.
func BenchmarkAblation_ProbeSampling(b *testing.B) {
	root := rng.New(31)
	mk := func(i int) *meshprobe.Link {
		d := 20 + root.SplitN("d", i).Float64()*100
		return meshprobe.New(rf.EnvOpenOffice, dot11.Band24, d, 26, 0.25, root.SplitN("l", i))
	}
	var perProbe, binom float64
	b.Run("per-probe", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			perProbe += mk(i % 64).MeasureWindow(meshprobe.PerProbe).Ratio()
		}
	})
	b.Run("binomial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			binom += mk(i % 64).MeasureWindow(meshprobe.BinomialApprox).Ratio()
		}
	})
}

// BenchmarkAblation_RuleOrder measures how inverting the classifier's
// rule order (ports before hostnames) misattributes flows.
func BenchmarkAblation_RuleOrder(b *testing.B) {
	root := rng.New(77)
	classifier := apps.NewClassifier()
	catalog := apps.Catalog()
	var flows []apps.FlowMeta
	var truth []string
	for i := 0; i < 200; i++ {
		dev := client.NewFromMix(epoch.Jan2015, uint64(i), root.SplitN("dev", i))
		for _, fs := range dev.WeeklyFlows(epoch.Jan2015, catalog, root.SplitN("u", i)) {
			flows = append(flows, client.BuildMeta(fs, apps.UserAgentFor(dev.OS)))
			truth = append(truth, fs.App.Name)
		}
	}
	misRate := func(portFirst bool) float64 {
		classifier.PortFirst = portFirst
		defer func() { classifier.PortFirst = false }()
		miss := 0
		for i, m := range flows {
			if got := classifier.Classify(m); got.App != truth[i] && !apps.IsMiscBucket(truth[i]) {
				miss++
			}
		}
		return float64(miss) / float64(len(flows))
	}
	// Also measure classification with hostname metadata stripped (a
	// network where DNS and SNI inspection are unavailable): how much
	// traffic falls out of the named applications into misc buckets.
	blindMiscRate := func() float64 {
		lost := 0
		named := 0
		for i, m := range flows {
			if apps.IsMiscBucket(truth[i]) {
				continue
			}
			named++
			blind := m
			blind.DNSQuery = nil
			blind.ClientHello = nil
			blind.HTTPHead = nil
			if got := classifier.Classify(blind); apps.IsMiscBucket(got.App) {
				lost++
			}
		}
		return float64(lost) / float64(named)
	}
	var hostFirst, portFirst, blind float64
	for i := 0; i < b.N; i++ {
		hostFirst = misRate(false)
		portFirst = misRate(true)
		blind = blindMiscRate()
	}
	printOnce("abl-rules", fmt.Sprintf(
		"Ablation (rule order): named-app misattribution %.2f%% hostname-first vs %.2f%% port-first over %d flows;\n"+
			"without DNS/SNI/HTTP metadata, %.0f%% of named-app traffic collapses into misc buckets",
		hostFirst*100, portFirst*100, len(flows), blind*100))
}
