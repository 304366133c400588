package core_test

import (
	"fmt"
	"log"

	"wlanscale/internal/core"
)

// ExampleNewStudy simulates a small fleet, runs the measurement
// pipeline over two one-week epochs, and prints the study's headline
// numbers: fleet growth (Table 3), band usage and SNR (Fig. 1), link
// delivery (Fig. 3) and channel utilization (Fig. 6).
//
//	go test ./internal/core -run ExampleNewStudy -v
func ExampleNewStudy() {
	cfg := core.DefaultConfig()
	cfg.UsageNetworks = 40
	cfg.ClientCap = 150
	cfg.LinkNetworks = 40
	cfg.UtilAPs = 60
	cfg.ScanAPs = 50

	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Simulating two one-week measurement epochs...")
	now, err := study.RunUsageEpoch(study.Fleet15)
	if err != nil {
		log.Fatal(err)
	}
	before, err := study.RunUsageEpoch(study.Fleet14)
	if err != nil {
		log.Fatal(err)
	}

	t3 := core.Table3UsageByOS(now, before)
	fmt.Printf("\nFleet totals (scaled to the paper's 20,667 networks):\n")
	fmt.Printf("  clients:    %.2fM (%+.0f%% YoY)\n", t3.All.Clients/1e6, t3.All.ClientsIncrease*100)
	fmt.Printf("  usage:      %.0f TB/week (%+.0f%% YoY)\n", t3.All.TB, t3.All.TBIncrease*100)
	fmt.Printf("  per client: %.0f MB/week (%+.0f%% YoY)\n", t3.All.MBPerClient, t3.All.MBIncrease*100)

	f1 := core.Figure1RSSI(now)
	fmt.Printf("\nBand usage: %.0f%% of clients on 2.4 GHz even though %.0f%% are 5 GHz-capable\n",
		f1.Fraction24()*100, f1.CapableFiveGHz*100)
	fmt.Printf("Median client SNR: %.0f dB\n", f1.RSSI24.Median())

	fig3 := study.RunFigure3()
	fmt.Printf("\nLink delivery (2.4 GHz): %.0f%% of links intermediate (5-95%%), median ratio %.2f\n",
		core.IntermediateFraction(fig3.Now24, 0.05, 0.95)*100, fig3.Now24.Median())

	fig6, err := study.RunFigure6()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Channel utilization (2.4 GHz): median %.0f%%, 90th percentile %.0f%%\n",
		fig6.Util24.Median()*100, fig6.Util24.Quantile(0.9)*100)

	// Output:
	// Simulating two one-week measurement epochs...
	//
	// Fleet totals (scaled to the paper's 20,667 networks):
	//   clients:    1.88M (+12% YoY)
	//   usage:      597 TB/week (+20% YoY)
	//   per client: 318 MB/week (+7% YoY)
	//
	// Band usage: 71% of clients on 2.4 GHz even though 65% are 5 GHz-capable
	// Median client SNR: 27 dB
	//
	// Link delivery (2.4 GHz): 94% of links intermediate (5-95%), median ratio 0.71
	// Channel utilization (2.4 GHz): median 24%, 90th percentile 63%
}
