// Command merakireport regenerates every table and figure of the paper
// from a fresh simulation run. By default it runs at laptop scale;
// -scale full uses the paper's populations (20,667 networks, 10,000 APs
// per hardware study) and takes correspondingly longer.
//
// Usage:
//
//	merakireport [-seed N] [-scale small|medium|full] [-only exp1,exp2] [-timings]
//	merakireport -cluster 127.0.0.1:7772,127.0.0.1:7782
//	merakireport -cluster 127.0.0.1:7772,127.0.0.1:7782 -watch
//	merakireport -cluster OLDADDRS -rebalance NEWADDRS [-rebalance-token T]
//
// The second form skips simulation and reports on a live sharded
// cluster instead: every shard's status plus the scatter-gathered
// merged digest, with down shards flagged rather than fatal.
//
// -rebalance live-migrates the cluster from the -cluster topology to
// the new one: every network whose jump-map home changes is parted on
// its source, streamed to its destination, digest-verified there, and
// only then dropped from the source — the OPERATIONS.md §4 runbook in
// one command. Exit status is nonzero if the verify gate rolled the
// migration back.
//
// -watch turns the cluster report into a periodically refreshing
// terminal dashboard: one line per shard (up/down, device pool, ingest
// totals and rate, WAL flush p99, degraded latch, firing alerts — the
// merakid "watch" query), refreshed every -watch-every. Down shards
// show as DOWN lines rather than killing the watch, so the dashboard
// rides through an outage. -watch-count bounds the refreshes (0 =
// until interrupted; a finite count also skips the screen-clear, which
// is what the merakid monitoring test scrapes).
//
// The experiments are core.Experiments: table1 … table7 and fig1 …
// fig11, printed in that table's order whatever the order of -only; an
// unknown -only name exits 2.
//
// -timings prints an end-of-run summary to stderr: wall-clock per
// simulation/render stage plus the epoch pipeline's metrics. Timing is
// observe-only, so the rendered tables are bit-identical with and
// without it. -trace-sample records the usage-epoch span chains of
// that fraction of reports into a flight recorder, dumped as JSON at
// exit (-trace-out or stderr); like timing it never changes output.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"wlanscale/internal/cluster"
	"wlanscale/internal/core"
	"wlanscale/internal/meshprobe"
	"wlanscale/internal/obs"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry"
)

func main() {
	seed := flag.Uint64("seed", 1, "simulation seed")
	clusterAddrs := flag.String("cluster", "", "comma-separated shard query addresses: report on a live sharded cluster (status + merged digest) instead of simulating")
	rebalance := flag.String("rebalance", "", "with -cluster: comma-separated query addresses of the NEW topology; live-migrate every network whose shard-map home changes from the -cluster topology, with a digest-verified cutover")
	rebalanceToken := flag.String("rebalance-token", "", "migration token for -rebalance (default derived from the shard counts); re-use a crashed run's token to resume it, pick a fresh one after a verify rollback")
	watch := flag.Bool("watch", false, "with -cluster: refreshing per-shard dashboard (up/degraded, ingest rates, WAL latency, firing alerts) instead of a one-shot report")
	watchEvery := flag.Duration("watch-every", 2*time.Second, "dashboard refresh cadence for -watch")
	watchCount := flag.Int("watch-count", 0, "number of -watch refreshes before exiting (0 = until interrupted)")
	scale := flag.String("scale", "small", "simulation scale: small, medium, or full")
	only := flag.String("only", "", "comma-separated experiment list (default: all)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "parallel usage-epoch workers; results are identical for any value")
	wire := flag.String("wire", "v1", "harvest wire version the usage pipeline round-trips reports through: v1 or v2 (tables are identical)")
	timings := flag.Bool("timings", false, "print an end-of-run stage-timing summary to stderr")
	traceSample := flag.Float64("trace-sample", 0, "fraction of usage-epoch reports to trace end to end (0 = off)")
	traceOut := flag.String("trace-out", "", "flight-recorder dump path (default stderr when tracing)")
	flag.Parse()

	if *clusterAddrs != "" {
		var err error
		switch {
		case *rebalance != "":
			err = runRebalance(*clusterAddrs, *rebalance, *rebalanceToken)
		case *watch:
			err = runWatch(*clusterAddrs, *watchEvery, *watchCount)
		default:
			err = runCluster(*clusterAddrs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *watch || *rebalance != "" {
		fmt.Fprintln(os.Stderr, "merakireport: -watch and -rebalance need -cluster addresses")
		os.Exit(2)
	}

	var timer *obs.Timer
	cfg := core.DefaultConfig()
	if *timings {
		timer = obs.NewTimer()
		cfg.Obs = obs.NewRegistry()
	}
	if *traceSample > 0 {
		cfg.Trace = trace.New(trace.NewRecorder(1<<16), *seed, *traceSample)
	}
	cfg.Seed = *seed
	cfg.Workers = *workers
	wireVer, err := telemetry.ParseWire(*wire)
	if err != nil {
		fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
		os.Exit(2)
	}
	cfg.WireVersion = int(wireVer)
	switch *scale {
	case "small":
	case "medium":
		cfg.UsageNetworks = 800
		cfg.ClientCap = 1500
		cfg.LinkNetworks = 800
		cfg.LinkWindows = 300
		cfg.UtilAPs = 2000
		cfg.ScanAPs = 1500
	case "full":
		cfg = cfg.Full()
		cfg.Seed = *seed
		cfg.Workers = *workers
		cfg.Sampling = meshprobe.BinomialApprox
	default:
		fmt.Fprintf(os.Stderr, "merakireport: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	exps, err := selectExperiments(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg, exps, timer, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
		os.Exit(1)
	}
	if s := timer.Summary(); s != "" {
		fmt.Fprintf(os.Stderr, "\nstage timings:\n%s", s)
	}
	if cfg.Obs != nil {
		fmt.Fprintln(os.Stderr, "\npipeline metrics:")
		cfg.Obs.WriteText(os.Stderr)
	}
	if cfg.Trace != nil {
		w := os.Stderr
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			w = f
		}
		if err := cfg.Trace.Recorder().DumpJSON(w, "end-of-run"); err != nil {
			fmt.Fprintf(os.Stderr, "merakireport: %v\n", err)
			os.Exit(1)
		}
	}
}

// runCluster is the -cluster mode: scatter-gather over a live sharded
// merakid fleet, printing each shard's status and the merged cluster
// digest. Down shards degrade the report rather than kill it — the
// surviving shards' status and a partial digest still print, with the
// casualties called out — and the exit status stays zero so a watch
// loop keeps reporting through an outage.
func runCluster(addrList string) error {
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	r := &cluster.Router{Shards: addrs}
	fmt.Printf("cluster: %d shard(s)\n", len(addrs))
	for _, rep := range r.Fanout("status") {
		fmt.Printf("\n[shard %d %s]\n", rep.Shard, rep.Addr)
		if rep.Err != nil {
			fmt.Printf("DOWN: %v\n", rep.Err)
			continue
		}
		for _, ln := range rep.Lines {
			fmt.Println(ln)
		}
	}
	dig, err := r.MergedDigest()
	if err != nil {
		return fmt.Errorf("merged digest: %w", err)
	}
	fmt.Printf("\ncluster digest %s\n", dig.Digest)
	fmt.Printf("shards=%d up=%d down=%v degraded=%t\n",
		dig.Shards, dig.Shards-len(dig.Down), dig.Down, dig.Degraded)
	return nil
}

// runRebalance is the -rebalance driver: run the live-migration
// coordinator from the operator's machine, moving every network whose
// jump-map home differs between the -cluster (old) and -rebalance
// (new) topologies. Progress streams to stderr; the summary — token,
// moved count, per-pair transfers, slice digest, post-cutover merged
// digest — prints to stdout. A non-nil error (verify-gate rollback
// included) exits nonzero so scripts can gate on it.
func runRebalance(oldList, newList, token string) error {
	split := func(s string) []string {
		parts := strings.Split(s, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	oldAddrs, newAddrs := split(oldList), split(newList)
	if token == "" {
		token = fmt.Sprintf("rebalance-%dto%d", len(oldAddrs), len(newAddrs))
	}
	rep, err := cluster.Rebalance(oldAddrs, newAddrs, cluster.RebalanceOptions{
		Token: token,
		Log: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		return err
	}
	fmt.Printf("rebalance token=%s shards %d -> %d\n", rep.Token, rep.OldShards, rep.NewShards)
	fmt.Printf("moved networks=%d transfers=%d\n", rep.MovedNetworks, len(rep.Transfers))
	for _, tr := range rep.Transfers {
		fmt.Printf("  shard %d -> shard %d: %d network(s)\n", tr.Src, tr.Dst, len(tr.Networks))
	}
	if rep.MovedNetworks > 0 {
		fmt.Printf("slice digest %s (verified on destinations)\n", rep.SliceDigest)
	}
	fmt.Printf("cluster digest %s\n", rep.Full.Digest)
	fmt.Printf("shards=%d up=%d down=%v degraded=%t\n",
		rep.Full.Shards, rep.Full.Shards-len(rep.Full.Down), rep.Full.Down, rep.Full.Degraded)
	if rep.MovedNetworks > 0 {
		fmt.Println("next: re-run until moved=0, then flip agents to the new topology (see OPERATIONS.md)")
	}
	return nil
}

// runWatch is the -watch dashboard loop: every refresh it
// scatter-gathers the one-line "watch" summary from every shard and
// prints a fleet header plus one line per shard — up shards their
// summary (devices, ingest totals and rate, WAL flush p99, degraded
// latch, firing alerts), down shards a DOWN line. Interactive runs
// (count=0) clear the terminal between refreshes; finite counts print
// append-only so the output is scrapeable.
func runWatch(addrList string, every time.Duration, count int) error {
	addrs := strings.Split(addrList, ",")
	for i := range addrs {
		addrs[i] = strings.TrimSpace(addrs[i])
	}
	// A dashboard wants freshness over persistence: one attempt per
	// shard per refresh, the next refresh is the retry.
	r := &cluster.Router{Shards: addrs, Timeout: 2 * time.Second, Retries: -1}
	for i := 0; count == 0 || i < count; i++ {
		if i > 0 {
			time.Sleep(every)
		}
		if count == 0 {
			fmt.Print("\033[H\033[2J")
		}
		replies := r.Fanout("watch")
		down := cluster.DownShards(replies)
		fmt.Printf("fleet watch %s refresh=%s shards=%d up=%d down=%v\n",
			time.Now().UTC().Format(time.RFC3339), every, len(replies), len(replies)-len(down), down)
		for _, rep := range replies {
			if rep.Err != nil {
				fmt.Printf("shard=%d/%d DOWN: %v\n", rep.Shard, len(replies), rep.Err)
				continue
			}
			for _, ln := range rep.Lines {
				fmt.Println(ln)
			}
		}
	}
	return nil
}

// selectExperiments resolves the -only list against core.Experiments,
// in the table's order whatever the list's; "" selects every one.
func selectExperiments(only string) ([]core.Experiment, error) {
	if only == "" {
		return core.Experiments, nil
	}
	known := make(map[string]bool)
	var names []string
	for _, e := range core.Experiments {
		known[e.Name] = true
		names = append(names, e.Name)
	}
	want := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		if name = strings.TrimSpace(name); name != "" && !known[name] {
			return nil, fmt.Errorf("unknown experiment %q in -only (known: %s)", name, strings.Join(names, " "))
		}
		want[name] = true
	}
	var exps []core.Experiment
	for _, e := range core.Experiments {
		if want[e.Name] {
			exps = append(exps, e)
		}
	}
	return exps, nil
}

// run simulates one study at cfg and prints every experiment of exps
// under its heading on stdout; progress lines go to stderr.
func run(cfg core.Config, exps []core.Experiment, timer *obs.Timer, stdout, stderr io.Writer) error {
	sp := timer.Start("build-fleets")
	study, err := core.NewStudy(cfg)
	sp.End()
	if err != nil {
		return err
	}
	r := &core.Run{Study: study, Progress: stderr, Timer: timer}
	for _, e := range exps {
		out, err := r.Render(e)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\n%s\n%s\n%s", e.Title, strings.Repeat("=", len(e.Title)), out)
	}
	return nil
}
