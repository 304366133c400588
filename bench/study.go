package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wlanscale/internal/core"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
)

// study: the offline reproduction run — what a researcher regenerating
// the paper's tables and figures pays. It runs in a re-exec'd child of
// the bench binary so its memory and CPU are its own. Nearly all of the
// time is synth/client/click/flow/apps simulation and classification
// plus Store.Merge; telemetry, WAL and cluster do almost nothing, so it
// is the bypass workload for every daemon-side optimisation and the
// exercise workload for simulator-side ones.

// studyConfig is what the parent hands the child on its command line.
type studyConfig struct {
	Seed    uint64 `json:"seed"`
	Workers int    `json:"workers"`
	Quick   bool   `json:"quick"`
}

// studyReport is what the child prints: its own measurements of itself,
// the stage spans, and the hash of everything it rendered.
type studyReport struct {
	WorkS   float64 `json:"work_s"`  // both usage epochs → last figure rendered
	CPUS    float64 `json:"cpu_s"`   // utime+stime spent during the work
	RSSMiB  float64 `json:"rss_mib"` // VmHWM at exit
	SHA256  string  `json:"sha256"`  // of the rendered tables and figures
	Reports int     `json:"reports"` // reports the two usage epochs harvested
	Clients int     `json:"clients"` // client aggregates in the two epoch stores
	Flows   int     `json:"flows"`   // flows those clients were seen to make
	Stages  []span  `json:"stages"`
}

func (c studyConfig) coreConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = c.Seed
	cfg.Workers = c.Workers
	cfg.WireVersion = 1 // merakireport's default
	// Many networks under a low client cap, rather than the default's few
	// under a high one: most networks then sit at the cap, so the seed
	// decides who the clients are but hardly how many there are, and runs
	// on different seeds do the same amount of work.
	cfg.UsageNetworks = 400
	cfg.ClientCap = 30
	if c.Quick {
		cfg.UsageNetworks = 6
		cfg.ClientCap = 40
		cfg.LinkNetworks = 8
		cfg.LinkWindows = 6
		cfg.UtilAPs = 12
		cfg.UtilWindows = 4
		cfg.ScanAPs = 10
	}
	return cfg
}

// studyChildMain is the child: it times its own stages from bench code,
// around each exported core call, and prints one studyReport.
func studyChildMain(arg string) int {
	var sc studyConfig
	if err := json.Unmarshal([]byte(arg), &sc); err != nil {
		fmt.Fprintln(os.Stderr, "bench study child:", err)
		return 2
	}
	rep, err := runStudy(sc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench study child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rep); err != nil {
		return 1
	}
	return 0
}

func runStudy(sc studyConfig) (*studyReport, error) {
	tr := newTracer(true)
	var out bytes.Buffer
	section := func(title, body string) {
		fmt.Fprintf(&out, "\n%s\n%s\n%s", title, strings.Repeat("=", len(title)), body)
	}
	root := tr.start("core", "study", -1, 0)
	stage := func(name string, f func() error) error {
		id := tr.start("core", name, root, 0)
		defer tr.end(id)
		return f()
	}

	var study *core.Study
	err := stage("new_study", func() (err error) {
		study, err = core.NewStudy(sc.coreConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &studyReport{}
	workStart := time.Now()
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}

	var now, before *core.UsageEpoch
	if err := stage("usage_epoch15", func() (err error) {
		now, err = study.RunUsageEpoch(study.Fleet15)
		return err
	}); err != nil {
		return nil, err
	}
	if err := stage("usage_epoch14", func() (err error) {
		before, err = study.RunUsageEpoch(study.Fleet14)
		return err
	}); err != nil {
		return nil, err
	}
	for _, u := range []*core.UsageEpoch{now, before} {
		n, _ := u.Store.Stats()
		rep.Reports += n
		for _, c := range u.Store.Clients() {
			rep.Clients++
			for _, a := range c.Apps {
				rep.Flows += int(a.Flows)
			}
		}
	}
	var scanNow, scanBefore *core.NeighborScan
	if err := stage("neighbor_scan", func() (err error) {
		if scanNow, err = study.RunNeighborScan(epoch.Jan2015); err != nil {
			return err
		}
		scanBefore, err = study.RunNeighborScan(epoch.Jul2014)
		return err
	}); err != nil {
		return nil, err
	}
	var fig3 *core.Figure3Result
	stage("fig3", func() error { fig3 = study.RunFigure3(); return nil })
	var fig4, fig5 *core.FigureSeriesResult
	stage("link_series", func() error {
		fig4 = study.RunLinkSeries(dot11.Band24)
		fig5 = study.RunLinkSeries(dot11.Band5)
		return nil
	})
	var fig6 *core.Figure6Result
	if err := stage("fig6", func() (err error) { fig6, err = study.RunFigure6(); return err }); err != nil {
		return nil, err
	}
	var fig7, fig8 *core.ScatterResult
	if err := stage("scatter", func() (err error) {
		if fig7, err = study.RunScatter(dot11.Band24); err != nil {
			return err
		}
		fig8, err = study.RunScatter(dot11.Band5)
		return err
	}); err != nil {
		return nil, err
	}
	var fig9 *core.Figure9Result
	if err := stage("fig9", func() (err error) { fig9, err = study.RunFigure9(); return err }); err != nil {
		return nil, err
	}
	var fig10 *core.Figure10Result
	if err := stage("fig10", func() (err error) { fig10, err = study.RunFigure10(); return err }); err != nil {
		return nil, err
	}
	var fig11 *core.Figure11Result
	if err := stage("fig11", func() (err error) { fig11, err = study.RunFigure11(4); return err }); err != nil {
		return nil, err
	}
	stage("render", func() error {
		apScale := 10000.0 / float64(len(scanNow.PerAP))
		section("Table 1", core.Table1Hardware().Render())
		section("Table 2", core.Table2Industries(study.Fleet15).Render())
		section("Table 3", core.Table3UsageByOS(now, before).Render())
		section("Table 4", core.Table4Capabilities(now, before).Render())
		section("Table 5", core.Table5TopApps(now, before, 40).Render())
		section("Table 6", core.Table6Categories(now, before).Render())
		section("Table 7", core.Table7NearbyNetworks(scanNow, scanBefore, apScale).Render())
		section("Figure 1", core.Figure1RSSI(now).Render())
		section("Figure 2", core.Figure2NearbyByChannel(scanNow, apScale).Render())
		section("Figure 3", fig3.Render())
		section("Figure 4", fig4.Render())
		section("Figure 5", fig5.Render())
		section("Figure 6", fig6.Render())
		section("Figure 7", fig7.Render())
		section("Figure 8", fig8.Render())
		section("Figure 9", fig9.Render())
		section("Figure 10", fig10.Render())
		section("Figure 11", fig11.Render())
		return nil
	})
	tr.end(root)

	rep.WorkS = time.Since(workStart).Seconds()
	cpu1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return nil, err
	}
	rep.CPUS = cpu1 - cpu0
	if rep.RSSMiB, err = peakRSSMiB(os.Getpid()); err != nil {
		return nil, err
	}
	sum := sha256.Sum256(out.Bytes())
	rep.SHA256 = hex.EncodeToString(sum[:])
	rep.Stages = tr.spans
	return rep, nil
}

// goldenStudyHash reads testdata/study-<seed>.sha256, "" if the seed has
// no golden.
func goldenStudyHash(e *env) (string, error) {
	b, err := os.ReadFile(filepath.Join(e.root, "bench", "testdata", fmt.Sprintf("study-%d.sha256", e.seed)))
	if os.IsNotExist(err) {
		return "", nil
	}
	return strings.TrimSpace(string(b)), err
}

// runStudyChild re-executes the bench binary as the study child and
// returns what it reported plus the parent-observed wall time.
func runStudyChild(e *env) (*studyReport, time.Duration, error) {
	arg, err := json.Marshal(studyConfig{Seed: e.seed, Workers: runtime.NumCPU(), Quick: e.quick})
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(e.logPath("study-child"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	var stdout bytes.Buffer
	cmd := exec.Command(e.self, "-study-child", string(arg))
	cmd.Stdout = &stdout
	cmd.Stderr = logf
	t0 := time.Now()
	p, err := spawn(cmd)
	if err != nil {
		return nil, 0, err
	}
	<-p.done
	wall := time.Since(t0)
	if p.err != nil {
		return nil, 0, fmt.Errorf("study child: %v (see %s)", p.err, e.logPath("study-child"))
	}
	var rep studyReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, 0, fmt.Errorf("study child output: %w", err)
	}
	return &rep, wall, nil
}

func runStudyWorkload(e *env, traced bool) (*result, error) {
	golden, err := goldenStudyHash(e)
	if err != nil {
		return nil, err
	}
	if e.quick {
		golden = "" // the golden is of the full-size run
	}
	var last *studyReport
	rounds, err := runRounds(e, traced, func(i int) (*round, error) {
		rep, wall, err := runStudyChild(e)
		if err != nil {
			return nil, err
		}
		if golden != "" && rep.SHA256 != golden {
			return nil, fmt.Errorf("oracle: rendered tables and figures hash to %s, golden is %s", rep.SHA256, golden)
		}
		if last != nil && rep.SHA256 != last.SHA256 {
			return nil, fmt.Errorf("oracle: two runs of seed %d rendered different output (%s, %s)", e.seed, last.SHA256, rep.SHA256)
		}
		last = rep
		r := &round{
			// Everything that is not the study's work: starting the
			// process and generating the simulated universes.
			setupS: wall.Seconds() - rep.WorkS,
			workS:  rep.WorkS, timedS: rep.WorkS,
			cpuS: rep.CPUS, rssMiB: rep.RSSMiB,
			attempted: 1,
			layer:     make(map[string]float64),
		}
		for _, s := range rep.Stages {
			ms := float64(s.EndNS-s.StartNS) / 1e6
			switch s.Name {
			case "study":
			case "usage_epoch15", "usage_epoch14":
				r.opsMS = append(r.opsMS, ms)
				r.layer["core."+s.Name+"_s"] = ms / 1000
			default:
				r.layer["core."+s.Name+"_ms"] = ms
			}
		}
		r.layer["driver.study_reports"] = float64(rep.Reports)
		r.layer["driver.study_clients"] = float64(rep.Clients)
		r.layer["driver.study_flows"] = float64(rep.Flows)
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	res := aggregate(rounds)
	res.digest = last.SHA256
	fmt.Fprintf(os.Stderr, "study seed %d: rendered tables and figures sha256 %s\n", e.seed, last.SHA256)
	if traced {
		if err := studyTraced(e, last, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}
