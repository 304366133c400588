package core

import (
	"fmt"
	"io"

	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/obs"
)

// input is what an experiment reads besides the Study itself: the
// simulations several experiments share are run once per Run.
type input int

const (
	fleetInput input = iota // the generated fleets only (Tables 1–2)
	usageInput              // both usage epochs (Tables 3–6, Figure 1)
	scanInput               // both neighbour scans (Table 7, Figure 2)
	ownInput                // a simulation of its own (Figures 3–11)
)

// renderer is every experiment's typed result.
type renderer interface{ Render() string }

// Experiment is one table or figure of the paper.
type Experiment struct {
	// Name is the merakireport -only key and the conformance golden's
	// file stem: "table1" … "table7", "fig1" … "fig11".
	Name string
	// Title is the heading merakireport prints the render under.
	Title string

	input input
	// stage times an own-simulation experiment under merakireport
	// -timings; note is the progress line printed before it runs.
	stage, note string
	run         func(*Run) (renderer, error)
}

// Experiments is every table and figure of the paper, in the order
// merakireport prints them: the experiments that share a simulation sit
// together. merakireport, the conformance goldens, the determinism
// checks and the root benchmarks all iterate this table.
var Experiments = []Experiment{
	{Name: "table1", Title: "Table 1", input: fleetInput,
		run: func(*Run) (renderer, error) { return Table1Hardware(), nil }},
	{Name: "table2", Title: "Table 2", input: fleetInput,
		run: func(r *Run) (renderer, error) { return Table2Industries(r.Study.Fleet15), nil }},
	{Name: "table3", Title: "Table 3", input: usageInput,
		run: func(r *Run) (renderer, error) { return Table3UsageByOS(r.now, r.before), nil }},
	{Name: "table4", Title: "Table 4", input: usageInput,
		run: func(r *Run) (renderer, error) { return Table4Capabilities(r.now, r.before), nil }},
	{Name: "table5", Title: "Table 5", input: usageInput,
		run: func(r *Run) (renderer, error) { return Table5TopApps(r.now, r.before, 40), nil }},
	{Name: "table6", Title: "Table 6", input: usageInput,
		run: func(r *Run) (renderer, error) { return Table6Categories(r.now, r.before), nil }},
	{Name: "fig1", Title: "Figure 1", input: usageInput,
		run: func(r *Run) (renderer, error) { return Figure1RSSI(r.now), nil }},
	{Name: "table7", Title: "Table 7", input: scanInput,
		run: func(r *Run) (renderer, error) { return Table7NearbyNetworks(r.scanNow, r.scanBefore, r.apScale()), nil }},
	{Name: "fig2", Title: "Figure 2", input: scanInput,
		run: func(r *Run) (renderer, error) { return Figure2NearbyByChannel(r.scanNow, r.apScale()), nil }},
	{Name: "fig3", Title: "Figure 3", input: ownInput, stage: "links-fig3", note: "measuring link deliveries (two epochs)...",
		run: func(r *Run) (renderer, error) { return r.Study.RunFigure3(), nil }},
	{Name: "fig4", Title: "Figure 4", input: ownInput, stage: "links-fig4",
		run: func(r *Run) (renderer, error) { return r.Study.RunLinkSeries(dot11.Band24), nil }},
	{Name: "fig5", Title: "Figure 5", input: ownInput, stage: "links-fig5",
		run: func(r *Run) (renderer, error) { return r.Study.RunLinkSeries(dot11.Band5), nil }},
	{Name: "fig6", Title: "Figure 6", input: ownInput, stage: "util-fig6", note: "measuring MR16 utilization...",
		run: func(r *Run) (renderer, error) { return r.Study.RunFigure6() }},
	{Name: "fig7", Title: "Figure 7", input: ownInput, stage: "util-fig7",
		run: func(r *Run) (renderer, error) { return r.Study.RunScatter(dot11.Band24) }},
	{Name: "fig8", Title: "Figure 8", input: ownInput, stage: "util-fig8",
		run: func(r *Run) (renderer, error) { return r.Study.RunScatter(dot11.Band5) }},
	{Name: "fig9", Title: "Figure 9", input: ownInput, stage: "util-fig9",
		run: func(r *Run) (renderer, error) { return r.Study.RunFigure9() }},
	{Name: "fig10", Title: "Figure 10", input: ownInput, stage: "util-fig10",
		run: func(r *Run) (renderer, error) { return r.Study.RunFigure10() }},
	{Name: "fig11", Title: "Figure 11", input: ownInput, stage: "spectrum-fig11",
		run: func(r *Run) (renderer, error) { return r.Study.RunFigure11(4) }},
}

// Run regenerates experiments from one Study, running each shared
// simulation — the two usage epochs, the two neighbour scans — the first
// time an experiment needs it and reusing it after. An experiment
// renders the same text whatever else the Run rendered before it
// (TestStudyDeterministic).
type Run struct {
	Study *Study
	// Progress, when set, receives a line before each long simulation.
	Progress io.Writer
	// Timer, when set, times each simulation under its stage name.
	Timer *obs.Timer

	now, before         *UsageEpoch
	scanNow, scanBefore *NeighborScan
}

// Render regenerates one experiment and returns its text.
func (r *Run) Render(e Experiment) (string, error) {
	var err error
	switch {
	case e.input == usageInput && r.now == nil:
		err = r.simulate("simulate-usage", "simulating usage weeks (two epochs)...", func() (err error) {
			if r.now, err = r.Study.RunUsageEpoch(r.Study.Fleet15); err != nil {
				return err
			}
			r.before, err = r.Study.RunUsageEpoch(r.Study.Fleet14)
			return err
		})
	case e.input == scanInput && r.scanNow == nil:
		err = r.simulate("simulate-scans", "scanning AP environments (two epochs)...", func() (err error) {
			if r.scanNow, err = r.Study.RunNeighborScan(epoch.Jan2015); err != nil {
				return err
			}
			r.scanBefore, err = r.Study.RunNeighborScan(epoch.Jul2014)
			return err
		})
	}
	if err != nil {
		return "", err
	}
	var res renderer
	if e.stage == "" {
		res, err = e.run(r)
	} else {
		err = r.simulate(e.stage, e.note, func() (err error) {
			res, err = e.run(r)
			return err
		})
	}
	if err != nil {
		return "", err
	}
	return res.Render(), nil
}

// simulate runs one timed stage, announcing it on Progress first.
func (r *Run) simulate(stage, note string, f func() error) error {
	if note != "" && r.Progress != nil {
		fmt.Fprintln(r.Progress, note)
	}
	sp := r.Timer.Start(stage)
	defer sp.End()
	return f()
}

// apScale scales the scanned MR18s to the paper's 10,000 per study.
func (r *Run) apScale() float64 { return 10000.0 / float64(len(r.scanNow.PerAP)) }
