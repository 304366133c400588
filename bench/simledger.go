package main

import (
	"fmt"
	"path/filepath"

	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/epoch"
	"wlanscale/internal/rng"
	"wlanscale/internal/synth"
	"wlanscale/internal/telemetry"
)

// simNetworks is how many networks the study's simulator replica walks.
const simNetworks = 20

// studyTraced is the traced half of the study workload. The stages of
// the real run come from the child's own spans; the layers inside a
// usage epoch come from a single-worker replica of the epoch's exported
// call sequence over the first simNetworks networks of the same fleet:
// generate clients, associate, weekly flows, Click pushes (which include
// flow tracking and application classification), build each AP's
// report, carry it over wire v1, ingest into a per-network partial
// store, merge the partials.
func studyTraced(e *env, rep *studyReport, res *result) error {
	m := res.metrics
	cfg := studyConfig{Seed: e.seed, Quick: e.quick}.coreConfig()
	tr := newTracer(true)

	var f *synth.Fleet
	var err error
	if m["synth.generate_fleet_ms"], err = onceMS(func() error {
		id := tr.start("synth", "GenerateFleet", -1, 0)
		defer tr.end(id)
		f, err = synth.GenerateFleet(synth.Params{
			Seed: cfg.Seed, NumNetworks: cfg.UsageNetworks,
			Epoch: epoch.Jan2015, ClientCap: cfg.ClientCap,
		})
		return err
	}); err != nil {
		return err
	}
	catalog := apps.Catalog()
	src := rng.New(e.seed ^ 0xd1ce).Split("sim-ledger")
	merged := backend.NewStore()
	clients, packets, reports := 0, 0, 0
	for _, n := range f.NetworkOrder()[:min(simNetworks, len(f.Networks))] {
		root := tr.start("core", "network", -1, n.ID)
		c, p, err := simulateNetwork(f, n, catalog, src.SplitN("net", n.ID), 0, tr, root)
		if err != nil {
			return fmt.Errorf("sim ledger: %w", err)
		}
		clients += c
		packets += p
		part := backend.NewStore()
		for _, a := range n.APs {
			id := tr.start("ap", "AP.BuildReport", root, n.ID)
			r := a.BuildReport(uint64(epoch.Jan2015)*1e6, nil, nil, nil)
			tr.end(id)
			id = tr.start("telemetry", "Report.Marshal", root, n.ID)
			wire := r.Marshal()
			tr.end(id)
			id = tr.start("telemetry", "UnmarshalReport", root, n.ID)
			decoded, err := telemetry.UnmarshalReport(wire)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("sim ledger: %w", err)
			}
			id = tr.start("backend", "Store.Ingest", root, n.ID)
			part.Ingest(decoded)
			tr.end(id)
			reports++
		}
		id := tr.start("backend", "Store.Merge", root, n.ID)
		merged.Merge(part)
		tr.end(id)
		tr.end(root)
	}
	if merged.NumClients() != clients {
		return fmt.Errorf("sim ledger: merged store holds %d clients, the replica placed %d", merged.NumClients(), clients)
	}

	// Per-call costs from the spans, by span name.
	sumMS := make(map[string]float64)
	for _, s := range tr.spans {
		sumMS[s.Name] += float64(s.EndNS-s.StartNS) / 1e6
	}
	m["synth.clients_us_per_client"] = sumMS["Fleet.Clients"] * 1e3 / float64(clients)
	m["ap.associate_us_per_client"] = sumMS["AP.Associate"] * 1e3 / float64(clients)
	m["client.weekly_flows_us_per_client"] = sumMS["Device.WeeklyFlows"] * 1e3 / float64(clients)
	m["click.push_us_per_packet"] = sumMS["Pipeline.Push"] * 1e3 / float64(packets)
	m["ap.build_report_us"] = sumMS["AP.BuildReport"] * 1e3 / float64(reports)
	m["telemetry.marshal_us"] = sumMS["Report.Marshal"] * 1e3 / float64(reports)
	m["telemetry.unmarshal_us"] = sumMS["UnmarshalReport"] * 1e3 / float64(reports)
	m["backend.merge_ms"] = sumMS["Store.Merge"]

	self, err := layerSelfMS(tr.spans)
	if err != nil {
		return err
	}
	spanMetrics(self, m)
	// The trace file holds the real run's stages first, then the
	// replica's spans, renumbered after them.
	all := append([]span(nil), rep.Stages...)
	for _, s := range tr.spans {
		s.ID += len(rep.Stages)
		if s.Parent >= 0 {
			s.Parent += len(rep.Stages)
		}
		all = append(all, s)
	}
	return (&tracer{spans: all}).writeFile(filepath.Join(e.out, "trace-study.json"))
}
