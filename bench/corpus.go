package main

import (
	"fmt"

	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/click"
	"wlanscale/internal/client"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/flow"
	"wlanscale/internal/rng"
	"wlanscale/internal/synth"
	"wlanscale/internal/telemetry"
)

// corpus is the seeded, replayable report population every daemon
// workload draws from: one template report per AP, produced by the
// simulator, expanded on demand into a per-AP time series by drifting
// the counters. The daemons under test only ever see the reports; the
// simulator is not in the timed path.
type corpus struct {
	seed      uint64
	templates []*telemetry.Report // one per AP, fleet order
	clients   int
}

// corpusShape fixes a corpus's size: exactly aps templates of exactly
// perAP clients each, whatever the seed. The seed decides who the
// clients are and what they run, not how much work a run is, so runs on
// different seeds are comparable.
type corpusShape struct {
	aps   int
	perAP int
}

// buildCorpus draws a fleet from seed and runs a usage pass over it —
// the exported call sequence core's usage epoch makes per network — so
// every AP's template carries a realistic client, application,
// user-agent and DHCP-fingerprint population. Networks are simulated
// only until shape.aps full APs have been collected.
func buildCorpus(seed uint64, shape corpusShape) (*corpus, error) {
	f, err := synth.GenerateFleet(synth.Params{
		// Every network has at least two APs, so aps/2 networks would
		// do if all were full; the slack covers networks with too few
		// clients to fill an AP.
		Seed: seed, NumNetworks: shape.aps,
		Epoch: epoch.Jan2015, ClientCap: shape.perAP * 8,
	})
	if err != nil {
		return nil, fmt.Errorf("corpus fleet: %w", err)
	}
	c := &corpus{seed: seed}
	catalog := apps.Catalog()
	src := rng.New(seed ^ 0xbe9c).Split("corpus")
	for _, n := range f.NetworkOrder() {
		if len(c.templates) == shape.aps {
			break
		}
		nsrc := src.SplitN("net", n.ID)
		if _, _, err := simulateNetwork(f, n, catalog, nsrc, shape.perAP, newTracer(false), -1); err != nil {
			return nil, fmt.Errorf("corpus: %w", err)
		}
		for i, a := range n.APs {
			t := a.BuildReport(uint64(epoch.Jan2015)*1e6, nil, nil, nil)
			if len(t.Clients) != shape.perAP || len(c.templates) == shape.aps {
				continue
			}
			// The usage pass moves no airtime, so the radio counters are
			// synthesised: two radios whose busy shares drift per tick.
			rs := nsrc.SplitN("radio", i)
			t.Radios = []telemetry.RadioStats{
				radioTemplate(dot11.Band24, a.Radio24.Channel.Number, a.Radio24.WidthMHz, rs),
				radioTemplate(dot11.Band5, a.Radio5.Channel.Number, a.Radio5.WidthMHz, rs),
			}
			c.clients += len(t.Clients)
			c.templates = append(c.templates, t)
		}
	}
	if len(c.templates) < shape.aps {
		return nil, fmt.Errorf("corpus: fleet of %d networks filled only %d of %d APs", shape.aps, len(c.templates), shape.aps)
	}
	return c, nil
}

// simulateNetwork is one network's usage week: associate every client,
// record its DHCP fingerprint and push its flows through its AP's Click
// pipeline — the exported call sequence core's usage epoch makes. With
// perAP zero clients go round-robin over the APs, as the epoch places
// them; otherwise each AP in turn is filled with exactly perAP clients
// and the remainder is left out. Each call into a simulator layer is
// spanned under parent (the traced study run reads those spans; the
// corpus builder passes a disabled tracer). It returns how many clients
// it placed and how many packets it pushed.
func simulateNetwork(f *synth.Fleet, n *synth.Network, catalog []apps.AppInfo, nsrc *rng.Source, perAP int, tr *tracer, parent int) (clients, packets int, err error) {
	e := f.Params.Epoch
	id := tr.start("synth", "Fleet.Clients", parent, n.ID)
	devs := f.Clients(n)
	tr.end(id)
	for i, dev := range devs {
		a := n.APs[i%len(n.APs)]
		if perAP > 0 {
			if i/perAP >= len(n.APs) {
				break
			}
			a = n.APs[i/perAP]
		}
		csrc := nsrc.SplitN("client", i)
		dist := csrc.LogNormalMeanMedian(15, 0.45)
		id := tr.start("ap", "AP.Associate", parent, n.ID)
		_, err := a.Associate(dev, dist, csrc.Split("assoc"))
		a.ObserveClientDHCP(dev, csrc.Split("dhcp"))
		tr.end(id)
		if err != nil {
			return 0, 0, fmt.Errorf("associate: %w", err)
		}
		ua := apps.UserAgentFor(dev.OS)
		if dev.Ambiguous {
			ua = ""
		}
		id = tr.start("client", "Device.WeeklyFlows", parent, n.ID)
		flows := dev.WeeklyFlows(e, catalog, csrc.Split("flows"))
		tr.end(id)
		id = tr.start("click", "Pipeline.Push", parent, n.ID)
		for fid, fs := range flows {
			packets += pushFlow(a.Pipe, dev.MAC, fid, fs, ua)
		}
		tr.end(id)
		clients++
	}
	return clients, packets, nil
}

// pushFlow sends one flow's packets (metadata, then down and up bytes)
// through a Click pipeline, as the usage epoch does, and returns how
// many it pushed.
func pushFlow(pipe *flow.Pipeline, mac dot11.MAC, fid int, fs client.FlowSpec, ua string) int {
	meta := client.BuildMeta(fs, ua)
	pipe.Push(&click.Packet{Client: mac, FlowID: uint64(fid), Length: 300, Meta: &meta})
	n := 1
	if fs.DownBytes > 0 {
		pipe.Push(&click.Packet{Client: mac, FlowID: uint64(fid), Length: int(fs.DownBytes)})
		n++
	}
	if fs.UpBytes > 0 {
		pipe.Push(&click.Packet{Client: mac, FlowID: uint64(fid), Length: int(fs.UpBytes), Upstream: true})
		n++
	}
	return n
}

func radioTemplate(band dot11.Band, channel, width int, src *rng.Source) telemetry.RadioStats {
	const cycle = 300e6 // one 300 s reporting period in µs
	busy := 0.05 + 0.5*src.Float64()
	return telemetry.RadioStats{
		Band: band, Channel: channel, WidthMHz: width,
		CycleUS:   cycle,
		RxClearUS: uint64(cycle * busy),
		Rx11US:    uint64(cycle * busy * 0.8),
		TxUS:      uint64(cycle * busy * 0.1),
	}
}

// mix64 is splitmix64's finaliser: the drift of report (ap, tick) is a
// pure function of the seed and those two indices.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// report materialises AP ap's report for reporting period tick: a copy
// of the template with the timestamp advanced and every counter
// drifted. Strings, MACs, capabilities, user agents and fingerprints
// are shared with the template (they do not change between periods,
// which is the redundancy wire v2's dictionary and deltas exploit), so
// a report costs four allocations and the generator stays far cheaper
// than the daemon it feeds.
func (c *corpus) report(ap, tick int) *telemetry.Report {
	t := c.templates[ap]
	h := mix64(c.seed ^ uint64(ap)<<32 ^ uint64(tick))
	r := *t
	r.Timestamp = t.Timestamp + uint64(tick)*300
	r.Radios = make([]telemetry.RadioStats, len(t.Radios))
	for i, rs := range t.Radios {
		// Busy share moves by up to ±1.6 % of the cycle per period.
		d := uint64(h>>(8*uint(i))&0xff) * (rs.CycleUS >> 14)
		rs.RxClearUS += d
		rs.Rx11US += d * 4 / 5
		rs.TxUS += d / 10
		r.Radios[i] = rs
	}
	nApps := 0
	for i := range t.Clients {
		nApps += len(t.Clients[i].Apps)
	}
	flat := make([]telemetry.AppUsageRecord, 0, nApps)
	r.Clients = make([]telemetry.ClientRecord, len(t.Clients))
	for i, cr := range t.Clients {
		start := len(flat)
		for j, a := range cr.Apps {
			// A period moves 1/64 of the week's bytes, ±12 %.
			k := mix64(h+uint64(i)<<16+uint64(j)) & 0xff
			a.UpBytes = a.UpBytes / 64 * (896 + k) / 1024
			a.DownBytes = a.DownBytes / 64 * (896 + k) / 1024
			a.Flows = a.Flows/64 + 1
			flat = append(flat, a)
		}
		cr.Apps = flat[start:len(flat):len(flat)]
		r.Clients[i] = cr
	}
	return &r
}

// feed is the deterministic order in which one agent emits reports: it
// fronts the APs [lo, hi) and walks them round-robin, one reporting
// period per lap. Report j therefore belongs to AP lo + j mod (hi-lo) at
// tick j div (hi-lo), and — because Agent.Enqueue stamps its own
// monotonic sequence — carries SeqNo j+1.
type feed struct {
	c      *corpus
	lo, hi int
	next   int
}

// split divides the corpus's APs into n contiguous, disjoint feeds.
func (c *corpus) split(n int) []*feed {
	feeds := make([]*feed, n)
	for i := range feeds {
		feeds[i] = &feed{c: c, lo: len(c.templates) * i / n, hi: len(c.templates) * (i + 1) / n}
	}
	return feeds
}

// at returns the feed's j-th report, without its sequence number.
func (f *feed) at(j int) *telemetry.Report {
	span := f.hi - f.lo
	return f.c.report(f.lo+j%span, j/span)
}

// pop returns the feed's next report.
func (f *feed) pop() *telemetry.Report {
	r := f.at(f.next)
	f.next++
	return r
}

// ingestControl folds reports [from, to) of every feed into the control
// store. Live reports get the sequence numbers the agents will stamp
// (an agent starts at 1 with the feed's report number from); reports
// that pre-build a store carry none, as nothing harvested them.
func ingestControl(s *backend.Store, feeds []*feed, from, to int, live bool) {
	for _, f := range feeds {
		for j := from; j < to; j++ {
			r := f.at(j)
			if live {
				r.SeqNo = uint64(j - from + 1)
			}
			s.Ingest(r)
		}
	}
}
