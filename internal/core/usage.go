package core

import (
	"fmt"
	"sort"

	"wlanscale/internal/ap"
	"wlanscale/internal/apps"
	"wlanscale/internal/backend"
	"wlanscale/internal/click"
	"wlanscale/internal/client"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/stats"
	"wlanscale/internal/synth"
	"wlanscale/internal/telemetry"
)

// UsageEpoch is everything the backend collected for one usage week.
type UsageEpoch struct {
	Epoch epoch.Epoch
	// Scale maps simulated counts to the paper's 20,667 networks.
	Scale float64
	// Store holds the harvested aggregates.
	Store *backend.Store
}

// RunUsageEpoch simulates one measurement week for the fleet: every
// client associates, emits its flows through its AP's Click pipeline,
// and every AP's report crosses the (in-process) telemetry wire into a
// backend store. The returned store is what the analyses read.
//
// Networks fan out across Config.Workers goroutines (see epochpool.go);
// the result is bit-for-bit identical for every worker count.
func (s *Study) RunUsageEpoch(f *synth.Fleet) (*UsageEpoch, error) {
	return s.RunUsageEpochWorkers(f, s.Config.Workers)
}

// tracedReport remembers one sampled report of the offline pipeline so
// the merge stage can record its epoch.merge span later.
type tracedReport struct {
	id     trace.ID
	serial string
	seq    uint64
}

// harvestNetworkUsage simulates one network's usage week and ingests
// its AP reports into store, returning the trace bookkeeping for any
// sampled reports (nil when tracing is off). Every random draw comes
// from the network's own stream (split off the study source by network
// ID) — and trace IDs likewise come from a per-network stream keyed by
// network ID — so the result does not depend on which other networks
// ran before or concurrently. All mutated state — the network's APs,
// their Click pipelines, and the store — is owned by the caller, making
// concurrent calls for distinct networks (with distinct partial stores)
// race-free.
func (s *Study) harvestNetworkUsage(f *synth.Fleet, n *synth.Network, label string, catalog []apps.AppInfo, store *backend.Store) ([]tracedReport, error) {
	e := f.Params.Epoch
	devs := f.Clients(n)
	nsrc := s.src.Split(label).SplitN("net", n.ID)
	for i, dev := range devs {
		a := n.APs[i%len(n.APs)]
		csrc := nsrc.SplitN("client", i)
		dist := csrc.LogNormalMeanMedian(15, 0.45)
		if _, err := a.Associate(dev, dist, csrc.Split("assoc")); err != nil {
			return nil, err
		}
		a.ObserveClientDHCP(dev, csrc.Split("dhcp"))
		ua := apps.UserAgentFor(dev.OS)
		if dev.Ambiguous {
			ua = ""
		}
		flows := dev.WeeklyFlows(e, catalog, csrc.Split("flows"))
		for fid, fs := range flows {
			meta := client.BuildMeta(fs, ua)
			a.Pipe.Push(&click.Packet{
				Client: dev.MAC, FlowID: uint64(fid), Length: 300, Meta: &meta,
			})
			if fs.DownBytes > 0 {
				a.Pipe.Push(&click.Packet{Client: dev.MAC, FlowID: uint64(fid), Length: int(fs.DownBytes)})
			}
			if fs.UpBytes > 0 {
				a.Pipe.Push(&click.Packet{Client: dev.MAC, FlowID: uint64(fid), Length: int(fs.UpBytes), Upstream: true})
			}
		}
	}
	// Harvest every AP over the telemetry wire format. With tracing on,
	// the offline pipeline maps onto the same span chain as the live
	// protocol: agent.enqueue is the report build, tunnel.write its
	// encode onto the (in-process) wire, daemon.read the decode on the
	// backend side, and store.ingest is recorded by the store itself
	// (the partial store carries the tracer).
	tr := s.Config.Trace
	var ids *trace.IDStream
	if tr != nil {
		ids = tr.IDs(fmt.Sprintf("net/%d", n.ID))
	}
	// v1 marshals each AP's report on its own; v2 coalesces the
	// network's reports into one delta-coded batch frame that crosses
	// the wire whole, exactly as a live v2 poll would carry them. The
	// decoded fleet must be indistinguishable across the two — the
	// digest-equivalence tests compare the store states byte for byte.
	type pendingTrace struct {
		id      trace.ID
		sampled bool
		serial  string
	}
	v2 := s.Config.WireVersion >= int(telemetry.WireV2)
	var pend []pendingTrace
	var wire [][]byte
	be := telemetry.NewBatchEncoder(0)
	for _, a := range n.APs {
		var id trace.ID
		var sampled bool
		if ids != nil {
			id, sampled = ids.Next()
		}
		esp := tr.Start(id, trace.StageAgentEnqueue)
		esp.SetSerial(a.Serial)
		rep := a.BuildReport(uint64(e)*1e6, nil, nil, nil)
		rep.TraceID = uint64(id)
		esp.SetSeq(rep.SeqNo)
		esp.End()
		wsp := tr.Start(id, trace.StageTunnelWrite)
		wsp.SetSerial(a.Serial)
		wsp.SetSeq(rep.SeqNo)
		if v2 {
			be.Add(rep) // unbounded encoder: Add never declines
		} else {
			wire = append(wire, rep.Marshal())
		}
		wsp.End()
		pend = append(pend, pendingTrace{id: id, sampled: sampled, serial: a.Serial})
	}
	decode := func(i int) (*telemetry.Report, error) { return telemetry.UnmarshalReport(wire[i]) }
	if v2 {
		frame, err := telemetry.DecodeBatchFrame(be.Finish(0, 0, nil))
		if err != nil {
			return nil, fmt.Errorf("core: harvest net %d batch: %w", n.ID, err)
		}
		if len(frame.Reports) != len(n.APs) {
			return nil, fmt.Errorf("core: harvest net %d: batch carried %d reports for %d APs", n.ID, len(frame.Reports), len(n.APs))
		}
		decode = func(i int) (*telemetry.Report, error) { return frame.Reports[i], nil }
	}
	var traced []tracedReport
	for i, p := range pend {
		rsp := tr.Start(p.id, trace.StageDaemonRead)
		rsp.SetSerial(p.serial)
		decoded, err := decode(i)
		if err != nil {
			rsp.SetErr(err)
			rsp.End()
			return nil, fmt.Errorf("core: harvest %s: %w", p.serial, err)
		}
		rsp.SetSeq(decoded.SeqNo)
		rsp.End()
		store.Ingest(decoded)
		if p.sampled {
			traced = append(traced, tracedReport{id: p.id, serial: p.serial, seq: decoded.SeqNo})
		}
	}
	return traced, nil
}

// usageCell is one aggregate row cell set shared by Tables 3, 5 and 6.
type usageCell struct {
	Bytes   float64
	Down    float64
	Clients float64
	// scaled values
}

// OSRow is one row of Table 3.
type OSRow struct {
	OS apps.OS
	// TB is total terabytes (paper scale).
	TB float64
	// PctTotal is the share of all bytes.
	PctTotal float64
	// PctDownload is the download share of this OS's bytes.
	PctDownload float64
	// Clients is the client count (paper scale).
	Clients float64
	// MBPerClient is mean usage per client.
	MBPerClient float64
	// Increases are year-over-year changes (fractions; 0.62 = +62%).
	TBIncrease, ClientsIncrease, MBIncrease float64
}

// Table3Result reproduces Table 3.
type Table3Result struct {
	Rows []OSRow
	All  OSRow
}

// Table3UsageByOS computes usage by inferred operating system for both
// epochs and the year-over-year deltas.
func Table3UsageByOS(now, before *UsageEpoch) *Table3Result {
	type agg struct{ bytes, down, clients float64 }
	collect := func(u *UsageEpoch) map[apps.OS]*agg {
		m := make(map[apps.OS]*agg)
		for _, c := range u.Store.Clients() {
			os := c.OS()
			a, ok := m[os]
			if !ok {
				a = &agg{}
				m[os] = a
			}
			a.clients += u.Scale
			for _, rec := range c.Apps {
				a.bytes += float64(rec.UpBytes+rec.DownBytes) * u.Scale
				a.down += float64(rec.DownBytes) * u.Scale
			}
		}
		return m
	}
	nowAgg := collect(now)
	beforeAgg := collect(before)

	var res Table3Result
	var totalNow, totalDown, totalClients, totalBefore, totalClientsBefore float64
	for _, a := range nowAgg {
		totalNow += a.bytes
		totalDown += a.down
		totalClients += a.clients
	}
	for _, a := range beforeAgg {
		totalBefore += a.bytes
		totalClientsBefore += a.clients
	}
	for _, os := range apps.AllOSes() {
		a := nowAgg[os]
		if a == nil {
			a = &agg{}
		}
		b := beforeAgg[os]
		if b == nil {
			b = &agg{}
		}
		row := OSRow{OS: os, TB: a.bytes / 1e12, Clients: a.clients}
		if totalNow > 0 {
			row.PctTotal = a.bytes / totalNow
		}
		if a.bytes > 0 {
			row.PctDownload = a.down / a.bytes
		}
		if a.clients > 0 {
			row.MBPerClient = a.bytes / a.clients / 1e6
		}
		row.TBIncrease = stats.PercentChange(b.bytes, a.bytes)
		row.ClientsIncrease = stats.PercentChange(b.clients, a.clients)
		mbBefore := 0.0
		if b.clients > 0 {
			mbBefore = b.bytes / b.clients / 1e6
		}
		row.MBIncrease = stats.PercentChange(mbBefore, row.MBPerClient)
		res.Rows = append(res.Rows, row)
	}
	res.All = OSRow{
		TB:       totalNow / 1e12,
		Clients:  totalClients,
		PctTotal: 1,
	}
	if totalNow > 0 {
		res.All.PctDownload = totalDown / totalNow
	}
	if totalClients > 0 {
		res.All.MBPerClient = totalNow / totalClients / 1e6
	}
	res.All.TBIncrease = stats.PercentChange(totalBefore, totalNow)
	res.All.ClientsIncrease = stats.PercentChange(totalClientsBefore, totalClients)
	mbBefore := 0.0
	if totalClientsBefore > 0 {
		mbBefore = totalBefore / totalClientsBefore / 1e6
	}
	res.All.MBIncrease = stats.PercentChange(mbBefore, res.All.MBPerClient)
	return &res
}

// Render prints Table 3 in the paper's format.
func (r *Table3Result) Render() string {
	t := stats.NewTable("Table 3: Usage by operating system (January 15-22)",
		"OS", "TB (% total/% download)", "% incr", "# clients", "% incr", "MB/client", "% incr")
	row := func(o OSRow, name string) {
		t.AddRow(name,
			fmt.Sprintf("%.3g (%s/%s)", o.TB, stats.FormatPercent(o.PctTotal), stats.FormatPercent(o.PctDownload)),
			stats.FormatPercent(o.TBIncrease),
			fmt.Sprintf("%.0f", o.Clients),
			stats.FormatPercent(o.ClientsIncrease),
			fmt.Sprintf("%.0f", o.MBPerClient),
			stats.FormatPercent(o.MBIncrease))
	}
	for _, o := range r.Rows {
		row(o, o.OS.String())
	}
	row(r.All, "All")
	return t.String()
}

// AppRow is one row of Table 5 (or, rolled up, Table 6).
type AppRow struct {
	Name                                    string
	Category                                apps.Category
	TB                                      float64
	PctTotal                                float64
	PctDownload                             float64
	Clients                                 float64
	MBPerClient                             float64
	TBIncrease, ClientsIncrease, MBIncrease float64
}

// Table5Result reproduces Table 5 (top applications by usage).
type Table5Result struct {
	Rows []AppRow
	// TotalTB is fleet-wide weekly bytes.
	TotalTB float64
}

// collectApps aggregates by application name.
func collectApps(u *UsageEpoch) map[string]*usageCell {
	m := make(map[string]*usageCell)
	for _, c := range u.Store.Clients() {
		for _, rec := range c.Apps {
			name := rec.App
			cell, ok := m[name]
			if !ok {
				cell = &usageCell{}
				m[name] = cell
			}
			cell.Bytes += float64(rec.UpBytes+rec.DownBytes) * u.Scale
			cell.Down += float64(rec.DownBytes) * u.Scale
			cell.Clients += u.Scale
		}
	}
	return m
}

// Table5TopApps computes the top-N applications by bytes with YoY
// deltas.
func Table5TopApps(now, before *UsageEpoch, topN int) *Table5Result {
	nowAgg := collectApps(now)
	beforeAgg := collectApps(before)
	classifier := apps.CatalogByName()

	var total float64
	for _, cell := range nowAgg {
		total += cell.Bytes
	}
	var rows []AppRow
	for name, cell := range nowAgg {
		row := AppRow{
			Name:    name,
			TB:      cell.Bytes / 1e12,
			Clients: cell.Clients,
		}
		if info, ok := classifier[name]; ok {
			row.Category = info.Category
		}
		if total > 0 {
			row.PctTotal = cell.Bytes / total
		}
		if cell.Bytes > 0 {
			row.PctDownload = cell.Down / cell.Bytes
		}
		if cell.Clients > 0 {
			row.MBPerClient = cell.Bytes / cell.Clients / 1e6
		}
		if b, ok := beforeAgg[name]; ok {
			row.TBIncrease = stats.PercentChange(b.Bytes, cell.Bytes)
			row.ClientsIncrease = stats.PercentChange(b.Clients, cell.Clients)
			mbBefore := 0.0
			if b.Clients > 0 {
				mbBefore = b.Bytes / b.Clients / 1e6
			}
			row.MBIncrease = stats.PercentChange(mbBefore, row.MBPerClient)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].TB != rows[j].TB {
			return rows[i].TB > rows[j].TB
		}
		return rows[i].Name < rows[j].Name
	})
	if topN > 0 && len(rows) > topN {
		rows = rows[:topN]
	}
	return &Table5Result{Rows: rows, TotalTB: total / 1e12}
}

// Render prints Table 5.
func (r *Table5Result) Render() string {
	t := stats.NewTable(fmt.Sprintf("Table 5: Top %d applications by usage (total %.3g TB)", len(r.Rows), r.TotalTB),
		"Application", "Category", "TB (% total/% down)", "% incr", "# clients", "% incr", "MB/client", "% incr")
	for _, o := range r.Rows {
		t.AddRow(o.Name, o.Category.String(),
			fmt.Sprintf("%.3g (%s/%s)", o.TB, stats.FormatPercent(o.PctTotal), stats.FormatPercent(o.PctDownload)),
			stats.FormatPercent(o.TBIncrease),
			fmt.Sprintf("%.0f", o.Clients),
			stats.FormatPercent(o.ClientsIncrease),
			fmt.Sprintf("%.1f", o.MBPerClient),
			stats.FormatPercent(o.MBIncrease))
	}
	return t.String()
}

// Table6Result reproduces Table 6 (usage by category).
type Table6Result struct {
	Rows    []AppRow
	TotalTB float64
}

// Table6Categories rolls application usage up to categories.
func Table6Categories(now, before *UsageEpoch) *Table6Result {
	classifier := apps.CatalogByName()
	roll := func(u *UsageEpoch) (map[apps.Category]*usageCell, map[apps.Category]map[uint64]bool) {
		cells := make(map[apps.Category]*usageCell)
		clients := make(map[apps.Category]map[uint64]bool)
		for _, c := range u.Store.Clients() {
			for _, rec := range c.Apps {
				cat := apps.CatOther
				if info, ok := classifier[rec.App]; ok {
					cat = info.Category
				}
				cell, ok := cells[cat]
				if !ok {
					cell = &usageCell{}
					cells[cat] = cell
					clients[cat] = make(map[uint64]bool)
				}
				cell.Bytes += float64(rec.UpBytes+rec.DownBytes) * u.Scale
				cell.Down += float64(rec.DownBytes) * u.Scale
				clients[cat][c.MAC.Uint64()] = true
			}
		}
		return cells, clients
	}
	nowCells, nowClients := roll(now)
	beforeCells, beforeClients := roll(before)

	var total float64
	for _, cell := range nowCells {
		total += cell.Bytes
	}
	var rows []AppRow
	for _, cat := range apps.Categories() {
		cell := nowCells[cat]
		if cell == nil {
			continue
		}
		nClients := float64(len(nowClients[cat])) * now.Scale
		row := AppRow{
			Name:     cat.String(),
			Category: cat,
			TB:       cell.Bytes / 1e12,
			Clients:  nClients,
		}
		if total > 0 {
			row.PctTotal = cell.Bytes / total
		}
		if cell.Bytes > 0 {
			row.PctDownload = cell.Down / cell.Bytes
		}
		if nClients > 0 {
			row.MBPerClient = cell.Bytes / nClients / 1e6
		}
		if b := beforeCells[cat]; b != nil {
			row.TBIncrease = stats.PercentChange(b.Bytes, cell.Bytes)
			bClients := float64(len(beforeClients[cat])) * before.Scale
			row.ClientsIncrease = stats.PercentChange(bClients, nClients)
		}
		rows = append(rows, row)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].TB > rows[j].TB })
	return &Table6Result{Rows: rows, TotalTB: total / 1e12}
}

// Render prints Table 6.
func (r *Table6Result) Render() string {
	t := stats.NewTable("Table 6: Usage by application categories",
		"Category", "TB (% total/% down)", "% incr", "# clients", "% incr", "MB/client")
	for _, o := range r.Rows {
		t.AddRow(o.Name,
			fmt.Sprintf("%.3g (%s/%s)", o.TB, stats.FormatPercent(o.PctTotal), stats.FormatPercent(o.PctDownload)),
			stats.FormatPercent(o.TBIncrease),
			fmt.Sprintf("%.0f", o.Clients),
			stats.FormatPercent(o.ClientsIncrease),
			fmt.Sprintf("%.1f", o.MBPerClient))
	}
	return t.String()
}

// Table4Result reproduces Table 4 (client capabilities, two years).
type Table4Result struct {
	Now, Before dot11.CapabilityCounts
}

// Table4Capabilities aggregates the capability IEs the APs decoded from
// association frames.
func Table4Capabilities(now, before *UsageEpoch) *Table4Result {
	collect := func(u *UsageEpoch) dot11.CapabilityCounts {
		var cc dot11.CapabilityCounts
		for _, c := range u.Store.Clients() {
			cc.Add(c.Caps)
		}
		return cc
	}
	return &Table4Result{Now: collect(now), Before: collect(before)}
}

// Render prints Table 4.
func (r *Table4Result) Render() string {
	t := stats.NewTable("Table 4: Client capabilities", "", "Jan. 2014", "Jan. 2015")
	add := func(name string, before, now int) {
		t.AddRow(name,
			stats.FormatPercent(r.Before.Fraction(before)),
			stats.FormatPercent(r.Now.Fraction(now)))
	}
	add("802.11g", r.Before.G, r.Now.G)
	add("802.11n", r.Before.N, r.Now.N)
	add("5 GHz", r.Before.FiveGHz, r.Now.FiveGHz)
	add("40 MHz channels", r.Before.Width40, r.Now.Width40)
	add("802.11ac", r.Before.AC, r.Now.AC)
	add("Two streams", r.Before.TwoStreams, r.Now.TwoStreams)
	add("Three streams", r.Before.ThreeStreams, r.Now.ThreeStreams)
	add("Four streams", r.Before.FourStreams, r.Now.FourStreams)
	return t.String()
}

// Figure1Result reproduces Figure 1: the RSSI snapshot of connected
// clients.
type Figure1Result struct {
	RSSI24, RSSI5 *stats.CDF
	// Counts are paper-scale client counts per band.
	Count24, Count5 float64
	// CapableFiveGHz is the fraction of snapshot clients that advertise
	// 5 GHz support (the paradox the paper highlights).
	CapableFiveGHz float64
}

// Figure1RSSI computes the association snapshot from a usage epoch.
func Figure1RSSI(u *UsageEpoch) *Figure1Result {
	res := &Figure1Result{RSSI24: &stats.CDF{}, RSSI5: &stats.CDF{}}
	capable := 0.0
	total := 0.0
	for _, c := range u.Store.Clients() {
		total++
		if c.Caps.FiveGHz {
			capable++
		}
		if c.Band == dot11.Band5 {
			res.RSSI5.Add(float64(c.RSSIdB))
			res.Count5 += u.Scale
		} else {
			res.RSSI24.Add(float64(c.RSSIdB))
			res.Count24 += u.Scale
		}
	}
	if total > 0 {
		res.CapableFiveGHz = capable / total
	}
	return res
}

// Fraction24 returns the share of snapshot clients on 2.4 GHz.
func (r *Figure1Result) Fraction24() float64 {
	total := r.Count24 + r.Count5
	if total == 0 {
		return 0
	}
	return r.Count24 / total
}

// Render prints Figure 1 as a CDF chart plus the headline numbers.
func (r *Figure1Result) Render() string {
	out := stats.RenderCDFs("Figure 1: client RSSI (dB above noise) at the AP", 64, 16,
		map[string]*stats.CDF{"2.4 GHz": r.RSSI24, "5 GHz": r.RSSI5})
	out += fmt.Sprintf("clients: %.0f on 2.4 GHz (%.0f%%), %.0f on 5 GHz; %.0f%% 5 GHz-capable\n",
		r.Count24, r.Fraction24()*100, r.Count5, r.CapableFiveGHz*100)
	out += fmt.Sprintf("median SNR: %.1f dB (2.4 GHz), %.1f dB (5 GHz)\n",
		r.RSSI24.Median(), r.RSSI5.Median())
	return out
}

// Table2Result reproduces Table 2 (networks by industry).
type Table2Result struct {
	Rows  []synth.Industry
	Total int
}

// Table2Industries tallies the simulated fleet's industries at paper
// scale.
func Table2Industries(f *synth.Fleet) *Table2Result {
	counts := make(map[string]int)
	for _, n := range f.Networks {
		counts[n.Industry]++
	}
	scale := f.Params.Scale()
	var res Table2Result
	for _, ind := range synth.Industries() {
		scaled := int(float64(counts[ind.Name])*scale + 0.5)
		res.Rows = append(res.Rows, synth.Industry{Name: ind.Name, Networks: scaled})
		res.Total += scaled
	}
	return &res
}

// Render prints Table 2.
func (r *Table2Result) Render() string {
	t := stats.NewTable("Table 2: Network deployment types", "Industry", "# networks")
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%d", row.Networks))
	}
	t.AddRow("Total", fmt.Sprintf("%d", r.Total))
	return t.String()
}

// Table1Result reproduces Table 1 (hardware platforms).
type Table1Result struct {
	Platforms []ap.Hardware
}

// Table1Hardware returns the measured hardware platforms.
func Table1Hardware() *Table1Result {
	return &Table1Result{Platforms: []ap.Hardware{ap.HardwareMR16, ap.HardwareMR18}}
}

// Render prints Table 1.
func (r *Table1Result) Render() string {
	t := stats.NewTable("Table 1: Hardware platforms", "", r.Platforms[0].Model, r.Platforms[1].Model)
	t.AddRow("CPU", r.Platforms[0].CPU, r.Platforms[1].CPU)
	t.AddRow("Memory",
		fmt.Sprintf("%d MB", r.Platforms[0].MemoryMB),
		fmt.Sprintf("%d MB", r.Platforms[1].MemoryMB))
	t.AddRow("TX power",
		fmt.Sprintf("%.0f dBm (2.4), %.0f dBm (5)", r.Platforms[0].Radio24.TxPowerDBm, r.Platforms[0].Radio5.TxPowerDBm),
		fmt.Sprintf("%.0f dBm (2.4), %.0f dBm (5)", r.Platforms[1].Radio24.TxPowerDBm, r.Platforms[1].Radio5.TxPowerDBm))
	t.AddRow("Antenna",
		fmt.Sprintf("%.0f dBi (2.4), %.0f dBi (5)", r.Platforms[0].Radio24.AntennaGainDBi, r.Platforms[0].Radio5.AntennaGainDBi),
		fmt.Sprintf("%.0f dBi (2.4), %.0f dBi (5)", r.Platforms[1].Radio24.AntennaGainDBi, r.Platforms[1].Radio5.AntennaGainDBi))
	t.AddRow("Scanning radio", "no", "yes (1x1, both bands)")
	return t.String()
}
