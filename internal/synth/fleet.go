package synth

import (
	"fmt"
	"sort"

	"wlanscale/internal/ap"
	"wlanscale/internal/apps"
	"wlanscale/internal/client"
	"wlanscale/internal/dot11"
	"wlanscale/internal/epoch"
	"wlanscale/internal/rf"
	"wlanscale/internal/rng"
)

// Industry rows of Table 2.
type Industry struct {
	Name     string
	Networks int
}

// Industries returns Table 2 exactly.
func Industries() []Industry {
	return []Industry{
		{"Architecture/Engineering", 127},
		{"Construction", 333},
		{"Consulting", 365},
		{"Education", 4075},
		{"Finance/Insurance", 737},
		{"Government/Public Sector", 1112},
		{"Healthcare", 1382},
		{"Hospitality", 493},
		{"Industrial/Manufacturing", 1220},
		{"Legal", 264},
		{"Media/Advertising", 427},
		{"Non-Profit", 640},
		{"Real Estate", 386},
		{"Restaurants", 296},
		{"Retail", 2355},
		{"Tech", 983},
		{"Telecom", 442},
		{"VAR/System Integrator", 2876},
		{"Other", 2154},
	}
}

// PaperNetworkCount is the number of networks in the usage dataset.
const PaperNetworkCount = 20667

// industryProfile shapes a network by vertical.
type industryProfile struct {
	env         rf.Environment
	clientScale float64 // multiplier on the median client count
	apScale     float64 // multiplier on the median AP count
	density     float64 // urban density multiplier (nearby networks)
}

var industryProfiles = map[string]industryProfile{
	"Architecture/Engineering": {rf.EnvOpenOffice, 0.6, 0.7, 1.0},
	"Construction":             {rf.EnvDenseObstructed, 0.4, 0.6, 0.7},
	"Consulting":               {rf.EnvOpenOffice, 0.6, 0.7, 1.2},
	"Education":                {rf.EnvDrywallOffice, 3.5, 3.0, 0.9},
	"Finance/Insurance":        {rf.EnvOpenOffice, 1.0, 1.0, 1.5},
	"Government/Public Sector": {rf.EnvDrywallOffice, 1.2, 1.3, 1.0},
	"Healthcare":               {rf.EnvDenseObstructed, 1.0, 1.5, 1.1},
	"Hospitality":              {rf.EnvDrywallOffice, 1.5, 1.5, 1.3},
	"Industrial/Manufacturing": {rf.EnvDenseObstructed, 0.6, 1.2, 0.6},
	"Legal":                    {rf.EnvOpenOffice, 0.5, 0.6, 1.4},
	"Media/Advertising":        {rf.EnvOpenOffice, 0.7, 0.8, 1.6},
	"Non-Profit":               {rf.EnvDrywallOffice, 0.6, 0.7, 1.0},
	"Real Estate":              {rf.EnvOpenOffice, 0.5, 0.6, 1.3},
	"Restaurants":              {rf.EnvDrywallOffice, 1.2, 0.5, 1.5},
	"Retail":                   {rf.EnvDenseObstructed, 1.0, 0.8, 1.4},
	"Tech":                     {rf.EnvOpenOffice, 1.0, 1.0, 1.5},
	"Telecom":                  {rf.EnvOpenOffice, 0.7, 0.9, 1.2},
	"VAR/System Integrator":    {rf.EnvOpenOffice, 0.5, 0.8, 1.0},
	"Other":                    {rf.EnvDrywallOffice, 0.8, 0.9, 1.0},
}

// Params configures fleet generation.
type Params struct {
	// Seed roots all randomness.
	Seed uint64
	// NumNetworks is the number of simulated networks. The analysis
	// scales counts by Scale() to report paper-scale absolutes.
	NumNetworks int
	// Epoch selects the measurement period.
	Epoch epoch.Epoch
	// ClientCap bounds clients per network, protecting test runtimes;
	// 0 means uncapped.
	ClientCap int
}

// Scale returns the factor mapping the simulated subset to the paper's
// 20,667 networks.
func (p Params) Scale() float64 {
	if p.NumNetworks <= 0 {
		return 1
	}
	return float64(PaperNetworkCount) / float64(p.NumNetworks)
}

// Network is one customer network.
type Network struct {
	ID       int
	Industry string
	Env      rf.Environment
	// Density is the site's urban density (drives nearby networks).
	Density float64
	// APs are the network's access points.
	APs []*ap.AP
	// SiteSizeM is the rough site diameter, from the AP count.
	SiteSizeM float64
	// NumClients is the number of clients this epoch.
	NumClients int

	// clientSerialBase is the fleet-wide offset of this network's
	// client MAC serial block. Client MACs carry only 24 bits beyond
	// the OUI, so serials are allocated globally to stay collision-free
	// (a collision would fuse two clients in the backend's roaming
	// aggregation).
	clientSerialBase uint64
}

// Fleet is the generated universe.
type Fleet struct {
	Params Params
	// Networks holds the generated networks in canonical order:
	// ascending ID, with IDs contiguous in [0, NumNetworks). This
	// ordering is a contract — the parallel usage-epoch pipeline merges
	// per-network partial results in exactly this order to stay
	// deterministic — so use NetworkOrder when order matters.
	Networks []*Network

	root       *rng.Source
	classifier *apps.Classifier
	apIndex    map[*ap.AP]apLocation
}

// Classifier returns the shared compiled rule engine.
func (f *Fleet) Classifier() *apps.Classifier { return f.classifier }

// clientGrowth is the fleet-wide client growth from Jan 2014 to Jan
// 2015 (+37%, Table 3).
const clientGrowth = 1.37

// GenerateFleet builds the simulated universe.
func GenerateFleet(p Params) (*Fleet, error) {
	if p.NumNetworks <= 0 {
		return nil, fmt.Errorf("synth: NumNetworks must be positive, got %d", p.NumNetworks)
	}
	f := &Fleet{
		Params:     p,
		root:       rng.New(p.Seed),
		classifier: apps.NewClassifier(),
	}

	// Draw industries with Table 2 weights.
	inds := Industries()
	weights := make([]float64, len(inds))
	for i, ind := range inds {
		weights[i] = float64(ind.Networks)
	}
	table := rng.NewWeightedTable(weights)

	apSerial := uint64(0)
	clientSerial := uint64(0)
	for id := 0; id < p.NumNetworks; id++ {
		nsrc := f.root.SplitN("net", id)
		ind := inds[table.Sample(nsrc)]
		prof := industryProfiles[ind.Name]

		n := &Network{
			ID:       id,
			Industry: ind.Name,
			Env:      prof.env,
			Density:  prof.density * nsrc.LogNormalMeanMedian(1, 0.8),
		}

		// AP count: every network has at least two APs (the dataset
		// filter), heavy-tailed by industry.
		apCount := 2 + nsrc.Poisson(2.5*prof.apScale)
		// Site grows with AP count: each AP covers roughly a 25 m cell.
		n.SiteSizeM = 25 * float64(apCount)

		// Client count for the epoch. The median is set so the
		// lognormal population mean lands at the paper's ~270 clients
		// per network (5.58M clients over 20,667 networks).
		med := 95 * prof.clientScale
		if p.Epoch == epoch.Jan2014 {
			med /= clientGrowth
		}
		n.NumClients = int(nsrc.LogNormalMeanMedian(med, 1.25)) + 1
		if p.ClientCap > 0 && n.NumClients > p.ClientCap {
			n.NumClients = p.ClientCap
		}
		n.clientSerialBase = clientSerial
		clientSerial += uint64(n.NumClients)

		for a := 0; a < apCount; a++ {
			asrc := nsrc.SplitN("ap", a)
			hw := ap.HardwareMR16
			if asrc.Bool(0.5) {
				hw = ap.HardwareMR18
			}
			serial := fmt.Sprintf("Q2XX-%04d-%04d", id, a)
			apSerial++
			apObj, err := ap.New(serial, apSerial, hw, prof.env,
				pickServing24(asrc), pickServing5(asrc), f.classifier)
			if err != nil {
				return nil, err
			}
			// SSID count: one to four virtual networks.
			nSSID := 1 + asrc.IntN(3)
			for s := 0; s < nSSID; s++ {
				apObj.AddSSID(fmt.Sprintf("net%d-ssid%d", id, s))
			}
			n.APs = append(n.APs, apObj)
		}
		f.Networks = append(f.Networks, n)
	}
	return f, nil
}

// Meraki APs auto-select among the non-overlapping 2.4 GHz channels.
func pickServing24(src *rng.Source) dot11.Channel {
	nums := []int{1, 6, 11}
	ch, _ := dot11.ChannelByNumber(dot11.Band24, nums[src.IntN(len(nums))])
	return ch
}

// 5 GHz serving channels: mostly UNII-1 and UNII-3 (DFS avoided by
// default channel plans of the era).
func pickServing5(src *rng.Source) dot11.Channel {
	nums := []int{36, 40, 44, 48, 149, 153, 157, 161}
	ch, _ := dot11.ChannelByNumber(dot11.Band5, nums[src.IntN(len(nums))])
	return ch
}

// Clients generates network n's client population for the fleet epoch.
// Devices are drawn fresh per call from the network's dedicated stream,
// so repeated calls agree.
func (f *Fleet) Clients(n *Network) []*client.Device {
	src := f.root.SplitN("net", n.ID).Split("clients")
	out := make([]*client.Device, n.NumClients)
	for i := range out {
		out[i] = client.NewFromMix(f.Params.Epoch, n.clientSerialBase+uint64(i), src.SplitN("dev", i))
	}
	return out
}

// NetworkOrder returns the networks in canonical network-index order
// (ascending ID). GenerateFleet already appends networks in this order;
// the copy re-sorts defensively so that callers who rearrange
// f.Networks cannot perturb consumers — notably the parallel
// usage-epoch pipeline, whose seed determinism rests on merging
// per-network partials in exactly this order.
func (f *Fleet) NetworkOrder() []*Network {
	out := make([]*Network, len(f.Networks))
	copy(out, f.Networks)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// TotalAPs returns the number of APs in the simulated fleet.
func (f *Fleet) TotalAPs() int {
	total := 0
	for _, n := range f.Networks {
		total += len(n.APs)
	}
	return total
}

// Locate finds the network and AP index of an access point generated by
// this fleet.
func (f *Fleet) Locate(target *ap.AP) (*Network, int, bool) {
	if f.apIndex == nil {
		f.apIndex = make(map[*ap.AP]apLocation)
		for _, n := range f.Networks {
			for i, a := range n.APs {
				f.apIndex[a] = apLocation{n, i}
			}
		}
	}
	loc, ok := f.apIndex[target]
	if !ok {
		return nil, 0, false
	}
	return loc.net, loc.idx, true
}

type apLocation struct {
	net *Network
	idx int
}

// APsByModel partitions the fleet's APs by hardware model.
func (f *Fleet) APsByModel() (mr16, mr18 []*ap.AP) {
	for _, n := range f.Networks {
		for _, a := range n.APs {
			if a.HW.HasScanRadio {
				mr18 = append(mr18, a)
			} else {
				mr16 = append(mr16, a)
			}
		}
	}
	return mr16, mr18
}
