package backend

import (
	"strconv"
	"strings"
)

// NetworkFunc maps a device serial to the network it belongs to. The
// rebalance subsystem is network-granular — a network's devices and
// clients move between shards as one unit, matching how the cluster
// map routes by network ID — so every migration-facing Store method
// takes one of these instead of hard-coding a serial convention.
type NetworkFunc func(serial string) (id uint64, ok bool)

// NetworkOfSerial is the default NetworkFunc: it reads the network
// number out of a Meraki-style dash-separated serial ("XXXX-NNNN-NNNN"),
// whose middle field is the network ordinal in every fleet this repo
// synthesizes (synth.GenerateFleet, the cluster tests, the fleettest
// harness). Serials that don't follow the convention report ok=false
// and are then never extracted, deleted, or refused — unparseable data
// stays put, which is the safe failure mode for a migration.
func NetworkOfSerial(serial string) (uint64, bool) {
	parts := strings.Split(serial, "-")
	if len(parts) < 3 || parts[1] == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(parts[1], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// networkOfClient attributes a client aggregate to a network via the
// APs that reported it. Client populations are disjoint per network
// (a MAC associates within one customer network), so any reporting AP
// decides; the lowest parseable serial is used (APs is sorted) so
// attribution is deterministic.
func networkOfClient(c *ClientAggregate, netOf NetworkFunc) (uint64, bool) {
	for _, s := range c.APs {
		if id, ok := netOf(s); ok {
			return id, true
		}
	}
	return 0, false
}
