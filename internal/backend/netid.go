package backend

import (
	"strconv"
	"strings"
)

// NetworkOfSerial names the network a device serial belongs to, and so
// the store partition its keys live in (Store). It reads the network
// number out of a Meraki-style dash-separated serial ("XXXX-NNNN-NNNN"),
// whose middle field is the network ordinal in every fleet this repo
// synthesizes (synth.GenerateFleet, the cluster tests, the fleettest
// harness). Serials that don't follow the convention report ok=false;
// their keys share one partition that is never extracted, deleted or
// refused — unparseable data stays put, which is the safe failure mode
// for a migration. A parseable serial costs no allocation: the store
// resolves every ingested report's network, and merakid checks it
// before the report is admitted.
func NetworkOfSerial(serial string) (uint64, bool) {
	_, rest, ok := strings.Cut(serial, "-")
	mid, _, ok2 := strings.Cut(rest, "-")
	if !ok || !ok2 || mid == "" {
		return 0, false
	}
	id, err := strconv.ParseUint(mid, 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}

// networkOfClient names the network a client of a flat snapshot
// belongs to: that of the lowest parseable serial among the APs that
// reported it (APs is sorted). A client the store captured has APs of
// its own network only, unless a snapshot written before the store was
// partitioned merged one MAC across networks; such an aggregate loads
// into its lowest parseable network, as that store attributed it.
func networkOfClient(c *ClientAggregate) (uint64, bool) {
	for _, s := range c.APs {
		if id, ok := NetworkOfSerial(s); ok {
			return id, true
		}
	}
	return 0, false
}
