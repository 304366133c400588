package backend

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"

	"wlanscale/internal/dot11"
	"wlanscale/internal/obs"
)

// This file is the store half of live shard rebalancing: extracting a
// per-network slice out of a source shard, deleting it after a
// verified cutover, and the two pieces of bookkeeping that make the
// dance crash-safe — a "parted" network set (the shard refuses to ack
// new reports for networks mid-migration, so devices requeue) and an
// "absorbed" token set (a migration slice is applied at most once per
// token, so WAL replay and coordinator retries are idempotent). The
// durable WAL records for these operations live in durable.go.

// Networks lists the networks whose partitions hold data, sorted.
// Serials NetworkOfSerial cannot parse belong to no network and never
// migrate. The ignored trailing argument exists only for bench/'s
// frozen callers, which pass NetworkOfSerial; it goes when ROADMAP
// item 18 lifts the freeze, as do ExtractNetworks' and Absorb's.
func (s *Store) Networks(_ ...func(string) (uint64, bool)) []uint64 {
	s.mu.RLock()
	out := make([]uint64, 0, len(s.parts))
	for id, p := range s.parts {
		if p.entries() > 0 {
			out = append(out, id)
		}
	}
	s.mu.RUnlock()
	slices.Sort(out)
	return out
}

// ExtractNetworks returns a fresh store holding everything the store
// has for the given networks — the migration slice a source shard
// exports. It copies their partitions alone under the lock, so the
// slice is a consistent view between two reports even on a live
// daemon, ingest waits only for those copies, and the caller encodes
// the slice with no lock held. The slice shares the append-only series
// with the live store under capture's cap-clamp rule. Migration
// bookkeeping is data, not payload — the slice carries none of it.
// ids is a set as IDSet builds it, never nil. The trailing argument is
// ignored (see Networks).
func (s *Store) ExtractNetworks(ids map[uint64]bool, _ ...func(string) (uint64, bool)) *Store {
	return s.ExtractPartitions(ids, false)
}

// ExtractPartitions is ExtractNetworks that also copies, when unparsed
// is set, the partition of the serials no network parses: a cluster
// digest folds that partition when two shards hold one.
func (s *Store) ExtractPartitions(ids map[uint64]bool, unparsed bool) *Store {
	slice := NewStore()
	s.mu.Lock()
	sp := obs.StartSpan(s.holdDur)
	take := func(p *partition) *partition {
		if p == nil || p.entries() == 0 {
			return nil
		}
		slice.clients.Add(int64(len(p.clients)))
		return p.clone()
	}
	for id := range ids {
		if p := take(s.parts[id]); p != nil {
			slice.parts[id] = p
		}
	}
	if unparsed {
		slice.unparsed = take(s.unparsed)
	}
	s.mu.Unlock()
	sp.End()
	return slice
}

// clone returns a new partition holding p's entries, copied by
// capture's rules: clients by copyClient, series as cap-clamped
// headers, dedup marks and neighbor tables by value.
func (p *partition) clone() *partition {
	c := &partition{
		clients: make(map[dot11.MAC]*ClientAggregate, len(p.clients)), seen: maps.Clone(p.seen),
		radio: clipped(p.radio), scans: clipped(p.scans), crashes: clipped(p.crashes),
		neighbors: make(map[string]map[dot11.BSSID]NeighborEntry, len(p.neighbors)),
		links:     make(map[LinkKey]*LinkSeries, len(p.links)),
	}
	aggs := make([]ClientAggregate, 0, len(p.clients))
	for mac, a := range p.clients {
		aggs = append(aggs, copyClient(a))
		c.clients[mac] = &aggs[len(aggs)-1]
	}
	for serial, m := range p.neighbors {
		c.neighbors[serial] = maps.Clone(m)
	}
	links := make([]LinkSeries, 0, len(p.links))
	for k, l := range p.links {
		links = append(links, LinkSeries{Key: k, Sent: slices.Clip(l.Sent), Deliver: slices.Clip(l.Deliver)})
		c.links[k] = &links[len(links)-1]
	}
	return c
}

// clipped copies a series map, each series cap-clamped.
func clipped[V any](m map[string][]V) map[string][]V {
	out := make(map[string][]V, len(m))
	for serial, v := range m {
		out[serial] = slices.Clip(v)
	}
	return out
}

// DeleteNetworks removes the partitions of the given networks and
// reports how many of them held data and how many keyed entries went
// away. It holds the lock exclusively, so no report is half-applied
// around it and no reader or capture sees it half-done. Dedup
// high-water marks go too: after a cutover the network lives
// elsewhere, and if it ever migrates back its slice carries the
// watermark with it.
func (s *Store) DeleteNetworks(ids map[uint64]bool) (networks, entries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for id := range ids {
		if p := s.parts[id]; p != nil {
			if n := p.entries(); n > 0 {
				networks++
				entries += n
			}
			s.clients.Add(-int64(len(p.clients)))
			delete(s.parts, id)
		}
	}
	return networks, entries
}

// IDSet turns an ID list into the set form ExtractNetworks and
// DeleteNetworks take.
func IDSet(ids []uint64) map[uint64]bool {
	set := make(map[uint64]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return set
}

// Part marks networks as mid-migration: IsParted turns true for each,
// and the daemon's harvest path refuses to ack their reports, so
// devices hold their queues until the networks' new home is serving.
func (s *Store) Part(ids []uint64) {
	s.migMu.Lock()
	s.parted = union(s.parted, IDSet(ids))
	s.migMu.Unlock()
}

// Unpart clears the parted mark — the rollback half of Part.
func (s *Store) Unpart(ids []uint64) {
	s.migMu.Lock()
	for _, id := range ids {
		delete(s.parted, id)
	}
	s.migMu.Unlock()
}

// IsParted reports whether a network is currently refusing ingestion.
func (s *Store) IsParted(id uint64) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.parted[id]
}

// PartedIDs lists the parted networks, sorted (status display, tests).
func (s *Store) PartedIDs() []uint64 {
	s.migMu.Lock()
	out := make([]uint64, 0, len(s.parted))
	for id := range s.parted {
		out = append(out, id)
	}
	s.migMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// MarkAbsorbed records that a migration token's slice has been applied.
func (s *Store) MarkAbsorbed(token string) {
	s.migMu.Lock()
	s.absorbed = union(s.absorbed, map[string]bool{token: true})
	s.migMu.Unlock()
}

// HasAbsorbed reports whether a migration token was already applied.
func (s *Store) HasAbsorbed(token string) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.absorbed[token]
}

// AbsorbedCount returns how many migration tokens the store remembers.
func (s *Store) AbsorbedCount() int {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.absorbed)
}

// Absorb applies one migration slice on a destination shard: the gob
// snapshot is decoded through Load (it arrives from the query port, so
// it gets Load's validating walk, and a bad one changes nothing),
// anything the store already holds for the moved networks is deleted,
// the slice merges in through the deterministic Merge path, the
// networks are un-parted (receiving a slice makes this shard their
// home), and the token is marked done. A token that was already
// absorbed is a no-op returning false — that single check is what lets
// the coordinator retry blindly and lets WAL replay re-apply records
// without double-merging. Delete-before-merge makes absorption a
// replacement, so re-running an interrupted migration under a fresh
// token converges instead of duplicating series. The trailing argument
// is ignored (see Networks).
func (s *Store) Absorb(token string, ids []uint64, slice io.Reader, _ ...func(string) (uint64, bool)) (bool, error) {
	s.absorbMu.Lock()
	defer s.absorbMu.Unlock()
	if s.HasAbsorbed(token) {
		return false, nil
	}
	tmp := NewStore()
	if err := tmp.Load(slice); err != nil {
		return false, fmt.Errorf("backend: absorb %s: %w", token, err)
	}
	s.DeleteNetworks(IDSet(ids))
	s.Merge(tmp)
	s.Unpart(ids)
	s.MarkAbsorbed(token)
	return true, nil
}

// Drop removes the given networks and forgets the token that absorbed
// them — on a source shard after a verified cutover (token never
// absorbed there, so only the delete matters), or on a destination
// rolling back a failed migration (where clearing the token re-arms a
// retry). Returns DeleteNetworks' counts.
func (s *Store) Drop(token string, ids []uint64) (networks, entries int) {
	networks, entries = s.DeleteNetworks(IDSet(ids))
	s.migMu.Lock()
	delete(s.absorbed, token)
	s.migMu.Unlock()
	return networks, entries
}
