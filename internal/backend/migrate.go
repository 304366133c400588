package backend

import (
	"fmt"
	"io"
	"maps"
	"sort"

	"wlanscale/internal/dot11"
)

// This file is the store half of live shard rebalancing: extracting a
// per-network slice out of a source shard, deleting it after a
// verified cutover, and the two pieces of bookkeeping that make the
// dance crash-safe — a "parted" network set (the shard refuses to ack
// new reports for networks mid-migration, so devices requeue) and an
// "absorbed" token set (a migration slice is applied at most once per
// token, so WAL replay and coordinator retries are idempotent). The
// durable WAL records for these operations live in durable.go.

// Networks lists every network ID the store holds data for, sorted.
// Device-keyed series attribute by serial; client aggregates attribute
// through the APs that reported them. Serials netOf cannot parse are
// skipped — they belong to no network and never migrate.
func (s *Store) Networks(netOf NetworkFunc) []uint64 {
	set := make(map[uint64]bool)
	add := func(serial string) {
		if id, ok := netOf(serial); ok {
			set[id] = true
		}
	}
	s.mu.RLock()
	for serial := range s.seen {
		add(serial)
	}
	for serial := range s.radio {
		add(serial)
	}
	for serial := range s.scans {
		add(serial)
	}
	for serial := range s.neighbors {
		add(serial)
	}
	for serial := range s.crashes {
		add(serial)
	}
	for k := range s.links {
		add(k.From)
	}
	for _, c := range s.clients {
		if id, ok := networkOfClient(c, netOf); ok {
			set[id] = true
		}
	}
	s.mu.RUnlock()
	out := make([]uint64, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ExtractNetworks returns a fresh store holding everything the store
// has for the given networks — the migration slice a source shard
// exports. It is a capture filtered by network, so the slice is a
// consistent view between two reports even on a live daemon, ingest
// waits only for the capture, and the caller encodes the slice with no
// lock held. The slice shares the append-only series with the live
// store under capture's cap-clamp rule. Migration bookkeeping is data,
// not payload — the slice carries none of it.
func (s *Store) ExtractNetworks(ids map[uint64]bool, netOf NetworkFunc) *Store {
	out := func(serial string) bool {
		id, ok := netOf(serial)
		return !ok || !ids[id]
	}
	snap := s.capture()
	deleteSerials(snap.Seen, out)
	deleteSerials(snap.Radio, out)
	deleteSerials(snap.Scans, out)
	deleteSerials(snap.Crashes, out)
	deleteSerials(snap.Neighbors, out)
	maps.DeleteFunc(snap.Links, func(k LinkKey, _ *LinkSeries) bool { return out(k.From) })
	kept := snap.ClientList[:0]
	for i := range snap.ClientList {
		if id, ok := networkOfClient(&snap.ClientList[i], netOf); ok && ids[id] {
			kept = append(kept, snap.ClientList[i])
		}
	}
	snap.ClientList = kept
	snap.Absorbed, snap.Parted = nil, nil
	slice := &Store{}
	slice.install(snap)
	return slice
}

// deleteSerials deletes the entries of a serial-keyed map that del
// selects.
func deleteSerials[V any](m map[string]V, del func(string) bool) {
	maps.DeleteFunc(m, func(serial string, _ V) bool { return del(serial) })
}

// DeleteNetworks removes everything the store holds for the given
// networks and reports how many networks actually had data and how many
// keyed entries went away. It holds the lock exclusively, so no report
// is half-applied around it and no reader or capture sees it half-done.
// Dedup high-water marks are deleted too: after a cutover the network
// lives elsewhere, and if it ever migrates back its slice carries the
// watermark with it.
func (s *Store) DeleteNetworks(ids map[uint64]bool, netOf NetworkFunc) (networks, entries int) {
	removed := make(map[uint64]bool)
	drop := func(id uint64, ok bool) bool {
		if ok && ids[id] {
			removed[id] = true
			entries++
			return true
		}
		return false
	}
	in := func(serial string) bool { return drop(netOf(serial)) }
	s.mu.Lock()
	defer s.mu.Unlock()
	deleteSerials(s.seen, in)
	deleteSerials(s.radio, in)
	deleteSerials(s.scans, in)
	deleteSerials(s.crashes, in)
	deleteSerials(s.neighbors, in)
	maps.DeleteFunc(s.links, func(k LinkKey, _ *LinkSeries) bool { return in(k.From) })
	maps.DeleteFunc(s.clients, func(_ dot11.MAC, c *ClientAggregate) bool { return drop(networkOfClient(c, netOf)) })
	return len(removed), entries
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
	if len(ids) == 0 {
		return
	}
	s.migMu.Lock()
	if s.parted == nil {
		s.parted = make(map[uint64]bool)
	}
	for _, id := range ids {
		s.parted[id] = true
	}
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
	if s.absorbed == nil {
		s.absorbed = make(map[string]bool)
	}
	s.absorbed[token] = true
	s.migMu.Unlock()
}

// HasAbsorbed reports whether a migration token was already applied.
func (s *Store) HasAbsorbed(token string) bool {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return s.absorbed[token]
}

// ClearAbsorbed forgets a token — Drop's inverse-of-Absorb half, so a
// rolled-back migration can be retried under the same token.
func (s *Store) ClearAbsorbed(token string) {
	s.migMu.Lock()
	delete(s.absorbed, token)
	s.migMu.Unlock()
}

// AbsorbedCount returns how many migration tokens the store remembers.
func (s *Store) AbsorbedCount() int {
	s.migMu.Lock()
	defer s.migMu.Unlock()
	return len(s.absorbed)
}

// Absorb applies one migration slice on a destination shard: anything
// the store already holds for the moved networks is deleted, the gob
// snapshot merges in through the deterministic MergeSnapshot path, the
// networks are un-parted (receiving a slice makes this shard their
// home), and the token is marked done. A token that was already
// absorbed is a no-op returning false — that single check is what lets
// the coordinator retry blindly and lets WAL replay re-apply records
// without double-merging. Delete-before-merge makes absorption a
// replacement, so re-running an interrupted migration under a fresh
// token converges instead of duplicating series.
func (s *Store) Absorb(token string, ids []uint64, slice io.Reader, netOf NetworkFunc) (bool, error) {
	s.absorbMu.Lock()
	defer s.absorbMu.Unlock()
	if s.HasAbsorbed(token) {
		return false, nil
	}
	s.DeleteNetworks(IDSet(ids), netOf)
	if err := s.MergeSnapshot(slice); err != nil {
		return false, fmt.Errorf("backend: absorb %s: %w", token, err)
	}
	s.Unpart(ids)
	s.MarkAbsorbed(token)
	return true, nil
}

// Drop removes the given networks and forgets the token that absorbed
// them — on a source shard after a verified cutover (token never
// absorbed there, so only the delete matters), or on a destination
// rolling back a failed migration (where clearing the token re-arms a
// retry). Returns DeleteNetworks' counts.
func (s *Store) Drop(token string, ids []uint64, netOf NetworkFunc) (networks, entries int) {
	networks, entries = s.DeleteNetworks(IDSet(ids), netOf)
	s.ClearAbsorbed(token)
	return networks, entries
}
