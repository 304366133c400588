package cluster

import "fmt"

// Map is the deterministic shard map: it assigns every network ID to
// one of Shards shards. The zero value is invalid; use NewMap.
//
// Assignment is consistent hashing in the jump-hash form: the network
// ID is first mixed through the splitmix64 finalizer (IDs are small
// contiguous integers, exactly the worst case for a bare modulus) and
// the mixed key walks Lamping & Veach's jump sequence. Two properties
// matter here:
//
//   - Determinism with zero coordination: agents, daemons, and routers
//     each compute Shard(id) locally and always agree, the same
//     contract the seeded RNG tree gives the parallel pipeline.
//   - Minimal movement on reshard: growing from N to N+1 shards moves
//     only ~1/(N+1) of the networks, so a rebalance re-harvests a
//     slice of the fleet, not all of it (TestMapConsistency pins the
//     bound).
type Map struct {
	// Shards is the cluster size; always >= 1.
	Shards int
}

// NewMap returns a shard map over n shards; n < 1 is clamped to 1 (a
// single-daemon deployment is a 1-shard cluster).
func NewMap(n int) Map {
	if n < 1 {
		n = 1
	}
	return Map{Shards: n}
}

// Shard returns the shard index in [0, m.Shards) owning network id.
func (m Map) Shard(id uint64) int {
	n := m.Shards
	if n <= 1 {
		return 0
	}
	return jump(mix64(id), n)
}

// Addr routes a network to its shard's address: addrs is indexed by
// shard, so len(addrs) must equal Shards.
func (m Map) Addr(id uint64, addrs []string) (string, error) {
	if len(addrs) != m.Shards {
		return "", fmt.Errorf("cluster: %d addrs for %d shards", len(addrs), m.Shards)
	}
	return addrs[m.Shard(id)], nil
}

// mix64 is the splitmix64 finalizer, a cheap well-distributed
// bijection. Contiguous network IDs differ only in their low bits; the
// premix turns them into uniform 64-bit keys before the jump walk.
func mix64(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	v ^= v >> 31
	return v
}

// jump is Lamping & Veach's jump consistent hash: O(log n), no state,
// and growing n moves the minimum possible share of keys.
func jump(key uint64, n int) int {
	var b, j int64 = -1, 0
	for j < int64(n) {
		b = j
		key = key*2862933555777941757 + 1
		j = int64(float64(b+1) * (float64(int64(1)<<31) / float64((key>>33)+1)))
	}
	return int(b)
}
