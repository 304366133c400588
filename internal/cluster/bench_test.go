package cluster

import "testing"

// BenchmarkMergedDigest measures Router.MergedDigest over two shards
// served on loopback with 400 networks (4,000 clients) between them:
// each shard hashes its partitions and answers one line per network,
// and the coordinator composes the lines.
func BenchmarkMergedDigest(b *testing.B) {
	r, _ := serveShards(b, shardStores(2, clusterReports(1, 400)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if dig, err := r.MergedDigest(); err != nil || dig.Degraded {
			b.Fatalf("merged digest: %+v, %v", dig, err)
		}
	}
}
