package backend

import (
	"bytes"
	"os"
	"testing"
)

// FuzzStoreLoad feeds arbitrary bytes — seeded with valid, truncated,
// and bit-flipped gob snapshots — to Store.Load. The invariant is the
// recovery contract OpenDurable leans on: a load either succeeds or
// returns an error; it never panics, and on error the store is still
// usable (the caller falls back to an older checkpoint or an empty
// store and replays the WAL).
func FuzzStoreLoad(f *testing.F) {
	snap := func(n int) []byte {
		s := NewStore()
		for _, r := range durableReports(n) {
			s.Ingest(r)
		}
		var b bytes.Buffer
		if err := s.Save(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	valid := snap(20)
	f.Add([]byte{})
	f.Add(valid)
	f.Add(snap(1))
	f.Add(valid[:len(valid)/2]) // truncated
	f.Add(valid[:len(valid)-1]) // torn final byte
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0xff // bit-flipped mid-stream
	f.Add(flipped)
	f.Add([]byte("not a gob stream at all"))
	// A snapshot in the pre-ClientList format (per-client maps).
	legacy, err := os.ReadFile("testdata/snapshot-pr12.gob")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

	f.Fuzz(func(t *testing.T, data []byte) {
		s := NewStore()
		err := s.Load(bytes.NewReader(data))
		// Success or error, the store must remain usable: ingest a
		// report and read the aggregate back without blowing up.
		_ = err
		s.Ingest(usageReport("AP-FUZZ", 1_000_000, clientA, "Probe", 1, 1))
		if s.NumClients() == 0 {
			t.Fatal("store unusable after Load")
		}
		_ = s.Digest()
	})
}
