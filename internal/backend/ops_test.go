package backend

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// An op is four bytes: a kind, then arguments a, b and c. Each kind
// does the nearest thing on either store:
//
//	kind          plain Store                        DurableStore
//	opIngest      Ingest each of reports a           IngestBatch(reports a, nil)
//	opFrame       Ingest a v2 frame's decode         IngestBatchFrame of the frame
//	opMerge       Merge a partial holding them, or   IngestBatch with the raw bytes given
//	              MergeSnapshot of it for odd c
//	opExtract     ExtractNetworks(mask a), Save the slice and keep it
//	opAbsorb      Absorb kept slice a, token b       AbsorbSnapshot; odd c tears the slice
//	opDrop        Drop(token b, mask a)              DropNetworks
//	opPart        Part(mask a)                       PartNetworks
//	opUnpart      Unpart(mask a)                     UnpartNetworks
//	opCheckpoint  Save                               Checkpoint
//	opReboot      Load the last Save                 Close, OpenDurable at GOMAXPROCS a
//	opTear        Load of a torn Save fails          reopen with CrashPlan(seed b, horizon a),
//	                                                 recover from the tear at GOMAXPROCS c
//	opJunk        Load of garbage fails              append a record nothing decodes
const (
	opIngest = iota
	opFrame
	opMerge
	opExtract
	opAbsorb
	opDrop
	opPart
	opUnpart
	opCheckpoint
	opReboot
	opTear
	opJunk
	numOps
)

// maxOps bounds one input's sequence, so no input runs long.
const maxOps = 64

var opTokens = []string{"tok-0", "tok-1", "tok-2"}

// FuzzStoreOps decodes its input into an op sequence over a small fleet
// of three networks and runs it twice, each time beside a fresh model:
// once on a Store and once on a DurableStore. After every op the
// store's digest, Stats, PartedIDs, Networks and absorbed tokens must be
// the model's; so must what an op returns, every extracted slice, and
// every recovery's RecoveryStats the records the model says the WAL
// holds above its checkpoint and the skipped and torn counts of a bare
// wal.Open and Replay. A CrashPlan tear keeps the whole records below
// the index CrashPlan.Fired reports, as recovery does (see logged).
//
// The named scripts below and crashScript run as tests of their own, so
// the seeds here are a tour of every op kind, twice, so that each runs
// with state behind it, and random sequences.
func FuzzStoreOps(f *testing.F) {
	var tour []byte
	for round := byte(0); round < 2; round++ {
		for kind := range numOps {
			tour = append(tour, op(kind, spec(3, 1, fresh, 2), byte(kind), round)...)
		}
	}
	f.Add(tour)
	for seed := int64(1); seed <= 2; seed++ {
		ops := make([]byte, 4*maxOps)
		rand.New(rand.NewSource(seed)).Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}

// runOps runs ops on a Store and then on a DurableStore and returns
// both passes.
func runOps(t *testing.T, ops []byte) (plain, durable *opRun) {
	t.Helper()
	ops = ops[:min(len(ops), 4*maxOps)&^3]
	plain = newRun(t, NewStore(), nil)
	plain.run(ops)
	d, _, err := OpenDurable(t.TempDir(), durableOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	durable = newRun(t, d.Store, d)
	defer func() { durable.d.Close() }()
	durable.run(ops)
	return plain, durable
}

// segmentBytes is the WAL segment size of every durable pass: small, so
// a sequence spans several segments.
const segmentBytes = 1 << 10

func durableOpts(plan *wal.CrashPlan) DurableOptions {
	return DurableOptions{WAL: wal.Options{Policy: wal.PolicyOff, NoMmap: true, SegmentBytes: segmentBytes, Crash: plan}}
}

// opRun is one pass of an op sequence over one store and its model.
type opRun struct {
	t     *testing.T
	where string
	m     *model
	s     *Store
	d     *DurableStore // nil on the plain pass
	seq   map[string]uint64
	kept  []keptSlice
	// The model at the last Save or Checkpoint (nil before one), and the
	// plain pass's Save. The durable pass also keeps the whole WAL
	// records above the checkpoint, the armed crash plan, the GOMAXPROCS
	// to recover from its tear at, the records appended since the WAL
	// was opened, how many tears fired and every recovery.
	ckpt       *model
	saved      []byte
	records    []record
	plan       *wal.CrashPlan
	procs      int
	appended   int
	fired      int
	recoveries []recovery
}

// recovery is one OpenDurable: its stats, the GOMAXPROCS it ran at and
// how many WAL segments it read.
type recovery struct {
	stats RecoveryStats
	procs int
	segs  int
}

type keptSlice struct {
	ids []uint64
	gob []byte
	m   *model
}

// record is one WAL record as the model replays it; nil is a record
// replay cannot apply.
type record func(*model)

// apply replays recs on m and returns how many were bad.
func apply(m *model, recs []record) (bad int) {
	for _, rec := range recs {
		if rec == nil {
			bad++
		} else {
			rec(m)
		}
	}
	return bad
}

func newRun(t *testing.T, s *Store, d *DurableStore) *opRun {
	return &opRun{t: t, m: newModel(), s: s, d: d, seq: map[string]uint64{}}
}

func (r *opRun) fatalf(format string, args ...any) {
	r.t.Helper()
	pass := map[bool]string{true: "Store", false: "DurableStore"}[r.d == nil]
	r.t.Fatalf("%s %s: %s", pass, r.where, fmt.Sprintf(format, args...))
}

func (r *opRun) run(ops []byte) {
	for i := 0; i < len(ops); i += 4 {
		kind, a, b, c := int(ops[i])%numOps, ops[i+1], ops[i+2], ops[i+3]
		r.where = fmt.Sprintf("op %d {%d, %d, %d, %d}", i/4, kind, a, b, c)
		r.step(kind, a, b, c)
		r.check(r.s, r.m)
	}
}

// check holds s to m.
func (r *opRun) check(s *Store, m *model) {
	r.t.Helper()
	if got, want := s.Digest(), m.digest(); got != want {
		r.fatalf("digest %s, model %s", got, want)
	}
	if ingests, dupes := s.Stats(); ingests != m.ingests || dupes != m.dupes {
		r.fatalf("Stats %d/%d, model %d/%d", ingests, dupes, m.ingests, m.dupes)
	}
	if got, want := s.PartedIDs(), sortedIDs(m.parted); !slices.Equal(got, want) {
		r.fatalf("PartedIDs %v, model %v", got, want)
	}
	if got, want := s.Networks(NetworkOfSerial), m.networks(); !slices.Equal(got, want) {
		r.fatalf("Networks %v, model %v", got, want)
	}
	for _, tok := range opTokens {
		if s.HasAbsorbed(tok) != m.absorbed[tok] {
			r.fatalf("HasAbsorbed(%s) = %t", tok, s.HasAbsorbed(tok))
		}
	}
	if s.AbsorbedCount() != len(m.absorbed) {
		r.fatalf("AbsorbedCount %d, model %d", s.AbsorbedCount(), len(m.absorbed))
	}
}

func sortedIDs(set map[uint64]bool) []uint64 {
	var out []uint64
	for id := range set {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

func procsOf(a byte) int { return []int{1, 2, 8}[a%3] }

// idsOf reads a network mask: bits 0–2 are networks 1–3, bit 3 is
// network 9, which never holds data.
func idsOf(a byte) []uint64 {
	var ids []uint64
	for bit, id := range []uint64{1, 2, 3, 9} {
		if a>>bit&1 == 1 {
			ids = append(ids, id)
		}
	}
	return ids
}

// reportsOf reads a report spec: 1+a>>6 reports from AP a>>2&3 of
// network 1+a&3, where network 4 stands for a serial no network parses.
// Their seqnos follow mode a>>4&3: the device's next (0 and 1), its
// last again (2) or zero (3). b and c seed the contents.
func (r *opRun) reportsOf(a, b, c byte) []*telemetry.Report {
	net, ap := 1+int(a&3), int(a>>2&3)
	src := rand.New(rand.NewSource(int64(b)<<8 | int64(c)))
	var out []*telemetry.Report
	for i := 0; i <= int(a>>6); i++ {
		rep := randomReport(src, net, ap, 0)
		if net == 4 {
			rep.Serial = fmt.Sprintf("AP-%d", ap)
		}
		switch a >> 4 & 3 {
		case 0, 1:
			r.seq[rep.Serial]++
			rep.SeqNo = r.seq[rep.Serial]
		case 2:
			rep.SeqNo = r.seq[rep.Serial]
		}
		out = append(out, rep)
	}
	return out
}

// frame encodes reports as one v2 batch payload and decodes it back.
func (r *opRun) frame(reports []*telemetry.Report) ([]byte, []*telemetry.Report) {
	be := telemetry.NewBatchEncoder(0)
	for _, rep := range reports {
		be.Add(rep)
	}
	payload := be.Finish(0, 0, nil)
	f, err := telemetry.DecodeBatchFrame(payload)
	if err != nil {
		r.fatalf("decode frame: %v", err)
	}
	return payload, f.Reports
}

// ingestRecords is one record per report, or one for them all.
func ingestRecords(reports []*telemetry.Report, one bool) []record {
	recs := make([]record, len(reports))
	for i, rep := range reports {
		recs[i] = func(m *model) { m.ingest(rep) }
	}
	if one {
		return []record{func(m *model) { apply(m, recs) }}
	}
	return recs
}

func (r *opRun) step(kind int, a, b, c byte) {
	ids, tok := idsOf(a), opTokens[int(b)%len(opTokens)]
	switch kind {
	case opIngest, opFrame, opMerge:
		r.ingest(kind, r.reportsOf(a, b, c), c)
	case opExtract:
		slice := r.s.ExtractNetworks(IDSet(ids), NetworkOfSerial)
		want := r.m.extract(ids)
		r.check(slice, want)
		var buf bytes.Buffer
		if err := slice.Save(&buf); err != nil {
			r.fatalf("save slice: %v", err)
		}
		// The slice shares series with the store; growing it must not
		// show in the store, which the check after this op sees.
		slice.Ingest(randomReport(rand.New(rand.NewSource(int64(c))), 1, 0, 0))
		r.kept = append(r.kept, keptSlice{ids, buf.Bytes(), want})
	case opAbsorb:
		if len(r.kept) > 0 {
			r.absorb(r.kept[int(a)%len(r.kept)], tok, c&1 == 1)
		}
	case opDrop:
		var n, e, gn, ge int
		var err error
		if r.d == nil {
			gn, ge = r.s.Drop(tok, ids, NetworkOfSerial)
		} else {
			gn, ge, err = r.d.DropNetworks(tok, ids)
		}
		if r.logged([]record{func(m *model) { n, e = m.drop(tok, ids) }}, err, true) && (gn != n || ge != e) {
			r.fatalf("drop = %d networks %d entries, model %d %d", gn, ge, n, e)
		}
	case opPart, opUnpart:
		on := kind == opPart
		var err error
		switch {
		case r.d == nil && on:
			r.s.Part(ids)
		case r.d == nil:
			r.s.Unpart(ids)
		case on:
			err = r.d.PartNetworks(ids)
		default:
			err = r.d.UnpartNetworks(ids)
		}
		r.logged([]record{func(m *model) { m.part(ids, on) }}, err, true)
	case opCheckpoint:
		r.checkpoint()
	case opReboot:
		if r.d == nil {
			if r.saved == nil {
				r.checkpoint()
			}
			if err := r.s.Load(bytes.NewReader(r.saved)); err != nil {
				r.fatalf("load: %v", err)
			}
			r.m = r.ckpt.loaded()
			return
		}
		r.reboot(procsOf(a), nil, false)
	case opTear:
		if r.d == nil {
			var buf bytes.Buffer
			if err := r.s.Save(&buf); err != nil {
				r.fatalf("save: %v", err)
			}
			if r.s.Load(bytes.NewReader(buf.Bytes()[:buf.Len()/2])) == nil {
				r.fatalf("a torn snapshot loaded")
			}
			return
		}
		r.reboot(1, wal.NewCrashPlan(uint64(b), 1+int(a%8)), false)
		r.procs = procsOf(c)
	case opJunk:
		if r.d == nil {
			if r.s.Load(bytes.NewReader([]byte("not a gob stream"))) == nil {
				r.fatalf("garbage loaded")
			}
			return
		}
		junk := [][]byte{{telemetry.WireV2, 0xff}, binary.AppendUvarint([]byte{recPart, 0}, 1<<60), {0x0a, 0x05}}[a%3]
		_, err := r.d.WAL().Append(junk)
		r.logged([]record{nil}, err, false)
	}
}

func (r *opRun) ingest(kind int, reports []*telemetry.Report, c byte) {
	recs := ingestRecords(reports, kind == opFrame)
	var err error
	switch {
	case r.d == nil && kind == opMerge:
		p, pm := NewStore(), newModel()
		for _, rep := range reports {
			p.Ingest(rep)
			pm.ingest(rep)
		}
		if c&1 == 0 {
			r.s.Merge(p)
		} else {
			var buf bytes.Buffer
			if err = p.Save(&buf); err == nil {
				err = r.s.MergeSnapshot(&buf)
			}
			pm = pm.loaded()
		}
		recs = []record{func(m *model) { m.merge(pm) }}
	case r.d == nil:
		decoded := reports
		if kind == opFrame {
			_, decoded = r.frame(reports)
		}
		for _, rep := range decoded {
			r.s.Ingest(rep)
		}
	case kind == opIngest:
		err = r.d.IngestBatch(reports, nil)
	case kind == opFrame:
		payload, decoded := r.frame(reports)
		err = r.d.IngestBatchFrame(decoded, payload)
	default:
		raw := make([][]byte, len(reports))
		for i, rep := range reports {
			raw[i] = rep.Marshal()
		}
		err = r.d.IngestBatch(reports, raw)
	}
	r.logged(recs, err, true)
}

// absorb absorbs k under tok, torn or whole. A known token must change
// nothing and log nothing; a torn slice must fail and log a record
// replay counts bad.
func (r *opRun) absorb(k keptSlice, tok string, torn bool) {
	gob, known := k.gob, r.m.absorbed[tok]
	if torn {
		gob = gob[:len(gob)/2]
	}
	var applied bool
	var err error
	if r.d == nil {
		applied, err = r.s.Absorb(tok, k.ids, bytes.NewReader(gob), NetworkOfSerial)
	} else {
		applied, err = r.d.AbsorbSnapshot(tok, k.ids, gob)
	}
	if known {
		if applied || err != nil {
			r.fatalf("re-absorb of %s = %t, %v; want a no-op", tok, applied, err)
		}
		return
	}
	var rec record
	if !torn {
		rec = func(m *model) { m.absorb(tok, k.ids, k.m) }
	}
	if r.logged([]record{rec}, err, true) && (applied == torn || (err != nil) != torn) {
		r.fatalf("absorb of %s (torn %t) = %t, %v", tok, torn, applied, err)
	}
}

// logged settles an op that made recs, whose error was err: the model
// applies them and, on the durable pass, they join the WAL's records.
// Only a bad record may come with an error. When the append tore
// instead, an op that took the store's write path must have left it
// degraded, and the store recovers; logged then reports false. The
// model keeps the whole records below the plan's index because recovery
// does today, although a torn batch's prefix was never applied or acked
// (an open defect, ROADMAP item 10).
func (r *opRun) logged(recs []record, err error, viaStore bool) bool {
	if errors.Is(err, wal.ErrCrashed) {
		fired, at := r.plan.Fired()
		if !fired || at < r.appended || at >= r.appended+len(recs) {
			r.fatalf("tore with plan fired=%t at %d, %d records appended before the op's %d", fired, at, r.appended, len(recs))
		}
		if viaStore && (!r.d.Degraded() || !errors.Is(r.d.IngestBatch(r.reportsOf(0x30, 0, 0), nil), ErrDegraded)) {
			r.fatalf("a torn append left the store accepting batches")
		}
		r.records = append(r.records, recs[:at-r.appended]...)
		r.fired++
		r.reboot(r.procs, nil, true)
		return false
	}
	if err != nil && recs[0] != nil {
		r.fatalf("%v", err)
	}
	apply(r.m, recs)
	if r.d != nil {
		r.records = append(r.records, recs...)
		r.appended += len(recs)
	}
	return true
}

func (r *opRun) checkpoint() {
	if r.d == nil {
		var buf bytes.Buffer
		if err := r.s.Save(&buf); err != nil {
			r.fatalf("save: %v", err)
		}
		r.saved, r.ckpt = buf.Bytes(), r.m.loaded()
		return
	}
	if err := r.d.Checkpoint(); err != nil {
		r.fatalf("checkpoint: %v", err)
	}
	r.ckpt, r.records = r.m.loaded(), nil
}

// reboot closes the durable store and recovers it with plan armed, and
// the model the same way: the checkpoint, then every record above it.
// The skipped records, torn bytes and segments recovery must report are
// counted first by a bare wal.Open and Replay of a copy of the
// directory, since recovery repairs a torn tail in place.
func (r *opRun) reboot(procs int, plan *wal.CrashPlan, torn bool) {
	if err := r.d.Close(); err != nil && !torn {
		r.fatalf("close: %v", err)
	}
	skipped, tornBytes, segs := r.walCounts()
	prev := runtime.GOMAXPROCS(procs)
	d, stats, err := OpenDurable(r.d.dir, durableOpts(plan))
	runtime.GOMAXPROCS(prev)
	if err != nil {
		r.fatalf("recover: %v", err)
	}
	r.d, r.s, r.plan, r.appended = d, d.Store, plan, 0
	r.m = newModel()
	if r.ckpt != nil {
		r.m = r.ckpt.loaded()
	}
	bad := apply(r.m, r.records)
	if stats.Replayed != len(r.records) || stats.BadRecords != bad || stats.Fallbacks != 0 ||
		(stats.CheckpointFile != "") != (r.ckpt != nil) || (tornBytes > 0) != torn || stats.Elapsed <= 0 ||
		stats.Skipped != skipped || stats.TornBytes != tornBytes {
		r.fatalf("recovery %+v; model: %d records, %d bad, checkpoint %t, torn %t; wal: %d skipped, %d torn bytes",
			stats, len(r.records), bad, r.ckpt != nil, torn, skipped, tornBytes)
	}
	r.recoveries = append(r.recoveries, recovery{stats, procs, segs})
}

// walCounts opens a copy of the durable store's directory with a bare
// wal.Open and replays it from the newest checkpoint, counting the
// records below it, the torn bytes and the segments.
func (r *opRun) walCounts() (skipped int, torn int64, segs int) {
	dir := r.t.TempDir()
	ents, err := os.ReadDir(r.d.dir)
	for _, e := range ents {
		b, rerr := os.ReadFile(filepath.Join(r.d.dir, e.Name()))
		err = errors.Join(err, rerr, os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644))
	}
	lsns, lerr := listCheckpoints(dir)
	w, werr := wal.Open(dir, durableOpts(nil).WAL)
	if err = errors.Join(err, lerr, werr); err != nil {
		r.fatalf("copy the WAL: %v", err)
	}
	defer w.Close()
	lsns = append(lsns, 0) // from 0 when there is no checkpoint
	rs, err := w.Replay(lsns[0], func(wal.LSN, []byte) error { return nil })
	if err != nil {
		r.fatalf("replay the copy: %v", err)
	}
	return rs.Skipped, rs.TornBytes + w.TornAtOpen(), w.Segments()
}

// The scenarios the sequencer replaced, kept as named scripts: each runs
// under its old test's name, on both stores, against the model. Some
// also check that they exercise what their name says.

func op(kind int, a, b, c byte) []byte { return []byte{byte(kind), a, b, c} }

// spec is a report spec for reportsOf: n reports from AP ap of network
// net (4: a serial no network parses) with seqno mode mode.
func spec(net, ap int, mode byte, n int) byte {
	return byte(net-1) | byte(ap)<<2 | mode<<4 | byte(n-1)<<6
}

const fresh, again, zero = 0, 2, 3

// nets is the mask idsOf reads back as ids.
func nets(ids ...int) byte {
	var a byte
	for _, id := range ids {
		a |= map[int]byte{1: 1, 2: 2, 3: 4, 9: 8}[id]
	}
	return a
}

var (
	ingestNets = slices.Concat(op(opIngest, spec(1, 0, fresh, 2), 1, 1), op(opIngest, spec(2, 1, fresh, 3), 1, 2),
		op(opIngest, spec(3, 2, fresh, 2), 1, 3), op(opIngest, spec(4, 0, fresh, 1), 1, 4))
	checkpoint = op(opCheckpoint, 0, 0, 0)
	reboot     = op(opReboot, 0, 0, 0)
)

var storeScripts = map[string][]byte{
	"TestIngestDeduplicatesBySeq": slices.Concat(op(opIngest, spec(1, 0, fresh, 1), 2, 1),
		op(opIngest, spec(1, 0, again, 1), 2, 1), op(opIngest, spec(1, 0, fresh, 1), 2, 2)),
	"TestIngestSeqZeroAlwaysAccepted": slices.Concat(op(opIngest, spec(1, 0, zero, 2), 3, 1), op(opIngest, spec(1, 0, zero, 1), 3, 1)),
	"TestSaveLoadRoundTrip":           slices.Concat(ingestNets, checkpoint, reboot, op(opIngest, spec(2, 1, again, 1), 4, 1)),
	"TestMergeEqualsDirectIngest": slices.Concat(op(opMerge, spec(1, 0, fresh, 3), 5, 1), op(opMerge, spec(1, 1, fresh, 2), 5, 2),
		op(opMerge, spec(2, 0, fresh, 4), 5, 3), op(opIngest, spec(1, 0, again, 1), 5, 4), op(opIngest, spec(2, 0, fresh, 1), 5, 5)),
	"TestMergeOverlappingClients": slices.Concat(op(opMerge, spec(1, 0, fresh, 4), 6, 1), op(opMerge, spec(1, 1, fresh, 4), 6, 2),
		op(opMerge, spec(1, 2, zero, 4), 6, 3)),
	"TestExtractDeletePartition": slices.Concat(ingestNets, op(opExtract, nets(2, 3), 0, 0), op(opDrop, nets(2, 3), 0, 0),
		op(opAbsorb, 0, 1, 0)),
	"TestAbsorbTokenIdempotent": slices.Concat(ingestNets, op(opExtract, nets(1), 0, 0), op(opIngest, spec(1, 0, fresh, 1), 7, 1),
		op(opAbsorb, 0, 0, 0), op(opIngest, spec(1, 0, fresh, 1), 7, 2), op(opAbsorb, 0, 0, 0), op(opAbsorb, 0, 1, 0),
		op(opAbsorb, 0, 2, 1)),
	"TestPartUnpartAndDrop": slices.Concat(ingestNets, op(opPart, nets(2, 9), 0, 0), op(opUnpart, nets(9), 0, 0),
		op(opExtract, nets(2), 0, 0), op(opAbsorb, 0, 0, 0), op(opPart, nets(1), 0, 0), op(opDrop, nets(1, 2), 0, 0)),
	"TestMigrationStateSurvivesSnapshot": slices.Concat(ingestNets, op(opPart, nets(9), 0, 0), op(opExtract, nets(1), 0, 0),
		op(opAbsorb, 0, 1, 0), checkpoint, reboot),
	"TestDurableMigrationReplay": slices.Concat(ingestNets, op(opExtract, nets(1), 0, 0), op(opIngest, spec(1, 1, fresh, 2), 8, 1),
		op(opPart, nets(1), 0, 0), op(opAbsorb, 0, 0, 0), reboot, op(opAbsorb, 0, 0, 0), checkpoint,
		op(opDrop, nets(1), 0, 0), reboot),
	"TestAbsorbIntoEmptyDurableStore": slices.Concat(op(opIngest, spec(3, 0, fresh, 4), 9, 1), op(opIngest, spec(3, 1, fresh, 4), 9, 2),
		op(opIngest, spec(3, 2, fresh, 4), 9, 3), op(opExtract, nets(3), 0, 0), op(opDrop, nets(3), 1, 0), checkpoint,
		op(opAbsorb, 0, 0, 0), reboot),
	"TestDurableReplayMatchesControl": slices.Concat(ingestNets, op(opIngest, spec(1, 1, fresh, 4), 10, 1), checkpoint,
		op(opIngest, spec(2, 2, fresh, 4), 10, 2), op(opIngest, spec(1, 1, zero, 2), 10, 3), reboot),
	"TestDurableReplayIdempotent":       slices.Concat(ingestNets, checkpoint, op(opIngest, spec(2, 1, fresh, 3), 11, 1), reboot, reboot, reboot),
	"TestDurableCheckpointNewerThanWAL": slices.Concat(ingestNets, checkpoint, reboot),
	"TestIngestBatchFrameRecovers": slices.Concat(op(opFrame, spec(1, 0, fresh, 4), 12, 1), op(opFrame, spec(2, 1, fresh, 4), 12, 2),
		op(opFrame, spec(1, 0, again, 2), 12, 3), op(opFrame, spec(3, 3, zero, 4), 12, 4), reboot, op(opJunk, 0, 0, 0), reboot),
	"TestIngestUnsortedApps": slices.Concat(ingestNets, op(opIngest, spec(1, 0, fresh, 4), 16, 1),
		op(opMerge, spec(1, 0, fresh, 4), 16, 2)),
	"TestNetworksListsEveryNetwork": ingestNets,
	"TestLoadGarbage":               slices.Concat(ingestNets, op(opJunk, 0, 0, 0)),
	"TestDurableEmptyWAL":           reboot,
	"TestDigestStability":           slices.Concat(stableA[0], stableA[1], stableB[0], stableA[2], stableB[1]),
	"TestReplayPipelineMatchesSerial": slices.Concat(op(opIngest, spec(1, 0, fresh, 1), 13, 1), op(opIngest, spec(1, 1, fresh, 1), 13, 2),
		checkpoint, op(opIngest, spec(2, 0, fresh, 4), 13, 3), op(opFrame, spec(3, 1, fresh, 4), 13, 4),
		op(opExtract, nets(2), 0, 0), op(opPart, nets(2), 0, 0), op(opAbsorb, 0, 0, 0), op(opIngest, spec(2, 0, fresh, 2), 13, 5),
		op(opDrop, nets(3), 1, 0), op(opPart, nets(1, 9), 0, 0), op(opUnpart, nets(1), 0, 0), op(opJunk, 0, 0, 0),
		op(opJunk, 1, 0, 0), op(opJunk, 2, 0, 0), op(opIngest, spec(1, 0, fresh, 3), 13, 6), op(opReboot, 0, 0, 0),
		op(opReboot, 1, 0, 0), op(opReboot, 2, 0, 0), op(opTear, 0, 1, 0), op(opIngest, spec(2, 1, fresh, 2), 13, 7),
		op(opTear, 1, 2, 1), op(opFrame, spec(3, 1, fresh, 2), 13, 8), op(opIngest, spec(1, 1, zero, 1), 13, 9),
		op(opTear, 0, 3, 2), op(opPart, nets(3), 0, 0)),
}

// stableA and stableB are two APs' reports, each with a redelivery;
// TestDigestStability interleaves them in two orders.
var (
	stableA = [][]byte{op(opIngest, spec(1, 0, fresh, 2), 15, 1), op(opIngest, spec(1, 0, again, 1), 15, 2),
		op(opIngest, spec(1, 0, fresh, 1), 15, 4)}
	stableB = [][]byte{op(opIngest, spec(2, 1, fresh, 3), 15, 3), op(opIngest, spec(2, 1, again, 2), 15, 5)}
)

// crashScript arms a CrashPlan drawn from seed that tears one of the
// first eight records after it, and then logs ten: single reports, a
// batch of three, so a tear can land mid-batch, a frame and migration
// steps.
func crashScript(seed byte) []byte {
	return slices.Concat(ingestNets, checkpoint, op(opExtract, nets(1), 0, 0), op(opTear, 7, seed, 0),
		op(opIngest, spec(1, 0, fresh, 1), 14, 1), op(opIngest, spec(2, 1, fresh, 3), 14, 2), op(opFrame, spec(3, 0, fresh, 2), 14, 3),
		op(opPart, nets(2), 0, 0), op(opAbsorb, 0, 0, 0), op(opIngest, spec(1, 1, zero, 2), 14, 4), op(opDrop, nets(3), 1, 0))
}

func runScript(t *testing.T) (plain, durable *opRun) {
	ops, ok := storeScripts[t.Name()]
	if !ok {
		t.Fatalf("no script named %s", t.Name())
	}
	return runOps(t, ops)
}

func TestIngestDeduplicatesBySeq(t *testing.T)        { runScript(t) }
func TestIngestSeqZeroAlwaysAccepted(t *testing.T)    { runScript(t) }
func TestSaveLoadRoundTrip(t *testing.T)              { runScript(t) }
func TestMergeEqualsDirectIngest(t *testing.T)        { runScript(t) }
func TestMergeOverlappingClients(t *testing.T)        { runScript(t) }
func TestExtractDeletePartition(t *testing.T)         { runScript(t) }
func TestAbsorbTokenIdempotent(t *testing.T)          { runScript(t) }
func TestPartUnpartAndDrop(t *testing.T)              { runScript(t) }
func TestMigrationStateSurvivesSnapshot(t *testing.T) { runScript(t) }
func TestDurableMigrationReplay(t *testing.T)         { runScript(t) }
func TestDurableReplayMatchesControl(t *testing.T)    { runScript(t) }
func TestDurableReplayIdempotent(t *testing.T)        { runScript(t) }
func TestDurableCheckpointNewerThanWAL(t *testing.T)  { runScript(t) }
func TestIngestBatchFrameRecovers(t *testing.T)       { runScript(t) }
func TestNetworksListsEveryNetwork(t *testing.T)      { runScript(t) }
func TestLoadGarbage(t *testing.T)                    { runScript(t) }
func TestDurableEmptyWAL(t *testing.T)                { runScript(t) }
func TestIngestUnsortedApps(t *testing.T)             { runScript(t) }

// TestDigestStability: ingest grouped by AP instead reaches the same
// digest.
func TestDigestStability(t *testing.T) {
	plain, _ := runScript(t)
	if other, _ := runOps(t, slices.Concat(slices.Concat(stableB...), slices.Concat(stableA...))); plain.s.Digest() != other.s.Digest() {
		t.Fatal("digest depends on the order of the APs' reports")
	}
}

// TestAbsorbIntoEmptyDurableStore: a fresh rebalance destination's first
// WAL record is the absorbed slice, which can be larger than a segment.
func TestAbsorbIntoEmptyDurableStore(t *testing.T) {
	_, d := runScript(t)
	if last := d.recoveries[len(d.recoveries)-1].stats; len(d.kept[0].gob) <= segmentBytes || last.Replayed != 1 {
		t.Fatalf("slice of %d bytes, %d records above the checkpoint", len(d.kept[0].gob), last.Replayed)
	}
}

// TestReplayPipelineMatchesSerial: every recovery meets records below the
// checkpoint, the three junk records and several segments; they run at
// GOMAXPROCS 1, 2 and 8, and some meet a torn tail.
func TestReplayPipelineMatchesSerial(t *testing.T) {
	_, d := runScript(t)
	procs, torn := map[int]bool{}, false
	for _, rec := range d.recoveries {
		if rec.stats.Skipped == 0 || rec.stats.BadRecords != 3 || rec.segs < 2 {
			t.Fatalf("recovery %+v misses a record shape", rec)
		}
		procs[rec.procs], torn = true, torn || rec.stats.TornBytes > 0
	}
	if len(procs) != 3 || !torn {
		t.Fatalf("recoveries at GOMAXPROCS %v, torn %t", procs, torn)
	}
}

func TestDurableCrashPlanSeeds(t *testing.T) {
	for seed := byte(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			if _, d := runOps(t, crashScript(seed)); d.fired != 1 {
				t.Fatal("the crash plan did not fire")
			}
		})
	}
}
