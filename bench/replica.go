package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"wlanscale/internal/backend"
	"wlanscale/internal/telemetry"
	"wlanscale/internal/wal"
)

// The harvest replica: the daemon's harvest path rebuilt in-process so
// bench code can put a span around each exported call. One
// telemetry.Agent serves a loopback TCP connection, a telemetry.Poller
// polls it, and the poller's BeforeAck / BeforeAckFrame hook — where
// merakid makes a batch durable — is a bench closure that spans
// DurableStore.IngestBatch / IngestBatchFrame.

// replicaBatches is how many poll rounds one pass of the replica makes.
func (e *env) replicaBatches() int { return e.size(160, 8) }

// replicaResult is one pass of the replica.
type replicaResult struct {
	wall time.Duration
	// Medians over the pass, µs: one Agent.Enqueue, one round of polling
	// 64 reports, that round minus its durable-ingest children, and the
	// children.
	enqueueUS, pollUS, pollSelfUS, ingestUS float64
	// meanRoundUS is the mean cost of a full round (64 enqueues and the
	// poll): above the medians by whatever GC cycles and background WAL
	// flushes cost the unlucky rounds.
	meanRoundUS float64
	frameBytes  float64 // mean agent→poller report frame
}

// harvestReplica pushes batches×64 reports of f (from report number
// from) through the replica on the given wire version, recording spans
// to tr. The durable store lives in dir, which is left in place so the
// caller can time a recovery over its WAL.
func harvestReplica(dir string, f *feed, from, batches int, wire byte, tr *tracer) (*replicaResult, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer ln.Close()
	ds, _, err := backend.OpenDurable(dir, backend.DurableOptions{WAL: wal.Options{Policy: wal.PolicyInterval}})
	if err != nil {
		return nil, err
	}
	defer ds.Close()

	var wrote atomic.Int64
	agent := telemetry.NewAgent("Q2BN-9999-0000", tunnelKey)
	agent.Wire = wire
	served := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			served <- err
			return
		}
		served <- agent.ServeConn(countConn{conn, &wrote})
	}()
	conn, err := ln.Accept()
	if err != nil {
		return nil, err
	}
	p, err := telemetry.AcceptPoller(conn, tunnelKey)
	if err != nil {
		return nil, err
	}
	p.NegotiateWire(wire)

	// The hook runs inside Poll, so the poll span open at that moment is
	// its parent.
	pollSpan, batchNo := -1, 0
	p.BeforeAck = func(reports []*telemetry.Report, raw [][]byte) error {
		id := tr.start("backend", "DurableStore.IngestBatch", pollSpan, batchNo)
		defer tr.end(id)
		return ds.IngestBatch(reports, raw)
	}
	p.BeforeAckFrame = func(reports []*telemetry.Report, payload []byte) error {
		id := tr.start("backend", "DurableStore.IngestBatchFrame", pollSpan, batchNo)
		defer tr.end(id)
		return ds.IngestBatchFrame(reports, payload)
	}

	first := len(tr.spans)
	got := make([]int, batches) // reports each round's poll carried
	start := time.Now()
	for batchNo = 0; batchNo < batches; batchNo++ {
		for k := 0; k < ledgerBatch; k++ {
			j := batchNo*ledgerBatch + k
			r := f.at(from + j)
			id := tr.start("telemetry", "Agent.Enqueue", -1, j)
			agent.Enqueue(r)
			tr.end(id)
		}
		// One poll per round. A v2 frame the agent's batch budget cuts
		// short (as it does for a daemon's pollers too) leaves the rest
		// queued for later rounds, so costs are normalised per report.
		pollSpan = tr.start("telemetry", "Poller.Poll", -1, batchNo)
		reports, err := p.Poll(ledgerBatch)
		tr.end(pollSpan)
		if err != nil {
			return nil, fmt.Errorf("replica poll %d: %w", batchNo, err)
		}
		if len(reports) == 0 {
			return nil, fmt.Errorf("replica poll %d: empty poll with reports queued", batchNo)
		}
		got[batchNo] = len(reports)
	}
	res := &replicaResult{wall: time.Since(start)}
	// Untimed: drain what short frames left behind.
	pollSpan = -1
	for agent.QueueLen() > 0 {
		if _, err := p.Poll(ledgerBatch); err != nil {
			return nil, fmt.Errorf("replica final drain: %w", err)
		}
	}
	p.Close()
	// The agent's session ends when the poller hangs up.
	if err := <-served; err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("replica agent: %w", err)
	}
	if ing, dup := ds.Stats(); ing != batches*ledgerBatch || dup != 0 {
		return nil, fmt.Errorf("replica: store shows ingested=%d duplicates=%d, want %d and 0", ing, dup, batches*ledgerBatch)
	}
	res.frameBytes = float64(wrote.Load()) / float64(batches) // incl. the few drain frames: under 1 % off
	if !tr.on {
		return res, nil
	}

	spans := tr.spans[first:]
	self, err := selfTimes(tr.spans)
	if err != nil {
		return nil, err
	}
	// Every round's figures are scaled to a full poll of 64 reports.
	var enq, poll, pollSelf, ingest []float64
	for i, s := range spans {
		us := float64(s.EndNS-s.StartNS) / 1e3
		if s.Name == "Agent.Enqueue" {
			enq = append(enq, us)
			continue
		}
		if s.Req >= batches || (s.Parent < 0 && s.Name != "Poller.Poll") {
			continue // the final drain
		}
		full := ledgerBatch / float64(got[s.Req])
		if s.Name == "Poller.Poll" {
			poll = append(poll, us*full)
			pollSelf = append(pollSelf, float64(self[first+i])/1e3*full)
		} else {
			ingest = append(ingest, us*full)
		}
	}
	res.enqueueUS, res.pollUS, res.pollSelfUS, res.ingestUS = median(enq), median(poll), median(pollSelf), median(ingest)
	res.meanRoundUS = ledgerBatch*mean(enq) + mean(poll)
	return res, nil
}

// exchangeUS measures the loopback transport of one poll exchange with
// no tunnel on it: a request of reqBytes one way, a response of
// respBytes back, both read in full — the socket writes, reads and the
// two goroutine wake-ups a poll round pays besides cipher and codec.
func exchangeUS(budget time.Duration, reqBytes, respBytes int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		req, resp := make([]byte, reqBytes), make([]byte, respBytes)
		for {
			if _, err := io.ReadFull(conn, req); err != nil {
				done <- nil // the measuring side hung up
				return
			}
			if _, err := conn.Write(resp); err != nil {
				done <- err
				return
			}
		}
	}()
	conn, err := ln.Accept()
	if err != nil {
		return 0, err
	}
	req, resp := make([]byte, reqBytes), make([]byte, respBytes)
	var ioErr error
	us := perCallUS(budget, func() {
		if _, err := conn.Write(req); err != nil {
			ioErr = err
		}
		if _, err := io.ReadFull(conn, resp); err != nil {
			ioErr = err
		}
	})
	conn.Close()
	if err := <-done; err != nil {
		return 0, err
	}
	return us, ioErr
}

// enqueueUS measures Agent.Enqueue alone, on agents nobody polls.
func enqueueUS(in *ledgerInput) float64 {
	slices := make([]float64, ledgerSlices)
	for s := range slices {
		a := telemetry.NewAgent("Q2BN-9999-9999", tunnelKey)
		copies := make([]*telemetry.Report, len(in.reports))
		for i, r := range in.reports {
			c := *r
			copies[i] = &c
		}
		t := time.Now()
		for _, r := range copies {
			a.Enqueue(r)
		}
		slices[s] = float64(time.Since(t)) / float64(time.Microsecond) / float64(len(copies))
	}
	return median(slices)
}

// tunnelOverhead is what the tunnel adds to a payload: length prefix,
// IV and MAC.
const tunnelOverhead = 4 + 16 + 32

// harvestTraced is the traced half of a harvest workload: the codec,
// tunnel, WAL and store ledgers, two passes of the replica (spans off,
// then on to tr — the difference is the tracing overhead), and the check
// that the isolated hops add up to the replica's poll round. It returns
// the traced pass's durable directory, for the caller to time a
// recovery over and remove.
func harvestTraced(e *env, name string, c *corpus, from int, wire byte, tr *tracer, m map[string]float64) (string, error) {
	f := c.split(1)[0]
	in := newLedgerInput(f, from, 16*ledgerBatch)
	budget := e.ledgerBudget()
	if err := codecLedger(budget, in, m); err != nil {
		return "", err
	}
	small, err := tunnelLedger(budget, in, m)
	if err != nil {
		return "", err
	}
	if err := walLedger(e.tmp, in, m); err != nil {
		return "", err
	}
	storeLedger(f, m)
	m["telemetry.agent_enqueue_us"] = enqueueUS(in)

	v := "v1"
	if wire == telemetry.WireV2 {
		v = "v2"
	}
	// v1 reports were marshalled at enqueue: a poll wraps, unwraps and
	// unmarshals them. v2 encodes and decodes the batch.
	codec := m["telemetry.reports_frame_encode_us"] + m["telemetry.reports_frame_decode_us"] + ledgerBatch*m["telemetry.unmarshal_us"]
	if wire == telemetry.WireV2 {
		codec = ledgerBatch * (m["telemetry.batch_encode_us"] + m["telemetry.batch_decode_us"])
	}
	// Start from a collected heap, as a fresh process would: the suite
	// runs this after other workloads have left theirs behind.
	runtime.GC()

	// Passes of the replica: one to warm up (page cache, heap), one
	// untraced, one traced; the last two differ by the tracing overhead.
	// The traced pass must reconcile with the ledger. On this small a box
	// a pass can land 15 % off on scheduling noise alone, so a miss is
	// re-measured, twice at most; a structural mismatch misses every time.
	var plain *replicaResult
	for _, pass := range []string{"warmup", "untraced"} {
		dir := filepath.Join(e.tmp, name+"-replica-"+pass)
		plain, err = harvestReplica(dir, f, from, e.replicaBatches(), wire, newTracer(false))
		os.RemoveAll(dir)
		if err != nil {
			return "", err
		}
	}
	dir := filepath.Join(e.tmp, name+"-replica")
	for attempt := 1; ; attempt++ {
		kept := len(tr.spans)
		rep, err := harvestReplica(dir, f, from, e.replicaBatches(), wire, tr)
		if err != nil {
			return "", err
		}
		transport, err := exchangeUS(budget, len(smallFrame)+tunnelOverhead, int(rep.frameBytes))
		if err != nil {
			return "", err
		}
		// The report frame's cipher and MAC, at the size it really had.
		frame, err := timeTunnelFrame(budget, make([]byte, int(rep.frameBytes)-tunnelOverhead))
		if err != nil {
			return "", err
		}
		// The hops of one 64-report round, in the order they happen:
		// enqueue, poll frame out, report frame encoded, ciphered, carried,
		// deciphered and decoded, made durable, ack frame out.
		hops := ledgerBatch*m["telemetry.agent_enqueue_us"] + small.writeUS + small.readUS + codec +
			frame.writeUS + frame.readUS + transport + rep.ingestUS + small.writeUS
		measured := ledgerBatch*rep.enqueueUS + rep.pollUS
		ratio, err := reconcile("poll round "+v, hops, measured, e.reconcileTolerance())
		if err != nil && attempt < 3 {
			fmt.Fprintf(os.Stderr, "bench: %v; measuring again\n", err)
			tr.spans = tr.spans[:kept]
			os.RemoveAll(dir)
			continue
		}
		if err != nil {
			return "", err
		}
		m["driver.reconcile_ratio_"+v] = ratio
		m["driver.replica_mean_over_median_"+v] = rep.meanRoundUS / measured
		m["driver.loopback_exchange_us_"+v] = transport
		m["driver.trace_overhead_pct"] = 100 * (rep.wall.Seconds() - plain.wall.Seconds()) / plain.wall.Seconds()
		m["telemetry.poll_round_us_"+v] = rep.pollUS
		m["telemetry.poll_self_us_"+v] = rep.pollSelfUS
		if wire == telemetry.WireV2 {
			m["backend.durable_ingest_frame_us"] = rep.ingestUS / ledgerBatch
		} else {
			m["backend.durable_ingest_us"] = rep.ingestUS / ledgerBatch
		}
		return dir, nil
	}
}

// finishTrace reports the spans' self time by layer and writes them to
// bench/out/trace-<name>.json.
func finishTrace(e *env, name string, tr *tracer, m map[string]float64) error {
	self, err := layerSelfMS(tr.spans)
	if err != nil {
		return err
	}
	spanMetrics(self, m)
	return tr.writeFile(filepath.Join(e.out, "trace-"+name+".json"))
}

func spanMetrics(selfMS map[string]float64, m map[string]float64) {
	total := 0.0
	for layer, ms := range selfMS {
		total += ms
		switch layer {
		case "synth", "ap", "client", "click":
			m["span.sim_self_ms"] += ms
		default:
			m["span."+layer+"_self_ms"] = ms
		}
	}
	m["span.total_ms"] = total
}
