package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"wlanscale/internal/fleettest"
	"wlanscale/internal/obs/trace"
)

// TestTraceOutDump runs the built merakisim on a fully sampled offline
// harvest and reads back its -trace-out file: the dump must parse, and
// at least one trace in it must carry the complete five-stage span
// chain (agent.enqueue → tunnel.write → daemon.read → store.ingest →
// epoch.merge) with correct span and parent IDs — a broken trace
// pipeline fails here instead of silently recording partial chains.
func TestTraceOutDump(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess merakisim run; skipped in -short")
	}
	t.Cleanup(fleettest.Cleanup)
	bin, err := fleettest.Build("merakisim")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	dumpPath := filepath.Join(dir, "trace.json")
	out, err := exec.Command(bin, "-networks", "4", "-trace-sample", "1.0",
		"-trace-out", dumpPath, "-out", filepath.Join(dir, "dataset.gob")).CombinedOutput()
	if err != nil {
		t.Fatalf("merakisim: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	dump, err := trace.LoadDump(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Replay the dump into a recorder large enough to hold all of it,
	// then count the traces with the full stage chain.
	rec := trace.NewRecorder(len(dump.Events) + 1)
	rec.Load(dump)
	stages := []trace.Stage{
		trace.StageAgentEnqueue, trace.StageTunnelWrite, trace.StageDaemonRead,
		trace.StageStoreIngest, trace.StageEpochMerge,
	}
	complete := 0
	for _, id := range rec.TraceIDs() {
		evs := rec.Trace(id)
		ok := len(evs) == len(stages)
		for i := 0; ok && i < len(evs); i++ {
			st := stages[i]
			ok = evs[i].Stage == st.String() && evs[i].Span == st.SpanID() && evs[i].Parent == st.Parent()
		}
		if ok {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete %d-stage trace among %d traces (%d span events)",
			len(stages), len(rec.TraceIDs()), len(dump.Events))
	}
}
