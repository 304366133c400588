package main

import (
	"bytes"
	"strings"
	"testing"

	"wlanscale/internal/core"
	"wlanscale/internal/meshprobe"
	"wlanscale/internal/obs"
)

// TestRunPrintsSelectedExperiments drives the simulate path in-process
// on a tiny study: -only picks experiments out of core.Experiments and
// prints them in the table's order, each shared simulation runs (and is
// announced and timed) once and only when a selected experiment reads
// it, and an unknown name is refused rather than printing nothing.
func TestRunPrintsSelectedExperiments(t *testing.T) {
	exps, err := selectExperiments("fig2, table7,table1,")
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Config{Seed: 7, UsageNetworks: 4, ClientCap: 20, LinkNetworks: 4, LinkWindows: 4,
		Sampling: meshprobe.BinomialApprox, UtilAPs: 4, UtilWindows: 2, ScanAPs: 6}
	var stdout, stderr bytes.Buffer
	timer := obs.NewTimer()
	if err := run(cfg, exps, timer, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	var headings []string
	lines := strings.Split(stdout.String(), "\n")
	for i, ln := range lines {
		if i > 0 && ln != "" && ln == strings.Repeat("=", len(lines[i-1])) {
			headings = append(headings, lines[i-1])
		}
	}
	if got := strings.Join(headings, ","); got != "Table 1,Table 7,Figure 2" {
		t.Errorf("headings = %q, want Table 1,Table 7,Figure 2", got)
	}
	if got := stderr.String(); got != "scanning AP environments (two epochs)...\n" {
		t.Errorf("progress = %q, want the one scan line", got)
	}
	sum := timer.Summary()
	if !strings.Contains(sum, "simulate-scans") || strings.Contains(sum, "simulate-usage") {
		t.Errorf("timings should hold simulate-scans and not simulate-usage:\n%s", sum)
	}

	if all, err := selectExperiments(""); err != nil || len(all) != len(core.Experiments) {
		t.Errorf(`selectExperiments("") = %d experiments, %v; want all %d`, len(all), err, len(core.Experiments))
	}
	if _, err := selectExperiments("table1,tabel3"); err == nil || !strings.Contains(err.Error(), `"tabel3"`) {
		t.Errorf("a misspelt -only name was not refused by name: %v", err)
	}
}
