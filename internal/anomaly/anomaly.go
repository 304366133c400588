package anomaly

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// CrashKind classifies a device crash.
type CrashKind uint8

const (
	// CrashOOM is an out-of-memory kill.
	CrashOOM CrashKind = iota
	// CrashPanic is a kernel or driver panic.
	CrashPanic
	// CrashWatchdog is a hardware watchdog reset.
	CrashWatchdog
)

// String names the crash kind.
func (k CrashKind) String() string {
	switch k {
	case CrashOOM:
		return "oom"
	case CrashPanic:
		return "panic"
	case CrashWatchdog:
		return "watchdog"
	default:
		return fmt.Sprintf("crash(%d)", uint8(k))
	}
}

// CrashReport is the post-mortem a device uploads after rebooting — the
// "crashes (firmware and program counter state)" of Section 6.1.
type CrashReport struct {
	Serial    string
	Timestamp uint64
	Kind      CrashKind
	// Firmware is the firmware revision string.
	Firmware string
	// PC is the program counter at the fault.
	PC uint64
	// FreeKB is the free memory at the fault.
	FreeKB int
	// NeighborCount is the neighbor-table size at the fault, the
	// signature of the skyscraper bug.
	NeighborCount int
}

// NeighborTable models the in-memory neighbor table whose unbounded
// growth rebooted Manhattan and bus-mounted APs (Section 6.1): each
// tracked BSS costs memory, and the device OOMs when the budget is
// exhausted.
type NeighborTable struct {
	// BytesPerEntry is the per-BSS bookkeeping cost.
	BytesPerEntry int
	// BudgetKB is the memory available for the table.
	BudgetKB int

	entries map[uint64]bool
}

// NewNeighborTable builds a table for a device with the given memory
// budget in KB (the MR16's table budget is a slice of its 64 MB).
func NewNeighborTable(budgetKB int) *NeighborTable {
	return &NeighborTable{
		BytesPerEntry: 512,
		BudgetKB:      budgetKB,
		entries:       make(map[uint64]bool),
	}
}

// Len returns the number of tracked BSSes.
func (t *NeighborTable) Len() int { return len(t.entries) }

// UsedKB returns the table's memory footprint.
func (t *NeighborTable) UsedKB() int { return len(t.entries) * t.BytesPerEntry / 1024 }

// ErrOOM is returned when inserting a neighbor exhausts the budget.
type ErrOOM struct {
	Entries int
	UsedKB  int
}

// Error implements error.
func (e *ErrOOM) Error() string {
	return fmt.Sprintf("anomaly: neighbor table OOM at %d entries (%d KB)", e.Entries, e.UsedKB)
}

// Observe inserts a BSSID (keyed by its packed form). When the budget
// is exceeded it returns *ErrOOM — the bug as shipped.
func (t *NeighborTable) Observe(bssid uint64) error {
	t.entries[bssid] = true
	if t.UsedKB() > t.BudgetKB {
		return &ErrOOM{Entries: len(t.entries), UsedKB: t.UsedKB()}
	}
	return nil
}

// OOMCrash builds the post-mortem a device uploads after the neighbor
// table exhausts its memory budget — the crash record that rides the
// first report after the reboot. The free-memory figure is pinned at
// the exhausted budget's remainder (effectively zero headroom).
func (t *NeighborTable) OOMCrash(serial string, ts uint64, firmware string, pc uint64) CrashReport {
	free := t.BudgetKB - t.UsedKB()
	if free < 0 {
		free = 0
	}
	return CrashReport{
		Serial:        serial,
		Timestamp:     ts,
		Kind:          CrashOOM,
		Firmware:      firmware,
		PC:            pc,
		FreeKB:        free,
		NeighborCount: t.Len(),
	}
}

// Detector aggregates crash reports and per-device telemetry to surface
// fleet anomalies, as the backend's instrumentation does.
type Detector struct {
	mu sync.Mutex
	// crashes per (serial).
	crashes map[string][]CrashReport
	// neighborCounts is the latest neighbor count per device.
	neighborCounts map[string]int
}

// NewDetector creates an empty detector.
func NewDetector() *Detector {
	return &Detector{
		crashes:        make(map[string][]CrashReport),
		neighborCounts: make(map[string]int),
	}
}

// RecordCrash ingests a crash report.
func (d *Detector) RecordCrash(r CrashReport) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.crashes[r.Serial] = append(d.crashes[r.Serial], r)
}

// RecordNeighborCount ingests a device's current neighbor-table size.
func (d *Detector) RecordNeighborCount(serial string, count int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.neighborCounts[serial] = count
}

// RebootLoops returns serials that crashed at least minCrashes times —
// the "rebooting either minutes or hours after booting on a repeated
// basis" signature.
func (d *Detector) RebootLoops(minCrashes int) []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []string
	for serial, list := range d.crashes {
		if len(list) >= minCrashes {
			out = append(out, serial)
		}
	}
	sort.Strings(out)
	return out
}

// Outlier is one anomalous device.
type Outlier struct {
	Serial string
	// Count is the device's neighbor count.
	Count int
	// Sigma is how many robust standard deviations above the fleet
	// median the device sits.
	Sigma float64
}

// NeighborOutliers returns devices whose neighbor count sits more than
// k robust standard deviations above the fleet median — the analysis
// that found the skyscraper and bus APs. The spread estimate is the
// median absolute deviation (scaled), so the outliers themselves do not
// mask the threshold.
func (d *Detector) NeighborOutliers(k float64) []Outlier {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.neighborCounts) < 4 {
		return nil
	}
	counts := make([]float64, 0, len(d.neighborCounts))
	for _, c := range d.neighborCounts {
		counts = append(counts, float64(c))
	}
	med := median(counts)
	devs := make([]float64, len(counts))
	for i, c := range counts {
		devs[i] = math.Abs(c - med)
	}
	mad := median(devs) * 1.4826
	if mad < 1 {
		mad = 1
	}
	var out []Outlier
	for serial, c := range d.neighborCounts {
		sigma := (float64(c) - med) / mad
		if sigma > k {
			out = append(out, Outlier{Serial: serial, Count: c, Sigma: sigma})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Sigma != out[j].Sigma {
			return out[i].Sigma > out[j].Sigma
		}
		return out[i].Serial < out[j].Serial
	})
	return out
}

func median(v []float64) float64 {
	cp := make([]float64, len(v))
	copy(cp, v)
	sort.Float64s(cp)
	n := len(cp)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}
