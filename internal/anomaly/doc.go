// Package anomaly implements the operational-telemetry machinery of
// paper Section 6.1: crash reports carrying firmware and program-counter
// state, a neighbor-table memory model that reproduces the
// skyscraper/bus out-of-memory reboots, and detection of those devices
// in the backend.
//
// The AP side is NeighborTable (bounded memory that fills — and
// eventually OOMs — as beacons from dense environments accumulate) and
// CrashReport, the record an AP uploads after a watchdog reboot. The
// backend side is Detector, fed from the store's crash records and
// neighbor counts, which surfaces reboot loops and the devices whose
// neighbor count is a robust outlier against the fleet median.
package anomaly
