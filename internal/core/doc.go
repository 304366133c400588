// Package core is the measurement study itself: it drives the fleet
// simulator through the measurement pipeline (association, flow
// classification, telemetry harvest, backend aggregation) and computes
// every table and figure of the paper. Each experiment has a typed
// result plus a text renderer that prints the paper's rows, and one row
// in Experiments, the list every consumer iterates.
package core
