// Package backend implements the Meraki backend's data layer (paper
// Section 2): ingestion of device reports with (serial, seqno)
// deduplication, aggregation of usage by client MAC across access
// points (to account for roaming), per-device time series of radio
// counters, neighbor tables, link-probe windows and scan samples, HMAC
// anonymization of identifiers for analysis exports, and gob snapshot
// persistence.
//
// The store is a flat set of maps under one RWMutex: each report,
// merged partial, load or capture is one exclusive section, so a
// snapshot is always a cut between reports, and reads share the lock.
// Every read accessor returns results in an explicitly sorted order, so
// downstream analyses are independent of map iteration order.
package backend
