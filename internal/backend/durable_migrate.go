package backend

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"wlanscale/internal/telemetry/pbwire"
)

// Durable rebalance operations. Each migration step on a WAL-backed
// shard is its own WAL record, appended before the in-memory state
// changes through logged, the write path report batches take too, so
// a shard SIGKILLed mid-migration replays to exactly the state it
// acknowledged: an absorbed slice stays absorbed (token-deduplicated
// against the checkpoint), a parted network stays parted, a dropped
// network stays gone.
//
// Record layout: marker byte, then uvarint token length + token bytes,
// then uvarint ID count + uvarint IDs, then the rest of the record is
// the operation payload (the gob slice for absorb, empty otherwise).
// Part/unpart carry an empty token. The markers live in the gap the
// replay discriminator leaves open: 0x02 is a v2 batch frame, pbwire
// report tags start at 0x08.
const (
	recAbsorb byte = 0x03
	recDrop   byte = 0x04
	recPart   byte = 0x05
	recUnpart byte = 0x06
)

// isMigrationRecord reports whether a WAL payload is a migration
// record (see the OpenDurable replay discriminator).
func isMigrationRecord(b []byte) bool {
	return len(b) > 0 && b[0] >= recAbsorb && b[0] <= recUnpart
}

func encodeMigrationRecord(kind byte, token string, ids []uint64, payload []byte) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64*(len(ids)+2)+len(token)+len(payload))
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(token)))
	buf = append(buf, token...)
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, id)
	}
	return append(buf, payload...)
}

// migration is one decoded migration record.
type migration struct {
	kind  byte
	token string
	ids   []uint64
	slice []byte // the operation payload: the gob slice for absorb, empty otherwise
}

func decodeMigrationRecord(b []byte) (migration, error) {
	if len(b) == 0 {
		return migration{}, errShortMigration(b)
	}
	m := migration{kind: b[0]}
	d := pbwire.NewDecoder(b[1:])
	m.token = d.String()
	// Each ID takes at least one byte, so a count the rest of the
	// record cannot hold is truncation, not an allocation.
	if n := d.Uint64(); n > uint64(d.Remaining()) {
		d.Fail(pbwire.ErrTruncated)
	} else {
		m.ids = make([]uint64, n)
		for i := range m.ids {
			m.ids[i] = d.Uint64()
		}
	}
	if d.Err() != nil {
		return migration{}, errShortMigration(b)
	}
	m.slice = b[len(b)-d.Remaining():]
	return m, nil
}

func errShortMigration(b []byte) error {
	return fmt.Errorf("backend: short migration record (%d bytes)", len(b))
}

// AbsorbSnapshot durably applies a migration slice: the whole slice
// rides one WAL record, then Store.Absorb folds it in. Returns false
// when the token was already absorbed (the slice is not re-logged).
func (d *DurableStore) AbsorbSnapshot(token string, ids []uint64, slice []byte) (applied bool, err error) {
	if d.Store.HasAbsorbed(token) {
		return false, nil
	}
	var applyErr error
	if err := d.logged([][]byte{encodeMigrationRecord(recAbsorb, token, ids, slice)}, func() {
		applied, applyErr = d.Store.Absorb(token, ids, bytes.NewReader(slice))
	}); err != nil {
		return false, err
	}
	return applied, applyErr
}

// DropNetworks durably removes migrated networks (and forgets the
// token, Store.Drop's contract).
func (d *DurableStore) DropNetworks(token string, ids []uint64) (networks, entries int, err error) {
	err = d.logged([][]byte{encodeMigrationRecord(recDrop, token, ids, nil)}, func() {
		networks, entries = d.Store.Drop(token, ids)
	})
	return networks, entries, err
}

// PartNetworks durably marks networks as refusing ingestion.
func (d *DurableStore) PartNetworks(ids []uint64) error {
	return d.logged([][]byte{encodeMigrationRecord(recPart, "", ids, nil)}, func() { d.Store.Part(ids) })
}

// UnpartNetworks durably clears the parted mark.
func (d *DurableStore) UnpartNetworks(ids []uint64) error {
	return d.logged([][]byte{encodeMigrationRecord(recUnpart, "", ids, nil)}, func() { d.Store.Unpart(ids) })
}

// applyMigration re-applies one migration record during recovery.
// Absorb's token dedup and Part/Unpart/Drop's natural idempotence make
// replay safe whether or not the checkpoint already covers the record.
func (d *DurableStore) applyMigration(m migration) error {
	switch m.kind {
	case recAbsorb:
		_, err := d.Store.Absorb(m.token, m.ids, bytes.NewReader(m.slice))
		return err
	case recDrop:
		d.Store.Drop(m.token, m.ids)
	case recPart:
		d.Store.Part(m.ids)
	case recUnpart:
		d.Store.Unpart(m.ids)
	}
	return nil
}
