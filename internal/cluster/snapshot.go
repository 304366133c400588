package cluster

import (
	"bytes"
	"encoding/base64"
	"fmt"
	"io"
	"strings"

	"wlanscale/internal/backend"
)

// snapshotLineLen is the base64 chunk width of a snapshot response.
// The query protocol is line-oriented with a blank-line terminator, so
// a gob snapshot travels as fixed-width base64 lines that any
// line-based client (and the Router) can carry without special
// framing.
const snapshotLineLen = 4096

// WriteSnapshotLines writes s's gob snapshot to w as base64 lines —
// the payload of the merakid "snapshot" query. Store.Save encodes a
// capture, so the lines are a consistent view between two reports even
// on a live daemon, and ingest waits for neither gob nor base64.
func WriteSnapshotLines(w io.Writer, s *backend.Store) error {
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		return err
	}
	enc := base64.StdEncoding.EncodeToString(buf.Bytes())
	for len(enc) > 0 {
		n := snapshotLineLen
		if n > len(enc) {
			n = len(enc)
		}
		if _, err := fmt.Fprintln(w, enc[:n]); err != nil {
			return err
		}
		enc = enc[n:]
	}
	return nil
}

// DecodeSnapshotBytes reverses WriteSnapshotLines: it joins the base64
// lines of one shard's snapshot response back into the raw gob stream.
// The byte form is what a durable absorb logs to the WAL before
// applying.
func DecodeSnapshotBytes(lines []string) ([]byte, error) {
	raw, err := base64.StdEncoding.DecodeString(strings.Join(lines, ""))
	if err != nil {
		return nil, fmt.Errorf("cluster: corrupt snapshot response: %v", err)
	}
	return raw, nil
}

// DecodeSnapshotLines is DecodeSnapshotBytes as a reader — the form
// Store.MergeSnapshot and Store.Load take.
func DecodeSnapshotLines(lines []string) (io.Reader, error) {
	raw, err := DecodeSnapshotBytes(lines)
	if err != nil {
		return nil, err
	}
	return bytes.NewReader(raw), nil
}

// mergeSnapshotLines folds one snapshot or extract reply into dst.
func mergeSnapshotLines(dst *backend.Store, lines []string) error {
	raw, err := DecodeSnapshotLines(lines)
	if err != nil {
		return err
	}
	return dst.MergeSnapshot(raw)
}
