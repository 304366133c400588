package cluster

import (
	"fmt"
	"strings"

	"wlanscale/internal/queryproto"
)

// Metrics federation: scatter-gather the per-shard observability
// surface (the "prom" query every merakid answers) and merge it into
// one fleet view, each sample tagged with the shard it came from. The
// merge is deterministic — families in first-seen order across
// shard-ID-ordered replies, shard-major within a family — and degrades
// to partial results like every other fanout: a dead shard costs its
// samples, not the scrape.

// FanoutMetrics scatter-gathers every shard's Prometheus exposition
// ("prom" query) and returns the merged fleet text alongside the raw
// replies, so callers can surface which shards contributed. Each
// sample line gains a shard="N" label; "# TYPE" metadata is emitted
// once per family. merakid serves this at /debug/federate on any
// daemon with -peers configured.
func (r *Router) FanoutMetrics() (string, []Reply) {
	replies := r.Fanout("prom")
	return MergeProm(replies), replies
}

// promFamily accumulates one family's type and samples across shards.
type promFamily struct {
	typ     string
	samples []string
}

// MergeProm merges per-shard Prometheus text replies into one fleet
// exposition. Sample lines are re-labeled with shard="N"; each
// family's "# TYPE" line is emitted once, before its samples, relying
// on WriteProm's contract that a TYPE line directly precedes its
// family's samples in each shard's scrape. Shards that errored (or
// answered with an ERR line) contribute nothing; the caller reports
// them from the replies.
func MergeProm(replies []Reply) string {
	fams := make(map[string]*promFamily)
	var order []string
	family := func(name, typ string) *promFamily {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
			order = append(order, name)
		}
		return f
	}
	for _, rep := range replies {
		if rep.Err != nil {
			continue
		}
		if queryproto.IsErr(rep.Lines) {
			continue
		}
		cur := ""
		for _, ln := range rep.Lines {
			if name, typ, ok := parseTypeLine(ln); ok {
				cur = name
				family(name, typ)
				continue
			}
			if ln == "" || strings.HasPrefix(ln, "#") {
				continue
			}
			fam := cur
			if fam == "" {
				// A shard without TYPE metadata (older build): derive the
				// family from the sample name and mark it untyped.
				fam = sampleName(ln)
				if fam == "" {
					continue
				}
			}
			f := family(fam, "untyped")
			f.samples = append(f.samples, labelShard(ln, rep.Shard))
		}
	}
	var b strings.Builder
	for _, name := range order {
		f := fams[name]
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, f.typ)
		for _, s := range f.samples {
			b.WriteString(s)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// parseTypeLine splits a "# TYPE <name> <kind>" metadata line.
func parseTypeLine(ln string) (name, typ string, ok bool) {
	if !strings.HasPrefix(ln, "# TYPE ") {
		return "", "", false
	}
	fields := strings.Fields(ln)
	if len(fields) != 4 {
		return "", "", false
	}
	return fields[2], fields[3], true
}

// sampleName extracts the series name of one exposition sample line:
// everything before the first '{' or space.
func sampleName(ln string) string {
	end := len(ln)
	if i := strings.IndexByte(ln, '{'); i >= 0 && i < end {
		end = i
	}
	if i := strings.IndexByte(ln, ' '); i >= 0 && i < end {
		end = i
	}
	return ln[:end]
}

// labelShard injects shard="N" into one sample line, first in the
// label set when the sample already carries labels (the histogram
// bucket le label), as the only label otherwise. Lines that do not
// look like samples pass through unchanged.
func labelShard(ln string, shard int) string {
	sp := strings.IndexByte(ln, ' ')
	if sp < 0 {
		return ln
	}
	series, rest := ln[:sp], ln[sp:]
	if i := strings.IndexByte(series, '{'); i >= 0 {
		return fmt.Sprintf(`%s{shard="%d",%s%s`, series[:i], shard, series[i+1:], rest)
	}
	return fmt.Sprintf(`%s{shard="%d"}%s`, series, shard, rest)
}
