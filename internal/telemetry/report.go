package telemetry

import (
	"fmt"

	"wlanscale/internal/dot11"
	"wlanscale/internal/telemetry/pbwire"
)

// Report is one device's periodic statistics upload.
type Report struct {
	// Serial is the device serial number.
	Serial string
	// MAC is the device's base MAC address.
	MAC dot11.MAC
	// Timestamp is virtual seconds since the epoch start.
	Timestamp uint64
	// SeqNo orders reports from one device.
	SeqNo uint64
	// TraceID is the report's end-to-end trace ID (see
	// internal/obs/trace); zero means untraced. Encoded as an optional
	// field, it is omitted from the wire when zero so untraced reports
	// are byte-identical to the pre-tracing schema, and old readers skip
	// it as an unknown field.
	TraceID uint64

	Radios      []RadioStats
	Clients     []ClientRecord
	Neighbors   []NeighborRecord
	LinkWindows []LinkWindow
	ScanSamples []ScanSample
	Crashes     []CrashRecord
}

// CrashRecord is a post-mortem uploaded after a reboot — the firmware
// and program-counter state of paper Section 6.1.
type CrashRecord struct {
	// Timestamp is when the crash occurred (virtual seconds).
	Timestamp uint64
	// Kind is a small enum (0 = OOM, 1 = panic, 2 = watchdog),
	// mirroring anomaly.CrashKind.
	Kind uint8
	// Firmware is the firmware revision string.
	Firmware string
	// PC is the faulting program counter.
	PC uint64
	// FreeKB is free memory at the fault.
	FreeKB uint32
	// NeighborCount is the neighbor-table size at the fault.
	NeighborCount uint32
}

// RadioStats is one radio's counter snapshot.
type RadioStats struct {
	Band      dot11.Band
	Channel   int
	WidthMHz  int
	CycleUS   uint64
	RxClearUS uint64
	Rx11US    uint64
	TxUS      uint64
}

// ClientRecord is one associated client's usage snapshot.
type ClientRecord struct {
	MAC              dot11.MAC
	Band             dot11.Band
	RSSIdB           int32 // signal above noise floor, dB
	Caps             dot11.Capabilities
	UserAgents       []string
	DHCPFingerprints [][]byte
	Apps             []AppUsageRecord
}

// AppUsageRecord is one (client, application) byte counter pair.
type AppUsageRecord struct {
	App       string
	UpBytes   uint64
	DownBytes uint64
	Flows     uint32
}

// NeighborRecord is one overheard BSS.
type NeighborRecord struct {
	BSSID   dot11.BSSID
	SSID    string
	Band    dot11.Band
	Channel int
	RSSIdB  int32
	Vendor  string
}

// LinkWindow is one mesh-probe window measurement toward a peer AP.
type LinkWindow struct {
	Peer      dot11.MAC
	Band      dot11.Band
	Sent      uint32
	Delivered uint32
}

// ScanSample is one scanning-radio channel observation, in permille to
// keep the varint encoding compact.
type ScanSample struct {
	Band              dot11.Band
	Channel           int
	BusyPermille      uint32
	DecodablePermille uint32
}

// Field numbers for the Report message.
const (
	fSerial = 1
	fMAC    = 2
	fTime   = 3
	fSeq    = 4
	fRadio  = 5
	fClient = 6
	fNeigh  = 7
	fLink   = 8
	fScan   = 9
	fCrash  = 10
	fTrace  = 11
)

// Marshal encodes the report.
func (r *Report) Marshal() []byte {
	var e pbwire.Encoder
	e.String(fSerial, r.Serial)
	e.Uint64(fMAC, r.MAC.Uint64())
	e.Uint64(fTime, r.Timestamp)
	e.Uint64(fSeq, r.SeqNo)
	e.Uint64(fTrace, r.TraceID)
	var sub pbwire.Encoder
	for _, rs := range r.Radios {
		sub.Reset()
		sub.Uint64(1, uint64(rs.Band))
		sub.Uint64(2, uint64(rs.Channel))
		sub.Uint64(3, uint64(rs.WidthMHz))
		sub.Uint64(4, rs.CycleUS)
		sub.Uint64(5, rs.RxClearUS)
		sub.Uint64(6, rs.Rx11US)
		sub.Uint64(7, rs.TxUS)
		e.Message(fRadio, &sub)
	}
	for _, c := range r.Clients {
		e.Message(fClient, c.encode())
	}
	for _, n := range r.Neighbors {
		sub.Reset()
		sub.Uint64(1, n.BSSID.Uint64())
		sub.String(2, n.SSID)
		sub.Uint64(3, uint64(n.Band))
		sub.Uint64(4, uint64(n.Channel))
		sub.Int64(5, int64(n.RSSIdB))
		sub.String(6, n.Vendor)
		e.Message(fNeigh, &sub)
	}
	for _, l := range r.LinkWindows {
		sub.Reset()
		sub.Uint64(1, l.Peer.Uint64())
		sub.Uint64(2, uint64(l.Band))
		sub.Uint64(3, uint64(l.Sent))
		sub.Uint64(4, uint64(l.Delivered))
		e.Message(fLink, &sub)
	}
	for _, s := range r.ScanSamples {
		sub.Reset()
		sub.Uint64(1, uint64(s.Band))
		sub.Uint64(2, uint64(s.Channel))
		sub.Uint64(3, uint64(s.BusyPermille))
		sub.Uint64(4, uint64(s.DecodablePermille))
		e.Message(fScan, &sub)
	}
	for _, c := range r.Crashes {
		sub.Reset()
		sub.Uint64(1, c.Timestamp)
		sub.Uint64(2, uint64(c.Kind))
		sub.String(3, c.Firmware)
		sub.Uint64(4, c.PC)
		sub.Uint64(5, uint64(c.FreeKB))
		sub.Uint64(6, uint64(c.NeighborCount))
		e.Message(fCrash, &sub)
	}
	return e.Bytes()
}

func (c *ClientRecord) encode() *pbwire.Encoder {
	var e pbwire.Encoder
	e.Uint64(1, c.MAC.Uint64())
	e.Uint64(2, uint64(c.Band))
	e.Int64(3, int64(c.RSSIdB))
	caps := c.Caps.Marshal()
	e.BytesField(4, caps[:])
	for _, ua := range c.UserAgents {
		e.String(5, ua)
	}
	for _, fp := range c.DHCPFingerprints {
		e.BytesField(6, fp)
	}
	var sub pbwire.Encoder
	for _, a := range c.Apps {
		sub.Reset()
		sub.String(1, a.App)
		sub.Uint64(2, a.UpBytes)
		sub.Uint64(3, a.DownBytes)
		sub.Uint64(4, uint64(a.Flows))
		e.Message(7, &sub)
	}
	return &e
}

// UnmarshalReport decodes a report, skipping unknown fields so old
// readers accept new senders.
func UnmarshalReport(b []byte) (*Report, error) {
	r := &Report{}
	d := pbwire.NewDecoder(b)
	for d.More() {
		f, wt := d.Field()
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("telemetry: report header: %w", err)
		}
		switch f {
		case fSerial:
			r.Serial = d.String()
		case fMAC:
			r.MAC = dot11.MACFromPacked(d.Uint64())
		case fTime:
			r.Timestamp = d.Uint64()
		case fSeq:
			r.SeqNo = d.Uint64()
		case fTrace:
			r.TraceID = d.Uint64()
		case fRadio:
			r.Radios = append(r.Radios, decodeRadio(d.Message()))
		case fClient:
			r.Clients = append(r.Clients, decodeClient(d.Message()))
		case fNeigh:
			r.Neighbors = append(r.Neighbors, decodeNeighbor(d.Message()))
		case fLink:
			r.LinkWindows = append(r.LinkWindows, decodeLink(d.Message()))
		case fScan:
			r.ScanSamples = append(r.ScanSamples, decodeScan(d.Message()))
		case fCrash:
			r.Crashes = append(r.Crashes, decodeCrash(d.Message()))
		default:
			d.Skip(wt)
		}
	}
	if err := d.Err(); err != nil {
		return nil, err
	}
	return r, nil
}

// The record decoders read one nested message each; a failure is
// recorded in the report's decoder, which UnmarshalReport checks.

func decodeRadio(d *pbwire.Decoder) (rs RadioStats) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			rs.Band = dot11.Band(d.Uint64())
		case 2:
			rs.Channel = int(d.Uint64())
		case 3:
			rs.WidthMHz = int(d.Uint64())
		case 4:
			rs.CycleUS = d.Uint64()
		case 5:
			rs.RxClearUS = d.Uint64()
		case 6:
			rs.Rx11US = d.Uint64()
		case 7:
			rs.TxUS = d.Uint64()
		default:
			d.Skip(wt)
		}
	}
	return rs
}

func decodeClient(d *pbwire.Decoder) (c ClientRecord) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			c.MAC = dot11.MACFromPacked(d.Uint64())
		case 2:
			c.Band = dot11.Band(d.Uint64())
		case 3:
			c.RSSIdB = int32(d.Int64())
		case 4:
			// A blob of the wrong length is ignored: the client advertises
			// nothing, in the normalized form every decoded value has.
			c.Caps = dot11.Capabilities{}.Normalize()
			if nb := d.Bytes(); len(nb) == 2 {
				c.Caps = dot11.UnmarshalCapabilities([2]byte{nb[0], nb[1]})
			}
		case 5:
			c.UserAgents = append(c.UserAgents, d.String())
		case 6:
			fp := d.Bytes()
			c.DHCPFingerprints = append(c.DHCPFingerprints, append(make([]byte, 0, len(fp)), fp...))
		case 7:
			c.Apps = append(c.Apps, decodeAppUsage(d.Message()))
		default:
			d.Skip(wt)
		}
	}
	return c
}

func decodeAppUsage(d *pbwire.Decoder) (a AppUsageRecord) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			a.App = d.String()
		case 2:
			a.UpBytes = d.Uint64()
		case 3:
			a.DownBytes = d.Uint64()
		case 4:
			a.Flows = uint32(d.Uint64())
		default:
			d.Skip(wt)
		}
	}
	return a
}

func decodeNeighbor(d *pbwire.Decoder) (n NeighborRecord) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			n.BSSID = dot11.MACFromPacked(d.Uint64())
		case 2:
			n.SSID = d.String()
		case 3:
			n.Band = dot11.Band(d.Uint64())
		case 4:
			n.Channel = int(d.Uint64())
		case 5:
			n.RSSIdB = int32(d.Int64())
		case 6:
			n.Vendor = d.String()
		default:
			d.Skip(wt)
		}
	}
	return n
}

func decodeLink(d *pbwire.Decoder) (l LinkWindow) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			l.Peer = dot11.MACFromPacked(d.Uint64())
		case 2:
			l.Band = dot11.Band(d.Uint64())
		case 3:
			l.Sent = uint32(d.Uint64())
		case 4:
			l.Delivered = uint32(d.Uint64())
		default:
			d.Skip(wt)
		}
	}
	return l
}

func decodeScan(d *pbwire.Decoder) (s ScanSample) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			s.Band = dot11.Band(d.Uint64())
		case 2:
			s.Channel = int(d.Uint64())
		case 3:
			s.BusyPermille = uint32(d.Uint64())
		case 4:
			s.DecodablePermille = uint32(d.Uint64())
		default:
			d.Skip(wt)
		}
	}
	return s
}

func decodeCrash(d *pbwire.Decoder) (c CrashRecord) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case 1:
			c.Timestamp = d.Uint64()
		case 2:
			c.Kind = uint8(d.Uint64())
		case 3:
			c.Firmware = d.String()
		case 4:
			c.PC = d.Uint64()
		case 5:
			c.FreeKB = uint32(d.Uint64())
		case 6:
			c.NeighborCount = uint32(d.Uint64())
		default:
			d.Skip(wt)
		}
	}
	return c
}
