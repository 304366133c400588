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
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return nil, fmt.Errorf("telemetry: report header: %w", err)
		}
		switch f {
		case fSerial:
			if r.Serial, err = d.String(); err != nil {
				return nil, err
			}
		case fMAC:
			v, err := d.Uint64()
			if err != nil {
				return nil, err
			}
			r.MAC = dot11.MACFromPacked(v)
		case fTime:
			if r.Timestamp, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fSeq:
			if r.SeqNo, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fTrace:
			if r.TraceID, err = d.Uint64(); err != nil {
				return nil, err
			}
		case fRadio:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			rs, err := decodeRadio(nb)
			if err != nil {
				return nil, err
			}
			r.Radios = append(r.Radios, rs)
		case fClient:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			c, err := decodeClient(nb)
			if err != nil {
				return nil, err
			}
			r.Clients = append(r.Clients, c)
		case fNeigh:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			n, err := decodeNeighbor(nb)
			if err != nil {
				return nil, err
			}
			r.Neighbors = append(r.Neighbors, n)
		case fLink:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			l, err := decodeLink(nb)
			if err != nil {
				return nil, err
			}
			r.LinkWindows = append(r.LinkWindows, l)
		case fScan:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			s, err := decodeScan(nb)
			if err != nil {
				return nil, err
			}
			r.ScanSamples = append(r.ScanSamples, s)
		case fCrash:
			nb, err := d.Bytes()
			if err != nil {
				return nil, err
			}
			c, err := decodeCrash(nb)
			if err != nil {
				return nil, err
			}
			r.Crashes = append(r.Crashes, c)
		default:
			if err := d.Skip(wt); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}

func decodeRadio(b []byte) (RadioStats, error) {
	var rs RadioStats
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return rs, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4, 5, 6, 7:
			if v, err = d.Uint64(); err != nil {
				return rs, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return rs, err
			}
			continue
		}
		switch f {
		case 1:
			rs.Band = dot11.Band(v)
		case 2:
			rs.Channel = int(v)
		case 3:
			rs.WidthMHz = int(v)
		case 4:
			rs.CycleUS = v
		case 5:
			rs.RxClearUS = v
		case 6:
			rs.Rx11US = v
		case 7:
			rs.TxUS = v
		}
	}
	return rs, nil
}

func decodeClient(b []byte) (ClientRecord, error) {
	var c ClientRecord
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return c, err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.MAC = dot11.MACFromPacked(v)
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.Band = dot11.Band(v)
		case 3:
			v, err := d.Int64()
			if err != nil {
				return c, err
			}
			c.RSSIdB = int32(v)
		case 4:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			// A blob of the wrong length is ignored: the client advertises
			// nothing, in the normalized form every decoded value has.
			c.Caps = dot11.Capabilities{}.Normalize()
			if len(nb) == 2 {
				c.Caps = dot11.UnmarshalCapabilities([2]byte{nb[0], nb[1]})
			}
		case 5:
			s, err := d.String()
			if err != nil {
				return c, err
			}
			c.UserAgents = append(c.UserAgents, s)
		case 6:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			fp := make([]byte, len(nb))
			copy(fp, nb)
			c.DHCPFingerprints = append(c.DHCPFingerprints, fp)
		case 7:
			nb, err := d.Bytes()
			if err != nil {
				return c, err
			}
			a, err := decodeAppUsage(nb)
			if err != nil {
				return c, err
			}
			c.Apps = append(c.Apps, a)
		default:
			if err := d.Skip(wt); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}

func decodeAppUsage(b []byte) (AppUsageRecord, error) {
	var a AppUsageRecord
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return a, err
		}
		switch f {
		case 1:
			if a.App, err = d.String(); err != nil {
				return a, err
			}
		case 2:
			if a.UpBytes, err = d.Uint64(); err != nil {
				return a, err
			}
		case 3:
			if a.DownBytes, err = d.Uint64(); err != nil {
				return a, err
			}
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return a, err
			}
			a.Flows = uint32(v)
		default:
			if err := d.Skip(wt); err != nil {
				return a, err
			}
		}
	}
	return a, nil
}

func decodeNeighbor(b []byte) (NeighborRecord, error) {
	var n NeighborRecord
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return n, err
		}
		switch f {
		case 1:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.BSSID = dot11.MACFromPacked(v)
		case 2:
			if n.SSID, err = d.String(); err != nil {
				return n, err
			}
		case 3:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.Band = dot11.Band(v)
		case 4:
			v, err := d.Uint64()
			if err != nil {
				return n, err
			}
			n.Channel = int(v)
		case 5:
			v, err := d.Int64()
			if err != nil {
				return n, err
			}
			n.RSSIdB = int32(v)
		case 6:
			if n.Vendor, err = d.String(); err != nil {
				return n, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return n, err
			}
		}
	}
	return n, nil
}

func decodeLink(b []byte) (LinkWindow, error) {
	var l LinkWindow
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return l, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4:
			if v, err = d.Uint64(); err != nil {
				return l, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return l, err
			}
			continue
		}
		switch f {
		case 1:
			l.Peer = dot11.MACFromPacked(v)
		case 2:
			l.Band = dot11.Band(v)
		case 3:
			l.Sent = uint32(v)
		case 4:
			l.Delivered = uint32(v)
		}
	}
	return l, nil
}

func decodeScan(b []byte) (ScanSample, error) {
	var s ScanSample
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return s, err
		}
		var v uint64
		switch f {
		case 1, 2, 3, 4:
			if v, err = d.Uint64(); err != nil {
				return s, err
			}
		default:
			if err := d.Skip(wt); err != nil {
				return s, err
			}
			continue
		}
		switch f {
		case 1:
			s.Band = dot11.Band(v)
		case 2:
			s.Channel = int(v)
		case 3:
			s.BusyPermille = uint32(v)
		case 4:
			s.DecodablePermille = uint32(v)
		}
	}
	return s, nil
}

func decodeCrash(b []byte) (CrashRecord, error) {
	var c CrashRecord
	d := pbwire.NewDecoder(b)
	for !d.Done() {
		f, wt, err := d.Field()
		if err != nil {
			return c, err
		}
		switch f {
		case 1:
			if c.Timestamp, err = d.Uint64(); err != nil {
				return c, err
			}
		case 2:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.Kind = uint8(v)
		case 3:
			if c.Firmware, err = d.String(); err != nil {
				return c, err
			}
		case 4:
			if c.PC, err = d.Uint64(); err != nil {
				return c, err
			}
		case 5:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.FreeKB = uint32(v)
		case 6:
			v, err := d.Uint64()
			if err != nil {
				return c, err
			}
			c.NeighborCount = uint32(v)
		default:
			if err := d.Skip(wt); err != nil {
				return c, err
			}
		}
	}
	return c, nil
}
