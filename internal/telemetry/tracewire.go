package telemetry

import (
	"wlanscale/internal/obs/trace"
	"wlanscale/internal/telemetry/pbwire"
)

// Span events ride the tunnel inside the optional span block of a
// frameReports payload, pbwire-encoded like everything else on the
// wire. The Index field is deliberately not shipped: it is
// recorder-local and reassigned on the receiving side.
const (
	fSpanTrace   = 1
	fSpanSpan    = 2
	fSpanParent  = 3
	fSpanSerial  = 4
	fSpanSeq     = 5
	fSpanStartUS = 6
	fSpanDurUS   = 7
	fSpanRetries = 8
	fSpanFault   = 9
	fSpanErr     = 10
)

func encodeSpan(ev trace.Event) []byte {
	var e pbwire.Encoder
	e.Uint64(fSpanTrace, uint64(ev.Trace))
	e.Uint64(fSpanSpan, uint64(ev.Span))
	e.Uint64(fSpanParent, uint64(ev.Parent))
	e.String(fSpanSerial, ev.Serial)
	e.Uint64(fSpanSeq, ev.Seq)
	e.Int64(fSpanStartUS, ev.StartUS)
	e.Int64(fSpanDurUS, ev.DurUS)
	e.Uint64(fSpanRetries, uint64(ev.Retries))
	e.String(fSpanFault, ev.Fault)
	e.String(fSpanErr, ev.Err)
	return e.Bytes()
}

// decodeSpan reads one span record; a failure is recorded in d.
func decodeSpan(d *pbwire.Decoder) (ev trace.Event) {
	for d.More() {
		switch f, wt := d.Field(); f {
		case fSpanTrace:
			ev.Trace = trace.ID(d.Uint64())
		case fSpanSpan:
			ev.Span = uint32(d.Uint64())
		case fSpanParent:
			ev.Parent = uint32(d.Uint64())
		case fSpanSerial:
			ev.Serial = d.String()
		case fSpanSeq:
			ev.Seq = d.Uint64()
		case fSpanStartUS:
			ev.StartUS = d.Int64()
		case fSpanDurUS:
			ev.DurUS = d.Int64()
		case fSpanRetries:
			ev.Retries = int(d.Uint64())
		case fSpanFault:
			ev.Fault = d.String()
		case fSpanErr:
			ev.Err = d.String()
		default:
			d.Skip(wt)
		}
	}
	// The stage name travels implicitly as the span ID.
	ev.Stage = trace.Stage(ev.Span).String()
	return ev
}
