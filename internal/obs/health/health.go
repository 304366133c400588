// Package health judges a daemon's time-series history: a
// dependency-free rule engine over obs/series that turns metric points
// into firing/resolved alerts with hysteresis, so "shard 2 is
// unhealthy" is a state transition an operator (and the flight
// recorder) sees before the digest diverges (DESIGN.md §12).
//
// Three rule kinds cover the known failure modes: Threshold compares
// the latest point's value (a per-second rate for counters, the raw
// reading for gauges) against a bound; RateOfChange compares the value
// delta across the last Ticks points; Absence fires when a metric that
// was active has recorded no activity for the evaluation tick. Every
// rule carries hysteresis — the condition must hold For consecutive
// evaluations to fire and stay clear ForOK consecutive evaluations to
// resolve — so one noisy tick neither pages nor flaps. Transitions
// increment health.* metrics on the same registry the series recorder
// samples, and an OnFire hook lets merakid dump the flight recorder at
// the moment a rule first fires.
package health

import (
	"fmt"
	"io"
	"sync"
	"time"

	"wlanscale/internal/obs"
	"wlanscale/internal/obs/series"
)

// Severity ranks an alert.
type Severity uint8

const (
	Info Severity = iota
	Warn
	Crit
)

// String returns the lowercase severity name.
func (s Severity) String() string {
	switch s {
	case Crit:
		return "crit"
	case Warn:
		return "warn"
	default:
		return "info"
	}
}

// RuleKind selects a rule's evaluation.
type RuleKind uint8

const (
	// Threshold compares the latest point's value against Bound.
	Threshold RuleKind = iota
	// RateOfChange compares the difference between the latest point's
	// value and the value Ticks points earlier against Bound.
	RateOfChange
	// Absence breaches when the metric was ever active but the latest
	// point shows no activity: a zero rate for counters and histograms,
	// a zero reading for gauges. A metric that never reported at all
	// does not breach — silence from birth is "not started", not "went
	// silent".
	Absence
)

// Rule is one health judgment over one metric's series.
type Rule struct {
	// Name identifies the rule in alerts, status lines, and metrics.
	Name string
	// Metric is the series metric the rule reads.
	Metric string
	// Kind selects the evaluation; see the RuleKind constants.
	Kind RuleKind
	// Severity ranks the alert when firing.
	Severity Severity
	// Bound is the comparison bound for Threshold and RateOfChange.
	Bound float64
	// Below inverts the comparison: breach when value < Bound instead
	// of value > Bound. Ignored by Absence.
	Below bool
	// Ticks is the RateOfChange lookback, in points; zero means 1.
	Ticks int
	// For is how many consecutive breaching evaluations arm the rule
	// before it fires; zero means 1 (fire on first breach).
	For int
	// ForOK is how many consecutive clear evaluations resolve a firing
	// rule; zero means 1.
	ForOK int
	// Msg is the operator-facing description rendered with the alert.
	Msg string
}

func (r Rule) forTicks() int {
	if r.For <= 0 {
		return 1
	}
	return r.For
}

func (r Rule) forOKTicks() int {
	if r.ForOK <= 0 {
		return 1
	}
	return r.ForOK
}

// State is a rule's position in the firing state machine.
type State uint8

const (
	OK State = iota
	// Pending rules have breached but not yet for For evaluations.
	Pending
	// Firing rules have breached For consecutive evaluations and not
	// yet resolved.
	Firing
)

// String returns the lowercase state name.
func (s State) String() string {
	switch s {
	case Firing:
		return "firing"
	case Pending:
		return "pending"
	default:
		return "ok"
	}
}

// Alert is one rule's current status.
type Alert struct {
	Rule  Rule
	State State
	// Value is the rule's reading at the last evaluation (rate, gauge
	// value, or delta, by kind).
	Value float64
	// Since is when the rule entered Firing (zero unless firing).
	Since time.Time
	// Fired and Resolved count lifetime transitions.
	Fired, Resolved int64
}

// String renders the alert as the one-line form the "alerts" query
// prints.
func (a Alert) String() string {
	s := fmt.Sprintf("%s [%s] %s metric=%s value=%.3f", a.Rule.Name, a.Rule.Severity, a.State, a.Rule.Metric, a.Value)
	if a.State == Firing {
		s += fmt.Sprintf(" since=%s", a.Since.UTC().Format(time.RFC3339))
	}
	if a.Rule.Msg != "" {
		s += " — " + a.Rule.Msg
	}
	return s
}

// ruleState is the engine's per-rule bookkeeping.
type ruleState struct {
	breach   int // consecutive breaching evaluations
	clear    int // consecutive clear evaluations while firing
	state    State
	since    time.Time
	value    float64
	fired    int64
	resolved int64
}

// Engine evaluates rules against one series recorder. Eval is handed
// the tick time like series.Recorder.Sample — no clock in the
// evaluation path — so hysteresis tests run on a synthetic clock.
type Engine struct {
	rec   *series.Recorder
	rules []Rule

	mu     sync.Mutex
	states []ruleState

	// OnFire, when set, runs (outside the engine lock) for each rule
	// transitioning into Firing. merakid points this at the flight
	// recorder trigger.
	OnFire func(Alert)

	evals    *obs.Counter
	fired    *obs.Counter
	resolved *obs.Counter
}

// NewEngine creates an engine over rec with the given rules. A nil
// recorder yields a nil (no-op) engine.
func NewEngine(rec *series.Recorder, rules []Rule) *Engine {
	if rec == nil {
		return nil
	}
	return &Engine{rec: rec, rules: rules, states: make([]ruleState, len(rules))}
}

// EnableObs registers the engine's transition metrics on reg:
// "health.evals", "health.fired", "health.resolved" counters and a
// "health.firing" func gauge of currently firing rules. Observe-only,
// like everything in obs.
func (e *Engine) EnableObs(reg *obs.Registry) {
	if e == nil || reg == nil {
		return
	}
	e.evals = reg.Counter("health.evals")
	e.fired = reg.Counter("health.fired")
	e.resolved = reg.Counter("health.resolved")
	reg.RegisterFunc("health.firing", func() int64 {
		return int64(len(e.Firing()))
	})
}

// breach evaluates one rule's condition against the recorder,
// returning whether it breached and the reading it judged.
func (e *Engine) breach(r Rule) (bool, float64) {
	switch r.Kind {
	case RateOfChange:
		look := r.Ticks
		if look <= 0 {
			look = 1
		}
		pts := e.rec.Last(r.Metric, look+1)
		if len(pts) < look+1 {
			return false, 0
		}
		delta := pts[len(pts)-1].V - pts[0].V
		if r.Below {
			return delta < r.Bound, delta
		}
		return delta > r.Bound, delta
	case Absence:
		pts := e.rec.Last(r.Metric, 1)
		if len(pts) == 0 || !e.rec.EverActive(r.Metric) {
			return false, 0
		}
		kind, _ := e.rec.Kind(r.Metric)
		v := pts[0].V
		if kind == obs.KindHistogram {
			return pts[0].Count == 0, v
		}
		return v == 0, v
	default: // Threshold
		pts := e.rec.Last(r.Metric, 1)
		if len(pts) == 0 {
			return false, 0
		}
		v := pts[0].V
		if r.Below {
			return v < r.Bound, v
		}
		return v > r.Bound, v
	}
}

// Eval runs one evaluation pass at time now over every rule, advancing
// the firing state machines. merakid calls it right after each series
// sample tick.
func (e *Engine) Eval(now time.Time) {
	if e == nil {
		return
	}
	e.evals.Inc()
	var fired []Alert
	e.mu.Lock()
	for i, r := range e.rules {
		st := &e.states[i]
		breached, v := e.breach(r)
		st.value = v
		if breached {
			st.clear = 0
			st.breach++
			switch st.state {
			case OK:
				st.state = Pending
				if st.breach >= r.forTicks() {
					st.state = Firing
					st.since = now
					st.fired++
					e.fired.Inc()
					fired = append(fired, e.alertLocked(i))
				}
			case Pending:
				if st.breach >= r.forTicks() {
					st.state = Firing
					st.since = now
					st.fired++
					e.fired.Inc()
					fired = append(fired, e.alertLocked(i))
				}
			}
			continue
		}
		st.breach = 0
		switch st.state {
		case Pending:
			st.state = OK
		case Firing:
			st.clear++
			if st.clear >= r.forOKTicks() {
				st.state = OK
				st.since = time.Time{}
				st.clear = 0
				st.resolved++
				e.resolved.Inc()
			}
		}
	}
	e.mu.Unlock()
	if e.OnFire != nil {
		for _, a := range fired {
			e.OnFire(a)
		}
	}
}

// alertLocked builds rule i's Alert; e.mu must be held.
func (e *Engine) alertLocked(i int) Alert {
	st := e.states[i]
	return Alert{
		Rule:     e.rules[i],
		State:    st.state,
		Value:    st.value,
		Since:    st.since,
		Fired:    st.fired,
		Resolved: st.resolved,
	}
}

// Alerts returns every rule's current status, in rule order.
func (e *Engine) Alerts() []Alert {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Alert, len(e.rules))
	for i := range e.rules {
		out[i] = e.alertLocked(i)
	}
	return out
}

// Firing returns only the currently firing alerts, in rule order.
func (e *Engine) Firing() []Alert {
	var out []Alert
	for _, a := range e.Alerts() {
		if a.State == Firing {
			out = append(out, a)
		}
	}
	return out
}

// WriteText renders every rule's status one line per rule — the
// payload of the merakid "alerts" query.
func (e *Engine) WriteText(w io.Writer) {
	if e == nil {
		fmt.Fprintln(w, "ERR health engine disabled")
		return
	}
	for _, a := range e.Alerts() {
		fmt.Fprintln(w, a.String())
	}
}
