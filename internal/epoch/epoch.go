package epoch

// Epoch is one measurement period.
type Epoch uint8

const (
	// Jan2014 is the January 15-22, 2014 usage week.
	Jan2014 Epoch = iota
	// Jul2014 is the July 2014 link/interference baseline.
	Jul2014
	// Jan2015 is the January 15-22, 2015 usage week and the "now" of
	// the link/interference studies.
	Jan2015
)

// String names the epoch.
func (e Epoch) String() string {
	switch e {
	case Jan2014:
		return "Jan 2014"
	case Jul2014:
		return "Jul 2014"
	case Jan2015:
		return "Jan 2015"
	default:
		return "unknown epoch"
	}
}

// WeekSeconds is the length of one measurement week.
const WeekSeconds = 7 * 24 * 3600
