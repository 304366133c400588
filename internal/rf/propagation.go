// Package rf models the radio-frequency environment of the study:
// indoor propagation (log-distance path loss with log-normal shadowing),
// temporal channel variation (slow AR(1) shadowing plus Rician fast
// fading), frequency-selective subcarrier fading, thermal noise, and the
// non-802.11 interference sources (Bluetooth frequency hoppers, microwave
// ovens, Zigbee and analog transmitters) whose presence the paper
// quantifies in Sections 4 and 5.
package rf

import (
	"math"

	"wlanscale/internal/dot11"
)

// DBmToMw converts a power level from dBm to milliwatts.
func DBmToMw(dbm float64) float64 { return math.Pow(10, dbm/10) }

// MwToDBm converts a power level from milliwatts to dBm. Non-positive
// inputs map to a -200 dBm floor.
func MwToDBm(mw float64) float64 {
	if mw <= 0 {
		return -200
	}
	return 10 * math.Log10(mw)
}

// SumPowersDBm adds power levels expressed in dBm (summing in the linear
// domain).
func SumPowersDBm(levels ...float64) float64 {
	var mw float64
	for _, l := range levels {
		mw += DBmToMw(l)
	}
	return MwToDBm(mw)
}

// NoiseFloorDBm returns the thermal noise floor for the given receive
// bandwidth in MHz, assuming a 7 dB receiver noise figure — about
// -94 dBm for a 20 MHz 802.11 channel.
func NoiseFloorDBm(bandwidthMHz float64) float64 {
	// kTB at 290 K is -174 dBm/Hz.
	return -174 + 10*math.Log10(bandwidthMHz*1e6) + 7
}

// Environment selects path-loss parameters for a deployment type.
type Environment int

const (
	// EnvOpenOffice is an open-plan office with cubicles.
	EnvOpenOffice Environment = iota
	// EnvDrywallOffice is an office with drywall partitions.
	EnvDrywallOffice
	// EnvDenseObstructed is a warehouse/retail/hospital environment
	// with racks, machinery, or masonry walls.
	EnvDenseObstructed
	// EnvOutdoor is an open outdoor deployment.
	EnvOutdoor
)

// pathLossParams holds the log-distance model parameters: exponent and
// shadowing sigma.
type pathLossParams struct {
	exponent float64
	shadowDB float64
}

var envParams = map[Environment]pathLossParams{
	EnvOpenOffice:      {exponent: 3.0, shadowDB: 5},
	EnvDrywallOffice:   {exponent: 3.5, shadowDB: 7},
	EnvDenseObstructed: {exponent: 4.0, shadowDB: 9},
	EnvOutdoor:         {exponent: 2.3, shadowDB: 4},
}

// ShadowSigmaDB returns the log-normal shadowing standard deviation for
// the environment.
func (e Environment) ShadowSigmaDB() float64 { return envParams[e].shadowDB }

// PathLossDB returns the median path loss in dB over the given distance
// in meters for a carrier in the given band, using the log-distance model
// with a 1 m free-space reference. The 5 GHz band sees roughly 6-7 dB
// more loss than 2.4 GHz at the same distance (free-space difference),
// which is the attenuation the paper invokes to explain why most capable
// clients still associate at 2.4 GHz.
func PathLossDB(e Environment, band dot11.Band, distanceM float64) float64 {
	if distanceM < 1 {
		distanceM = 1
	}
	// Free-space loss at the 1 m reference: 20log10(4*pi*d*f/c).
	fMHz := 2437.0
	if band == dot11.Band5 {
		fMHz = 5220.0
	}
	ref := 20*math.Log10(fMHz) - 27.55 // d = 1 m
	return ref + 10*envParams[e].exponent*math.Log10(distanceM)
}

// ReceivedPowerDBm returns the median received power for a transmitter
// with the given EIRP (dBm, including antenna gain) at the given
// distance, before shadowing and fading.
func ReceivedPowerDBm(e Environment, band dot11.Band, eirpDBm, distanceM float64) float64 {
	return eirpDBm - PathLossDB(e, band, distanceM)
}

// SNRdB returns the signal-to-noise ratio for a received power over a
// 20 MHz channel.
func SNRdB(rxDBm float64) float64 { return rxDBm - NoiseFloorDBm(20) }

// RangeForSNR returns the distance in meters at which the median SNR
// drops to the given value — useful for sizing simulated sites.
func RangeForSNR(e Environment, band dot11.Band, eirpDBm, snrDB float64) float64 {
	// Solve eirp - ref - 10*n*log10(d) - noise = snr for d.
	fMHz := 2437.0
	if band == dot11.Band5 {
		fMHz = 5220.0
	}
	ref := 20*math.Log10(fMHz) - 27.55
	lossBudget := eirpDBm - ref - NoiseFloorDBm(20) - snrDB
	n := envParams[e].exponent
	if lossBudget <= 0 {
		return 1
	}
	return math.Pow(10, lossBudget/(10*n))
}
