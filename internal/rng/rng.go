package rng

import (
	"hash/fnv"
	"math"
	"math/rand/v2"
	"strconv"
)

// Source is a deterministic random stream. It wraps a PCG generator from
// math/rand/v2 and adds the distribution samplers the simulator needs.
// A Source is not safe for concurrent use; split one per goroutine.
type Source struct {
	r *rand.Rand
	// seed material retained so the source can be split.
	hi, lo uint64
}

// New returns a Source rooted at the given seed.
func New(seed uint64) *Source {
	return newFrom(seed, 0x9e3779b97f4a7c15)
}

func newFrom(hi, lo uint64) *Source {
	return &Source{r: rand.New(rand.NewPCG(hi, lo)), hi: hi, lo: lo}
}

// Split derives an independent Source identified by label. The derived
// stream depends only on the parent's seed material and the label, never
// on how much of the parent stream has been consumed.
func (s *Source) Split(label string) *Source {
	h := fnv.New64a()
	var b [8]byte
	putUint64(b[:], s.hi)
	h.Write(b[:])
	putUint64(b[:], s.lo)
	h.Write(b[:])
	h.Write([]byte(label))
	lo := h.Sum64()
	h.Write([]byte{0x5c})
	hi := h.Sum64()
	return newFrom(hi, lo)
}

// SplitN derives an independent Source identified by label and an index,
// e.g. SplitN("ap", 17) for the 18th access point.
func (s *Source) SplitN(label string, n int) *Source {
	return s.Split(label + "/" + strconv.Itoa(n))
}

func putUint64(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

// Float64 returns a uniform value in [0,1).
func (s *Source) Float64() float64 { return s.r.Float64() }

// IntN returns a uniform int in [0,n). It panics if n <= 0.
func (s *Source) IntN(n int) int { return s.r.IntN(n) }

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 { return s.r.Uint64() }

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.r.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation.
func (s *Source) Normal(mean, stddev float64) float64 {
	return mean + stddev*s.r.NormFloat64()
}

// LogNormal returns a value whose logarithm is normally distributed with
// parameters mu and sigma (natural log scale).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// LogNormalMeanMedian returns a log-normal sample parameterized by its
// median m and the sigma of the underlying normal. Usage and traffic
// volumes in the study are heavy-tailed, and a median-parameterized
// log-normal is the most convenient way to state calibration targets.
func (s *Source) LogNormalMeanMedian(median, sigma float64) float64 {
	if median <= 0 {
		return 0
	}
	return s.LogNormal(math.Log(median), sigma)
}

// Exp returns an exponentially distributed value with the given mean.
func (s *Source) Exp(mean float64) float64 {
	return s.r.ExpFloat64() * mean
}

// Pareto returns a Pareto(xm, alpha) sample: heavy-tailed with minimum xm.
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.r.Float64()
	for u == 0 {
		u = s.r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// RicianPowerDB returns the instantaneous fading gain in dB for a Rician
// channel with K-factor k (linear ratio of line-of-sight power to
// scattered power). Large k approaches no fading; k=0 is Rayleigh.
func (s *Source) RicianPowerDB(k float64) float64 {
	// Sample the complex envelope: LOS component sqrt(k/(k+1)) plus a
	// complex Gaussian scatter component with variance 1/(k+1).
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	los := math.Sqrt(k / (k + 1))
	re := los + sigma*s.r.NormFloat64()
	im := sigma * s.r.NormFloat64()
	p := re*re + im*im
	if p < 1e-12 {
		p = 1e-12
	}
	return 10 * math.Log10(p)
}

// Binomial returns the number of successes in n Bernoulli(p) trials.
// For large n it uses a normal approximation; exact sampling otherwise.
func (s *Source) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n >= 64 && n*int(math.Min(p, 1-p)*100) >= 500 {
		// Normal approximation with continuity correction.
		mean := float64(n) * p
		sd := math.Sqrt(float64(n) * p * (1 - p))
		v := int(math.Round(s.Normal(mean, sd)))
		if v < 0 {
			v = 0
		}
		if v > n {
			v = n
		}
		return v
	}
	k := 0
	for i := 0; i < n; i++ {
		if s.r.Float64() < p {
			k++
		}
	}
	return k
}

// Poisson returns a Poisson-distributed count with the given mean.
func (s *Source) Poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	if mean > 30 {
		// Normal approximation for large means.
		v := int(math.Round(s.Normal(mean, math.Sqrt(mean))))
		if v < 0 {
			v = 0
		}
		return v
	}
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= s.r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Zipf samples ranks in [0, n) with Zipf exponent sExp >= 1. Rank 0 is the
// most popular. Used for application and host popularity.
func (s *Source) Zipf(n int, sExp float64) int {
	if n <= 1 {
		return 0
	}
	z := rand.NewZipf(s.r, sExp, 1, uint64(n-1))
	return int(z.Uint64())
}

// Perm returns a random permutation of [0,n).
func (s *Source) Perm(n int) []int { return s.r.Perm(n) }

// Categorical draws an index from the (unnormalized) weight vector.
// It panics if weights is empty or sums to a non-positive value.
func (s *Source) Categorical(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if len(weights) == 0 || total <= 0 {
		panic("rng: Categorical requires positive weights")
	}
	x := s.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		if x < w {
			return i
		}
		x -= w
	}
	return len(weights) - 1
}

// WeightedTable is a precomputed alias-method sampler over a fixed weight
// vector, for hot paths that draw from the same categorical distribution
// millions of times (e.g. assigning applications to flows).
type WeightedTable struct {
	prob  []float64
	alias []int
}

// NewWeightedTable builds an alias table from the (unnormalized) weights.
func NewWeightedTable(weights []float64) *WeightedTable {
	n := len(weights)
	if n == 0 {
		panic("rng: NewWeightedTable requires at least one weight")
	}
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: weights sum to zero")
	}
	t := &WeightedTable{prob: make([]float64, n), alias: make([]int, n)}
	scaled := make([]float64, n)
	var small, large []int
	for i, w := range weights {
		scaled[i] = w / total * float64(n)
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[l] = scaled[l]
		t.alias[l] = g
		scaled[g] = scaled[g] + scaled[l] - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
		t.alias[i] = i
	}
	for _, i := range small {
		t.prob[i] = 1
		t.alias[i] = i
	}
	return t
}

// Len returns the number of categories in the table.
func (t *WeightedTable) Len() int { return len(t.prob) }

// Sample draws one index using the source.
func (t *WeightedTable) Sample(s *Source) int {
	i := s.IntN(len(t.prob))
	if s.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// AR1 is a first-order autoregressive Gaussian process, used to model
// slowly varying quantities such as shadowing and channel load. The
// process has stationary mean Mean and stationary standard deviation
// Stddev; Rho in [0,1) controls how strongly successive samples correlate.
type AR1 struct {
	Mean   float64
	Stddev float64
	Rho    float64
	state  float64
	primed bool
}

// Next advances the process and returns the new value.
func (a *AR1) Next(s *Source) float64 {
	if !a.primed {
		a.state = s.Normal(0, a.Stddev)
		a.primed = true
	} else {
		innov := a.Stddev * math.Sqrt(1-a.Rho*a.Rho)
		a.state = a.Rho*a.state + s.Normal(0, innov)
	}
	return a.Mean + a.state
}

// Value returns the current value without advancing.
func (a *AR1) Value() float64 { return a.Mean + a.state }
