package sim

// RNG is a small, fast, deterministic pseudo-random number generator
// (xorshift128+). Every stochastic decision in the simulator draws from an
// explicitly seeded RNG so that identical configurations produce identical
// results — a requirement for the A/B power comparisons between
// power-aware and non-power-aware runs.
type RNG struct {
	s0, s1 uint64
}

// NewRNG returns a generator seeded from seed. Any seed, including zero,
// yields a usable generator.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed resets the generator state from seed using splitmix64, which
// guarantees the internal state is never all-zero.
func (r *RNG) Seed(seed uint64) {
	r.s0 = splitmix64(&seed)
	r.s1 = splitmix64(&seed)
}

func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	x, y := r.s0, r.s1
	r.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	r.s1 = x
	return x + y
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Bernoulli reports true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator from this one. Useful for giving
// each traffic source its own stream while keeping the whole simulation a
// function of a single master seed.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64())
}

// RNGState is the exportable state of an RNG: the raw xorshift128+ words.
// It exists so checkpoints can persist and restore every stream mid-run;
// nothing outside checkpointing should touch it (optolint enforces this).
type RNGState struct {
	S0, S1 uint64
}

// State returns the generator's current internal state. The next draw after
// SetState(State()) is identical to the next draw without the round-trip.
func (r *RNG) State() RNGState {
	return RNGState{S0: r.s0, S1: r.s1}
}

// SetState overwrites the generator state. An all-zero state — which the
// xorshift128+ recurrence can never leave and which only a corrupted or
// forged checkpoint can contain — is normalized to a valid fixed state
// rather than wedging the generator at zero forever.
func (r *RNG) SetState(st RNGState) {
	if st.S0 == 0 && st.S1 == 0 {
		st.S1 = 1
	}
	r.s0, r.s1 = st.S0, st.S1
}

// Stream identifiers for the simulator's top-level derived RNG streams.
// Every stochastic subsystem draws from its own stream derived from the one
// scenario seed, so enabling one subsystem (e.g. fault injection) never
// perturbs the draws of another (traffic): the whole simulation stays a
// function of (seed, configuration) with no cross-talk.
const (
	// StreamTraffic feeds the traffic generators. It is stream 0, which is
	// defined to be identical to NewRNG(seed), preserving the byte-exact
	// behaviour of every run recorded before streams existed.
	StreamTraffic uint64 = 0
	// StreamFault feeds the fault injector (which forks one sub-stream per
	// link from it).
	StreamFault uint64 = 1
	// StreamDSE feeds the design-space-exploration samplers (random, TPE,
	// successive halving). It is outside the per-run streams on purpose:
	// the search draws are a function of the *study* seed, so the trials a
	// study proposes never depend on — and never perturb — any single
	// trial's simulation draws. It stays 3 with stream 2 unused:
	// renumbering it would move every study's draws.
	StreamDSE uint64 = 3
)

// NewStream returns a generator for the given (seed, stream) pair. Distinct
// streams from the same seed are statistically independent. Stream 0 is
// exactly NewRNG(seed), so seed-keyed behaviour that predates streams is a
// stream-0 draw and stays bit-identical.
func NewStream(seed, stream uint64) *RNG {
	if stream != 0 {
		s := stream ^ 0xd2b74407b1ce6e93
		seed ^= splitmix64(&s)
	}
	return NewRNG(seed)
}
