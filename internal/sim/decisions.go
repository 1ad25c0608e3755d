package sim

// A decider supplies every nondeterministic choice the virtual runtime
// makes: run-queue picks, handler yield/preempt draws, and select-case
// choices. Abstracting it lets an execution be recorded as a portable
// decision script and replayed exactly, independent of RNG internals —
// the debugging artifact a detected schedule is shipped as.
type decider interface {
	// Intn draws a uniform integer in [0, n).
	Intn(n int) int
	// Chance draws a biased coin with probability p.
	Chance(p float64) bool
}

// prng is the seeded generator behind the default decider: a splitmix64
// stream. Campaigns construct one scheduler per run, so seeding must be
// O(1) — math/rand's rngSource initializes a 607-word feedback table per
// Seed call, which profiled as ~28% of a campaign cell. A decision draw
// is one add and three xor-multiply mixes, and the stream is a pure
// function of the seed, so (program, seed, options) determinism holds
// exactly as before.
type prng struct {
	state uint64
}

const splitmixGamma = 0x9E3779B97F4A7C15

func (p *prng) seed(seed int64) {
	// One mix step separates nearby seeds before the stream starts.
	p.state = (uint64(seed) + splitmixGamma) * 0xBF58476D1CE4E5B9
}

func (p *prng) next() uint64 {
	p.state += splitmixGamma
	z := p.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (p *prng) Intn(n int) int {
	return int(p.next() % uint64(n))
}

func (p *prng) Chance(prob float64) bool {
	return float64(p.next()>>11)*(1.0/(1<<53)) < prob
}

// recorder wraps another decider and logs every decision.
//
// Script encoding: Intn(n) results are stored as the drawn value (≥ 0);
// Chance results as 1 (hit) / 0 (miss). Replay validates only structure,
// not ranges, so a script replayed against a different program may fail.
type recorder struct {
	inner decider
	log   []int64
}

func (d *recorder) Intn(n int) int {
	v := d.inner.Intn(n)
	d.log = append(d.log, int64(v))
	return v
}

func (d *recorder) Chance(p float64) bool {
	v := d.inner.Chance(p)
	bit := int64(0)
	if v {
		bit = 1
	}
	d.log = append(d.log, bit)
	return v
}

// scriptDecider replays a recorded decision log. When the script runs dry
// it falls back to the seeded PRNG and flags the divergence.
type scriptDecider struct {
	script   []int64
	pos      int
	fallback decider
	diverged bool
}

func (d *scriptDecider) next() (int64, bool) {
	if d.pos >= len(d.script) {
		d.diverged = true
		return 0, false
	}
	v := d.script[d.pos]
	d.pos++
	return v, true
}

func (d *scriptDecider) Intn(n int) int {
	v, ok := d.next()
	if !ok {
		return d.fallback.Intn(n)
	}
	if v < 0 || v >= int64(n) {
		// Structural divergence: clamp but mark it.
		d.diverged = true
		if v < 0 {
			return 0
		}
		return int(v) % n
	}
	return int(v)
}

func (d *scriptDecider) Chance(p float64) bool {
	v, ok := d.next()
	if !ok {
		return d.fallback.Chance(p)
	}
	return v != 0
}
