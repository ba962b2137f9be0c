package rpcio

import (
	"math/rand"
	"time"
)

// Backoff is a seeded, jittered exponential backoff schedule. All waits
// run on an injected clock.Clock, and the jitter PRNG is seeded, so a
// retry sequence is byte-identical across runs under the simulated clock
// — the property the chaos harness asserts.
//
// The zero value is usable: it means "no retries" (a single attempt).
type Backoff struct {
	// Base is the delay before the first retry (default 50ms when
	// Attempts > 1).
	Base time.Duration
	// Max caps the grown delay (default 2s).
	Max time.Duration
	// Factor is the per-retry growth multiplier (default 2).
	Factor float64
	// Jitter is the fraction of each delay drawn uniformly at random and
	// added on top, in [0, Jitter*delay) (default 0, fully deterministic).
	Jitter float64
	// Attempts is the total number of tries including the first
	// (0 or 1 = no retries).
	Attempts int
	// Seed seeds the jitter PRNG.
	Seed int64
}

// DefaultBackoff is the schedule dial and call paths use unless
// overridden: four attempts at 50ms/100ms/200ms keep transient blips
// invisible while a dead peer still fails in well under a second.
var DefaultBackoff = Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Factor: 2, Attempts: 4}

func (b Backoff) withDefaults() Backoff {
	if b.Attempts < 1 {
		b.Attempts = 1
	}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	return b
}

// Delays materializes the full retry-delay sequence (Attempts-1 entries),
// jitter included. For a given Backoff value the result is always the
// same slice: the schedule is a pure function of its fields, so callers
// that retry often compute it once and index into it — seeding the
// jitter PRNG costs more than a steady-state exchange.
func (b Backoff) Delays() []time.Duration {
	b = b.withDefaults()
	if b.Attempts <= 1 {
		return nil
	}
	rng := rand.New(rand.NewSource(b.Seed))
	delays := make([]time.Duration, 0, b.Attempts-1)
	d := b.Base
	for i := 0; i < b.Attempts-1; i++ {
		step := d
		if step > b.Max {
			step = b.Max
		}
		if b.Jitter > 0 {
			step += time.Duration(b.Jitter * float64(step) * rng.Float64())
		}
		delays = append(delays, step)
		d = time.Duration(float64(d) * b.Factor)
		if d > b.Max {
			d = b.Max
		}
	}
	return delays
}
