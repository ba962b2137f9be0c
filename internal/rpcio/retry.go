package rpcio

import "time"

// Backoff is an exponential backoff schedule. Its delays are a pure
// function of its fields and every wait runs on an injected clock.Clock,
// so a retry sequence is byte-identical across runs under the simulated
// clock — the property the chaos harness asserts.
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
	// Attempts is the total number of tries including the first
	// (0 or 1 = no retries).
	Attempts int
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

// Delays materializes the full retry-delay sequence (Attempts-1 entries).
// A transport computes it once, when it is built, and indexes into it on
// every retry.
func (b Backoff) Delays() []time.Duration {
	b = b.withDefaults()
	if b.Attempts <= 1 {
		return nil
	}
	delays := make([]time.Duration, 0, b.Attempts-1)
	d := b.Base
	for i := 0; i < b.Attempts-1; i++ {
		delays = append(delays, min(d, b.Max))
		d = min(time.Duration(float64(d)*b.Factor), b.Max)
	}
	return delays
}
