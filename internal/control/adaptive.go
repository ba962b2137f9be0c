package control

// AIMDLimit discovers and tracks the sustainable metadata rate with
// additive-increase / multiplicative-decrease — the classic congestion
// controller, driven here by a backend-health probe (e.g. "is the MDS
// saturated"). While the probe reports healthy, the limit creeps up by
// Increase each round, reclaiming capacity; on a saturation signal it is
// cut by the Decrease factor, backing the whole cluster off before the
// MDS accumulates a harmful backlog — §I's "dynamically adjusting the
// metadata rate of all jobs according to workload and system
// variations". The controller retunes its cluster limit with it at the
// start of every loop iteration (WithLimitAdapter), then allocates the
// (possibly changed) limit among jobs as usual.
type AIMDLimit struct {
	// Probe reports whether the protected backend is currently beyond
	// its sustainable operating point. Required.
	Probe func() bool
	// Min and Max clamp the limit.
	Min, Max float64
	// Increase is the additive step per healthy round (default Max/100,
	// or 1 when Max is unset).
	Increase float64
	// Decrease is the multiplicative back-off factor on a saturation
	// signal (default 0.7).
	Decrease float64
}

// AdjustLimit returns the next cluster limit given the current one.
func (a *AIMDLimit) AdjustLimit(current float64) float64 {
	inc := a.Increase
	if inc <= 0 {
		if a.Max > 0 {
			inc = a.Max / 100
		} else {
			inc = 1
		}
	}
	dec := a.Decrease
	if dec <= 0 || dec >= 1 {
		dec = 0.7
	}
	next := current
	if a.Probe != nil && a.Probe() {
		next = current * dec
	} else {
		next = current + inc
	}
	if a.Min > 0 && next < a.Min {
		next = a.Min
	}
	if a.Max > 0 && next > a.Max {
		next = a.Max
	}
	return next
}
