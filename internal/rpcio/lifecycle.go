package rpcio

import (
	"time"

	"padll/internal/stage"
)

// Lifecycle is a stage's life with its controller (DESIGN §8), written
// once for the data plane's loop and the simulated cluster alike: a
// synchronous machine with no goroutine and no timer of its own. The
// loop that runs it reports the death of the link the stage registered
// on (Lost) and the arrival of the instant Next names (Wake). A lost link or a
// failed heartbeat degrades the stage, which keeps its last limits. A
// lost link is registered again at once, then on the retry schedule; a
// heartbeat that reaches the controller again, or learns that it does
// not hold the stage, registers it again. Only a registration that
// succeeds clears Degraded.
type Lifecycle struct {
	stg      *stage.Stage
	register func() (link <-chan struct{}, err error)
	probe    func() (registered bool, err error)
	every    time.Duration   // the heartbeat's period; 0: none
	link     <-chan struct{} // closed once the link dies; nil: no link
	attempt  int             // failed registrations since the link was lost
	next     time.Time       // the next wake; zero: none
}

// Event is what one input changed: the stage became degraded (Err is
// the failed probe or registration, nil for a lost link), a
// registration succeeded, and whether that cleared Degraded.
type Event struct {
	Degraded, Registered, Cleared bool
	Err                           error
}

// NewLifecycle starts stg's lifecycle at now on link, closed when the
// link the stage registered on dies (nil: none yet, and a registration
// is due at once). register registers the stage over a fresh link.
func NewLifecycle(stg *stage.Stage, now time.Time, link <-chan struct{}, register func() (<-chan struct{}, error)) *Lifecycle {
	l := &Lifecycle{stg: stg, register: register, link: link}
	if link == nil {
		l.next = now
	}
	return l
}

// Heartbeat makes the stage probe, every period from now while it has a
// link, whether its controller holds it.
func (l *Lifecycle) Heartbeat(now time.Time, every time.Duration, probe func() (registered bool, err error)) {
	l.every, l.probe = every, probe
	if l.link != nil {
		l.next = now.Add(every)
	}
}

// Link is closed when the stage's link dies; nil (it never fires) while
// there is none.
func (l *Lifecycle) Link() <-chan struct{} { return l.link }

// Next is when the next Wake is due; zero while none is.
func (l *Lifecycle) Next() time.Time { return l.next }

// Stop ends the lifecycle: nothing is due and no link is watched.
func (l *Lifecycle) Stop() { l.link, l.next = nil, time.Time{} }

// Lost reports at now that the link died: the stage degrades and
// registers again at once.
func (l *Lifecycle) Lost(now time.Time) Event {
	l.link, l.attempt = nil, 0
	lost := l.degrade(nil)
	ev := l.try(now)
	ev.Degraded = ev.Degraded || lost.Degraded
	return ev
}

// Wake acts at now once Next is due, and earlier does nothing: it makes
// a registration attempt while the stage has no link, else a heartbeat.
func (l *Lifecycle) Wake(now time.Time) Event {
	if l.next.IsZero() || now.Before(l.next) {
		return Event{}
	}
	if l.link == nil {
		return l.try(now)
	}
	l.next = now.Add(l.every)
	registered, err := l.probe()
	switch {
	case err != nil:
		return l.degrade(err)
	case registered && !l.stg.Degraded():
		return Event{}
	}
	// The controller is back, or does not hold the stage (it restarted
	// behind a link that stayed open, or evicted the stage).
	return l.try(now)
}

// try registers the stage at now. A failure degrades it and, with no
// link to beat on, waits out the retry schedule.
func (l *Lifecycle) try(now time.Time) Event {
	link, err := l.register()
	if err != nil {
		if l.link == nil {
			l.next = now.Add(RetryDelay(l.attempt))
			l.attempt++
		}
		return l.degrade(err)
	}
	l.link, l.attempt, l.next = link, 0, time.Time{}
	if l.every > 0 {
		l.next = now.Add(l.every)
	}
	return Event{Registered: true, Cleared: l.stg.SetDegraded(false)}
}

// degrade freezes the stage at its last limits, for the reason err.
func (l *Lifecycle) degrade(err error) Event {
	return Event{Degraded: l.stg.SetDegraded(true), Err: err}
}
