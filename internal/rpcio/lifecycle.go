package rpcio

import (
	"time"

	"padll/internal/stage"
)

// Lifecycle is a stage's life with its controller (DESIGN §8), written
// once for the data plane's loop and the simulated cluster alike: a
// synchronous machine with no goroutine and no timer of its own. The
// loop that runs it reports the death of the link the stage registered
// on (Lost) and the arrival of the instant Next names (Wake). The link
// is lost when it dies, and when it goes silent: a controller that runs
// its loop every period exchanges with the stage each round, so a link
// that served no exchange for silence(period) has lost its controller,
// though nothing closed it (a partition, a controller host that
// vanished). The machine looks at the link's count of served exchanges
// once a period, so it notices silence within a period of the bound. A
// lost link degrades the stage, which keeps its last limits, and the
// stage registers again at once, then on the retry schedule; a silent
// link stays open until a registration replaces it. Only a registration
// that succeeds clears Degraded.
type Lifecycle struct {
	stg      *stage.Stage
	register func() (Link, error)
	link     Link      // the link the stage registered on; zero: none
	seen     uint64    // link.Served() when the watch last saw it move
	quiet    time.Time // when that was: the silence counts from it
	attempt  int       // failed registrations since the link was lost
	next     time.Time // the next wake; zero: none
}

// Link is a registration as the lifecycle watches it: Done is closed
// once the connection dies (nil: no link); Period is the controller's
// loop period, which the registration's answer carries (0: no loop
// runs, and silence says nothing); Served counts the exchanges served
// on the connection.
type Link struct {
	Done   <-chan struct{}
	Period time.Duration
	Served func() uint64
}

// silence is how long a link may serve no exchange before it counts as
// lost, when its controller runs a round every period: two missed
// rounds, and the deadline of the exchange a third could be waiting on.
func silence(period time.Duration) time.Duration {
	return 2*period + DefaultCallTimeout
}

// Event is what one input changed: the stage became degraded (Err is
// the failed registration, nil for a lost link), a registration
// succeeded, and whether that cleared Degraded.
type Event struct {
	Degraded, Registered, Cleared bool
	Err                           error
}

// NewLifecycle starts stg's lifecycle at now on link (none: a
// registration is due at once). register registers the stage over a
// fresh link.
func NewLifecycle(stg *stage.Stage, now time.Time, link Link, register func() (Link, error)) *Lifecycle {
	l := &Lifecycle{stg: stg, register: register, next: now}
	if link.Done != nil {
		l.watch(now, link)
	}
	return l
}

// watch makes link the stage's from now, watching its silence when its
// controller runs a loop.
func (l *Lifecycle) watch(now time.Time, link Link) {
	l.link, l.attempt, l.next = link, 0, time.Time{}
	if link.Period > 0 {
		l.seen, l.quiet, l.next = link.Served(), now, now.Add(link.Period)
	}
}

// Dead is closed when the stage's link dies; nil (it never fires) while
// there is none.
func (l *Lifecycle) Dead() <-chan struct{} { return l.link.Done }

// Next is when the next Wake is due; zero while none is.
func (l *Lifecycle) Next() time.Time { return l.next }

// Stop ends the lifecycle: nothing is due and no link is watched.
func (l *Lifecycle) Stop() { l.link, l.next = Link{}, time.Time{} }

// Lost reports at now that the link is lost: the stage degrades and
// registers again at once.
func (l *Lifecycle) Lost(now time.Time) Event {
	l.link, l.attempt = Link{}, 0
	lost := l.degrade(nil)
	ev := l.try(now)
	ev.Degraded = ev.Degraded || lost.Degraded
	return ev
}

// Wake acts at now once Next is due, and earlier does nothing: it makes
// a registration attempt while the stage has no link; with one, it
// looks whether the link served an exchange since its last look, and a
// link that has served none for the silence bound is lost.
func (l *Lifecycle) Wake(now time.Time) Event {
	if l.next.IsZero() || now.Before(l.next) {
		return Event{}
	}
	if l.link.Done == nil {
		return l.try(now)
	}
	lost := l.quiet.Add(silence(l.link.Period))
	if n := l.link.Served(); n != l.seen {
		l.seen, l.quiet = n, now
		lost = now.Add(silence(l.link.Period))
	} else if !now.Before(lost) {
		return l.Lost(now)
	}
	if l.next = now.Add(l.link.Period); lost.Before(l.next) {
		l.next = lost
	}
	return Event{}
}

// try registers the stage at now. A failure degrades it and waits out
// the retry schedule.
func (l *Lifecycle) try(now time.Time) Event {
	link, err := l.register()
	if err != nil {
		l.next = now.Add(RetryDelay(l.attempt))
		l.attempt++
		return l.degrade(err)
	}
	l.watch(now, link)
	return Event{Registered: true, Cleared: l.stg.SetDegraded(false)}
}

// degrade freezes the stage at its last limits, for the reason err.
func (l *Lifecycle) degrade(err error) Event {
	return Event{Degraded: l.stg.SetDegraded(true), Err: err}
}
