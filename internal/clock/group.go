package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Drive runs main as the first actor of a simulation and advances the
// clock itself until main returns: whenever every actor is parked — on
// the clock, or in Group.Wait — it releases the single earliest waiter
// (equal deadlines in parking order) and waits for every actor to park
// again. One actor runs at a time, so a program of blocking goroutines —
// spawned with Group.Go, parking only on this clock — runs to the same
// event order on every run, on any number of Ps.
//
// Actors block only on this clock and in Group.Wait, and receive what
// they park for. A sleeper woken off the clock — a token bucket's retune
// broadcast — runs beside the actor that woke it, and the event order is
// no longer fixed; an armed timer nobody receives from hangs the drive.
// Drive panics when every actor is blocked and no waiter is parked. It
// returns as soon as main does; actors still parked then stay parked.
func (s *Sim) Drive(main func()) {
	s.mu.Lock()
	if s.driving {
		s.mu.Unlock()
		panic("clock: Drive called during Drive")
	}
	s.driving = true
	s.mu.Unlock()
	g := NewGroup(s)
	g.Go(main)
	for {
		s.mu.Lock()
		for s.live > 0 {
			s.parked.Wait() //lint:allow lockcheck Cond.Wait releases s.mu for as long as it blocks
		}
		if g.n == 0 {
			s.driving = false
			s.mu.Unlock()
			return
		}
		if len(s.waiters) == 0 {
			s.mu.Unlock()
			panic("clock: Drive: every actor is blocked and none is parked on the clock")
		}
		w := heap.Pop(&s.waiters).(*waiter)
		if w.deadline.After(s.now) {
			s.now = w.deadline
		}
		s.live++ // counted before the send: live stays above zero until the waiter parks again
		now := s.now
		s.mu.Unlock()
		w.ch <- now
	}
}

// Group runs goroutines and waits for them all: the fork-join of a
// benchmark's ranks. On any clock but a Sim inside Drive it is exactly a
// sync.WaitGroup. Inside Drive each goroutine is an actor that starts
// parked at the current instant, in spawn order, and a Wait that blocks
// hands its turn to the last child to finish, so the simulation never
// sees the parent running and the children done at once.
type Group struct {
	sim *Sim
	wg  sync.WaitGroup
	// Under sim.mu: running actor children, and the channel a blocked
	// Wait receives on (nil when none is blocked).
	n      int
	waiter chan struct{}
}

// NewGroup returns an empty group on clk.
func NewGroup(clk Clock) *Group {
	sim, _ := clk.(*Sim)
	return &Group{sim: sim}
}

// Go runs f on a new goroutine of the group.
func (g *Group) Go(f func()) {
	if s := g.sim; s != nil {
		s.mu.Lock()
		if s.driving {
			g.n++
			w := &waiter{deadline: s.now, ch: make(chan time.Time, 1)}
			s.live++ // the child is an actor from spawn, parked until its turn
			s.parkLocked(w)
			s.mu.Unlock()
			go func() {
				<-w.ch
				f()
				s.mu.Lock()
				g.n--
				if g.n == 0 && g.waiter != nil {
					close(g.waiter) // the waiting parent takes over this child's live count
					g.waiter = nil
				} else if s.live--; s.live == 0 {
					s.parked.Broadcast()
				}
				s.mu.Unlock()
			}()
			return
		}
		s.mu.Unlock()
	}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		f()
	}()
}

// Wait blocks until every goroutine the group started has returned.
func (g *Group) Wait() {
	g.wg.Wait()
	s := g.sim
	if s == nil {
		return
	}
	s.mu.Lock()
	if g.n == 0 {
		s.mu.Unlock()
		return
	}
	ch := make(chan struct{})
	g.waiter = ch
	if s.live--; s.live == 0 {
		s.parked.Broadcast()
	}
	s.mu.Unlock()
	<-ch
}
