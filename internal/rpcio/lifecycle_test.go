package rpcio

import (
	"errors"
	"strings"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/stage"
)

// TestLifecycleRules drives the lifecycle machine by hand, one row per
// rule: no clock runs it and no socket carries its registrations, which
// answer from each row's script, or the exchanges its links serve,
// which each row's "serve" steps count. Every row starts with the stage
// registered at epoch on a live link whose controller runs its loop
// every row's period (0: none runs); each registration's link has the
// same period. The watch looks once a period, and at 10 s a silence
// bound is 2 × 10 s + DefaultCallTimeout = 25 s.
func TestLifecycleRules(t *testing.T) {
	epoch := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	errDown := errors.New("controller down")
	const ms = time.Millisecond
	type step struct {
		at time.Duration
		do string // "lost", "wake", "serve" or "stop"
		// What the step did: the event, the registrations it made ("r"
		// each), then the machine's state.
		want     Event
		calls    string
		degraded bool
		linked   bool
		next     time.Duration // -1: nothing due
	}
	for _, tc := range []struct {
		name      string
		period    time.Duration
		registers []error
		steps     []step
	}{{
		name:      "link loss degrades and makes an attempt at once",
		registers: []error{errDown},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * ms},
		},
	}, {
		name:      "failed attempts wait 50, 100, 200 and 200 ms",
		registers: []error{errDown, errDown, errDown, errDown, nil},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * ms},
			{at: 50 * ms, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 150 * ms},
			{at: 100 * ms, do: "wake", degraded: true, next: 150 * ms}, // early: nothing
			{at: 150 * ms, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 350 * ms},
			{at: 350 * ms, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 550 * ms},
			{at: 550 * ms, do: "wake", want: Event{Registered: true, Cleared: true}, calls: "r", linked: true, next: -1},
		},
	}, {
		name:      "a link silent past the bound degrades and registers again",
		period:    10 * time.Second,
		registers: []error{errDown, nil},
		steps: []step{
			{at: 5 * time.Second, do: "wake", linked: true, next: 10 * time.Second}, // early: nothing
			{at: 10 * time.Second, do: "wake", linked: true, next: 20 * time.Second},
			{at: 20 * time.Second, do: "wake", linked: true, next: 25 * time.Second},
			{at: 25 * time.Second, do: "wake", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 25050 * ms},
			{at: 25050 * ms, do: "wake", want: Event{Registered: true, Cleared: true}, calls: "r", linked: true, next: 35050 * ms},
		},
	}, {
		name:      "an exchange within the bound keeps the link",
		period:    10 * time.Second,
		registers: []error{nil},
		steps: []step{
			{at: 10 * time.Second, do: "wake", linked: true, next: 20 * time.Second},
			{at: 15 * time.Second, do: "serve", linked: true, next: 20 * time.Second},
			{at: 20 * time.Second, do: "wake", linked: true, next: 30 * time.Second},
			{at: 30 * time.Second, do: "wake", linked: true, next: 40 * time.Second},
			{at: 40 * time.Second, do: "wake", linked: true, next: 45 * time.Second},
			{at: 45 * time.Second, do: "wake", want: Event{Degraded: true, Registered: true, Cleared: true}, calls: "r", linked: true, next: 55 * time.Second},
		},
	}, {
		name:      "a failed re-registration stays degraded",
		period:    10 * time.Second,
		registers: []error{errDown, errDown},
		steps: []step{
			{at: 10 * time.Second, do: "wake", linked: true, next: 20 * time.Second},
			{at: 20 * time.Second, do: "wake", linked: true, next: 25 * time.Second},
			{at: 25 * time.Second, do: "wake", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 25050 * ms},
			{at: 25050 * ms, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 25150 * ms},
		},
	}, {
		name: "period 0 arms no watch",
		steps: []step{
			{at: time.Hour, do: "wake", linked: true, next: -1},
		},
	}, {
		name:      "a stop during a retry ends the loop",
		registers: []error{errDown},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * ms},
			{at: 0, do: "stop", degraded: true, next: -1},
			{at: 50 * ms, do: "wake", degraded: true, next: -1},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			stg := stage.New(stage.Info{StageID: "s"}, clock.NewSim(epoch))
			var calls strings.Builder
			var served uint64
			newLink := func() (Link, chan struct{}) {
				done := make(chan struct{})
				return Link{Done: done, Period: tc.period, Served: func() uint64 { return served }}, done
			}
			registers := tc.registers
			register := func() (Link, error) {
				calls.WriteString("r")
				if len(registers) == 0 {
					t.Fatal("an unscripted registration")
				}
				err := registers[0]
				registers = registers[1:]
				if err != nil {
					return Link{}, err
				}
				link, _ := newLink()
				return link, nil
			}
			link, done := newLink()
			l := NewLifecycle(stg, epoch, link, register)
			for i, s := range tc.steps {
				calls.Reset()
				now := epoch.Add(s.at)
				var got Event
				switch s.do {
				case "lost":
					close(done)
					got = l.Lost(now)
				case "wake":
					got = l.Wake(now)
				case "serve":
					served++
				case "stop":
					l.Stop()
				}
				next := time.Duration(-1)
				if !l.Next().IsZero() {
					next = l.Next().Sub(epoch)
				}
				if got != s.want || calls.String() != s.calls || stg.Degraded() != s.degraded ||
					(l.Dead() != nil) != s.linked || next != s.next {
					t.Errorf("step %d (%s at %v): event %+v, calls %q, degraded %v, linked %v, next %v; want %+v, %q, %v, %v, %v",
						i, s.do, s.at, got, calls.String(), stg.Degraded(), l.Dead() != nil, next,
						s.want, s.calls, s.degraded, s.linked, s.next)
				}
			}
			if len(registers) != 0 {
				t.Errorf("%d registrations scripted but never made", len(registers))
			}
		})
	}
}
