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
// rule: no clock runs it and no socket carries its registrations or
// probes, which answer from each row's script. Every row starts with
// the stage registered on a live link at epoch.
func TestLifecycleRules(t *testing.T) {
	epoch := time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)
	errDown := errors.New("controller down")
	type probe struct {
		registered bool
		err        error
	}
	type step struct {
		at time.Duration
		do string // "lost", "wake" or "stop"
		// What the step did: the event, the seams it called in order
		// ("r" a registration, "p" a probe), then the machine's state.
		want     Event
		calls    string
		degraded bool
		linked   bool
		next     time.Duration // -1: nothing due
	}
	for _, tc := range []struct {
		name      string
		beat      bool // the stage probes its controller every second
		registers []error
		probes    []probe
		steps     []step
	}{{
		name:      "link loss degrades and makes an attempt at once",
		registers: []error{errDown},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * time.Millisecond},
		},
	}, {
		name:      "failed attempts wait 50, 100, 200 and 200 ms",
		registers: []error{errDown, errDown, errDown, errDown, nil},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * time.Millisecond},
			{at: 50 * time.Millisecond, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 150 * time.Millisecond},
			{at: 100 * time.Millisecond, do: "wake", degraded: true, next: 150 * time.Millisecond}, // early: nothing
			{at: 150 * time.Millisecond, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 350 * time.Millisecond},
			{at: 350 * time.Millisecond, do: "wake", want: Event{Err: errDown}, calls: "r", degraded: true, next: 550 * time.Millisecond},
			{at: 550 * time.Millisecond, do: "wake", want: Event{Registered: true, Cleared: true}, calls: "r", linked: true, next: -1},
		},
	}, {
		name:      "a beat error degrades, and the beat that reaches the controller again re-registers",
		beat:      true,
		registers: []error{nil},
		probes:    []probe{{err: errDown}, {registered: true}},
		steps: []step{
			{at: time.Second, do: "wake", want: Event{Degraded: true, Err: errDown}, calls: "p", degraded: true, linked: true, next: 2 * time.Second},
			{at: 2 * time.Second, do: "wake", want: Event{Registered: true, Cleared: true}, calls: "pr", linked: true, next: 3 * time.Second},
		},
	}, {
		name:      "a not-registered answer while healthy re-registers without degrading",
		beat:      true,
		registers: []error{nil},
		probes:    []probe{{registered: true}, {registered: false}},
		steps: []step{
			{at: time.Second, do: "wake", calls: "p", linked: true, next: 2 * time.Second},
			{at: 2 * time.Second, do: "wake", want: Event{Registered: true}, calls: "pr", linked: true, next: 3 * time.Second},
		},
	}, {
		name:      "a failed re-registration stays degraded",
		beat:      true,
		registers: []error{errDown},
		probes:    []probe{{err: errDown}, {registered: true}},
		steps: []step{
			{at: time.Second, do: "wake", want: Event{Degraded: true, Err: errDown}, calls: "p", degraded: true, linked: true, next: 2 * time.Second},
			{at: 2 * time.Second, do: "wake", want: Event{Err: errDown}, calls: "pr", degraded: true, linked: true, next: 3 * time.Second},
		},
	}, {
		name:      "a stop during a retry ends the loop",
		registers: []error{errDown},
		steps: []step{
			{at: 0, do: "lost", want: Event{Degraded: true, Err: errDown}, calls: "r", degraded: true, next: 50 * time.Millisecond},
			{at: 0, do: "stop", degraded: true, next: -1},
			{at: 50 * time.Millisecond, do: "wake", degraded: true, next: -1},
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			stg := stage.New(stage.Info{StageID: "s"}, clock.NewSim(epoch))
			var calls strings.Builder
			registers, probes := tc.registers, tc.probes
			register := func() (<-chan struct{}, error) {
				calls.WriteString("r")
				if len(registers) == 0 {
					t.Fatal("an unscripted registration")
				}
				err := registers[0]
				registers = registers[1:]
				if err != nil {
					return nil, err
				}
				return make(chan struct{}), nil
			}
			link := make(chan struct{})
			l := NewLifecycle(stg, epoch, link, register)
			if tc.beat {
				l.Heartbeat(epoch, time.Second, func() (bool, error) {
					calls.WriteString("p")
					if len(probes) == 0 {
						t.Fatal("an unscripted probe")
					}
					p := probes[0]
					probes = probes[1:]
					return p.registered, p.err
				})
			}
			for i, s := range tc.steps {
				calls.Reset()
				now := epoch.Add(s.at)
				var got Event
				switch s.do {
				case "lost":
					close(link)
					got = l.Lost(now)
				case "wake":
					got = l.Wake(now)
				case "stop":
					l.Stop()
				}
				next := time.Duration(-1)
				if !l.Next().IsZero() {
					next = l.Next().Sub(epoch)
				}
				if got != s.want || calls.String() != s.calls || stg.Degraded() != s.degraded ||
					(l.Link() != nil) != s.linked || next != s.next {
					t.Errorf("step %d (%s at %v): event %+v, calls %q, degraded %v, linked %v, next %v; want %+v, %q, %v, %v, %v",
						i, s.do, s.at, got, calls.String(), stg.Degraded(), l.Link() != nil, next,
						s.want, s.calls, s.degraded, s.linked, s.next)
				}
			}
			if len(registers)+len(probes) != 0 {
				t.Errorf("%d registrations and %d probes scripted but never made", len(registers), len(probes))
			}
		})
	}
}
