package clock

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// forkJoinLog drives a fork-join program full of same-instant ties —
// children that start at one instant, sleep equal lengths, and spawn
// and join grandchildren — and returns the order its events ran in.
func forkJoinLog() []string {
	clk := NewSim(epoch)
	var log []string
	note := func(who string) {
		log = append(log, fmt.Sprintf("%s@%v", who, clk.Now().Sub(epoch)))
	}
	clk.Drive(func() {
		g := NewGroup(clk)
		for i := 0; i < 4; i++ {
			g.Go(func() {
				for step := 0; step < 3; step++ {
					clk.Sleep(10 * time.Millisecond)
					note(fmt.Sprintf("c%d.%d", i, step))
				}
				inner := NewGroup(clk)
				for j := 0; j < 2; j++ {
					inner.Go(func() {
						clk.Sleep(time.Duration(j+1) * 5 * time.Millisecond)
						note(fmt.Sprintf("c%d.g%d", i, j))
					})
				}
				inner.Wait()
				note(fmt.Sprintf("c%d.joined", i))
			})
		}
		g.Wait()
		note("main")
	})
	return log
}

func TestDriveForkJoinRunsOneEventOrder(t *testing.T) {
	want := forkJoinLog()
	if len(want) != 4*3+4*2+4+1 {
		t.Fatalf("log has %d events: %v", len(want), want)
	}
	if last := want[len(want)-1]; last != "main@40ms" {
		t.Fatalf("main joined at %q, want main@40ms", last)
	}
	for run := 1; run < 50; run++ {
		got := forkJoinLog()
		for i := range want {
			if i >= len(got) || got[i] != want[i] {
				t.Fatalf("run %d diverges at event %d: got %v, want %v", run, i, got, want)
			}
		}
	}
}

func TestDriveReturnsWhenMainReturns(t *testing.T) {
	clk := NewSim(epoch)
	done := make(chan struct{})
	clk.Drive(func() {
		// A child main never joins stays parked an hour out.
		NewGroup(clk).Go(func() {
			clk.Sleep(time.Hour)
			close(done)
		})
		clk.Sleep(time.Second)
	})
	if got := clk.Now(); !got.Equal(epoch.Add(time.Second)) {
		t.Fatalf("Drive returned at %v, want %v", got, epoch.Add(time.Second))
	}
	if n := clk.PendingWaiters(); n != 1 {
		t.Fatalf("pending waiters after Drive = %d, want the unjoined child", n)
	}
	clk.Advance(time.Hour) // after Drive the clock is manual again
	<-done
}

func TestGroupOnRealClockWaitsLikeWaitGroup(t *testing.T) {
	clk := NewReal()
	g := NewGroup(clk)
	var finished atomic.Int32
	for i := 0; i < 8; i++ {
		g.Go(func() {
			clk.Sleep(time.Duration(i) * time.Millisecond)
			finished.Add(1)
		})
	}
	g.Wait()
	if n := finished.Load(); n != 8 {
		t.Fatalf("Wait returned with %d of 8 goroutines finished", n)
	}
	g.Wait() // an empty group returns at once
}
