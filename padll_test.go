package padll_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"padll"
	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/localfs"
	"padll/internal/pfs"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
	"padll/internal/trace"
)

// epoch is where the simulated clocks start.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// newBackends returns a simulated Lustre PFS and a local FS on clk.
func newBackends(clk clock.Clock) (*pfs.PFS, *localfs.FS) {
	backend := pfs.New(clk, pfs.Config{
		MDSCapacity: 1e9, MDSBurst: 1e9,
		OSTBandwidth: 1e12, OSTBurst: 1e12,
	})
	return backend, localfs.New(clk)
}

func TestDataPlaneTransparency(t *testing.T) {
	backend, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "j1", User: "u", PID: 1, Hostname: "n1"},
		padll.MountPFS("/lustre", backend),
		padll.MountLocal("/", local),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	c := dp.Client()
	fd, err := c.Open("/lustre/f", padll.OCreate|padll.ORdWr, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(fd, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(fd); err != nil {
		t.Fatal(err)
	}
	info, err := c.Stat("/lustre/f")
	if err != nil || info.Size != 7 {
		t.Fatalf("stat = %+v, %v", info, err)
	}
	// Local mount also works and is not controlled.
	fd, err = c.Creat("/tmp-x", 0o644)
	if err != nil {
		t.Fatal(err)
	}
	c.Close(fd)
	st := dp.InterceptionStats()
	if st.Controlled == 0 || st.Bypassed == 0 {
		t.Errorf("interception stats = %+v", st)
	}
}

func TestNewDataPlaneValidation(t *testing.T) {
	if _, err := padll.NewDataPlane(padll.JobInfo{JobID: "j"}); err == nil {
		t.Error("no mounts accepted")
	}
}

func TestRuleDSLAndLocalEnforcement(t *testing.T) {
	clk := clock.NewSim(epoch)
	backend, local := newBackends(clk)
	dp, err := padll.NewDataPlaneOn(clk, padll.JobInfo{JobID: "j1"},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	rule, err := padll.ParseRule("limit id:open-cap op:open op:creat rate:500 burst:5")
	if err != nil {
		t.Fatal(err)
	}
	dp.ApplyRule(rule)
	c := dp.Client()
	start := clk.Now()
	clk.Drive(func() {
		for i := 0; i < 100 && err == nil; i++ {
			var fd int
			if fd, err = c.Creat(fmt.Sprintf("/pfs/f%d", i), 0o644); err == nil {
				err = c.Close(fd)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// 100 creats at 500/s with burst 5: the 95 past the burst take 190ms.
	if elapsed := clk.Now().Sub(start); elapsed != 190*time.Millisecond {
		t.Errorf("100 throttled creats took %v, want 190ms", elapsed)
	}
	stats := dp.Stats()
	var found bool
	for _, q := range stats.Queues {
		if q.RuleID == "open-cap" && q.Total == 100 {
			found = true
		}
	}
	if !found {
		t.Errorf("queue stats = %+v", stats.Queues)
	}
}

func TestControlPlaneLocalAttachProportionalShare(t *testing.T) {
	clk := clock.NewSim(epoch)
	cp := padll.NewControlPlaneOn(clk,
		padll.WithAlgorithm(padll.ProportionalShare()),
		padll.WithClusterLimit(10_000),
	)
	defer cp.Stop()

	var planes []*padll.DataPlane
	for i := 1; i <= 2; i++ {
		backend, local := newBackends(clk)
		dp, err := padll.NewDataPlaneOn(clk, padll.JobInfo{JobID: fmt.Sprintf("job%d", i), Hostname: "n", PID: i},
			padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		cp.SetReservation(fmt.Sprintf("job%d", i), float64(3000*i))
		if err := cp.AttachLocal(dp); err != nil {
			t.Fatal(err)
		}
		planes = append(planes, dp)
	}
	if jobs := cp.Jobs(); len(jobs) != 2 {
		t.Fatalf("jobs = %v", jobs)
	}

	// Drive demand from both jobs, then run a control round.
	var wg sync.WaitGroup
	for _, dp := range planes {
		wg.Add(1)
		go func(dp *padll.DataPlane) {
			defer wg.Done()
			c := dp.Client()
			for i := 0; i < 300; i++ {
				c.Stat("/pfs") // getattr on the PFS root
			}
		}(dp)
	}
	wg.Wait()
	clk.Advance(1100 * time.Millisecond) // let a stats window complete
	alloc := cp.RunOnce()
	if len(alloc) != 2 {
		t.Fatalf("allocation = %v", alloc)
	}
	// An attached data plane is reached through the frame codec: the
	// round moved wire bytes, socket or not.
	if rs, ok := cp.LastRound(); !ok || rs.BytesRead+rs.BytesWritten == 0 {
		t.Errorf("in-process round moved no wire bytes: %+v", rs)
	}
	// Reservation floors hold.
	if alloc["job1"] < 3000-1 || alloc["job2"] < 6000-1 {
		t.Errorf("allocation below reservations: %v", alloc)
	}
	snaps := cp.Collect()
	if len(snaps) != 2 {
		t.Errorf("snapshots = %+v", snaps)
	}
}

func TestControlPlaneOverNetwork(t *testing.T) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(4000)),
		padll.WithClusterLimit(8000),
	)
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer cp.Stop()

	backend, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "net-job", Hostname: "n", PID: 9},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	// Registration is synchronous: the registrar replies once the
	// controller has registered the stage. Close hangs up, which the
	// next round takes as the stage's departure.
	if err := dp.Serve("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	if jobs := cp.Jobs(); len(jobs) != 1 || jobs[0] != "net-job" {
		t.Fatalf("jobs after Serve = %v, want [net-job]", jobs)
	}
	alloc := cp.RunOnce()
	if alloc["net-job"] != 4000 {
		t.Errorf("allocation = %v", alloc)
	}
	if err := dp.Close(); err != nil {
		t.Fatal(err)
	}
	cp.RunOnce()
	if jobs := cp.Jobs(); len(jobs) != 0 {
		t.Fatalf("jobs after Close and a round = %v, want none", jobs)
	}
}

func TestAdminRuleGranularities(t *testing.T) {
	cp := padll.NewControlPlane()
	defer cp.Stop()
	var planes []*padll.DataPlane
	for i := 1; i <= 3; i++ {
		backend, local := newBackends(clock.NewReal())
		job := "gA"
		if i == 3 {
			job = "gB"
		}
		dp, err := padll.NewDataPlane(padll.JobInfo{JobID: job, Hostname: "n", PID: i},
			padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		if err := cp.AttachLocal(dp); err != nil {
			t.Fatal(err)
		}
		planes = append(planes, dp)
	}
	rule, _ := padll.ParseRule("limit id:meta class:metadata rate:10k")
	if err := cp.ApplyRuleToJob("gA", rule); err != nil {
		t.Fatal(err)
	}
	// gA has 2 stages: each gets half the rate.
	for _, dp := range planes[:2] {
		st := dp.Stats()
		if len(st.Queues) != 1 || st.Queues[0].Limit != 5000 {
			t.Errorf("gA stage queues = %+v", st.Queues)
		}
	}
	if err := cp.ApplyRuleCluster(rule); err != nil {
		t.Fatal(err)
	}
	st := planes[2].Stats()
	if len(st.Queues) != 1 {
		t.Errorf("gB stage queues = %+v", st.Queues)
	}
}

func TestServeMonitorEndpoint(t *testing.T) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(0)),
		padll.WithClusterLimit(1000))
	defer cp.Stop()
	backend, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "mon-job"},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := cp.AttachLocal(dp); err != nil {
		t.Fatal(err)
	}
	addr, err := cp.ServeMonitor("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/api/overview")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != 200 || !strings.Contains(string(body), "mon-job") && !strings.Contains(string(body), "\"jobs\": 1") {
		t.Errorf("overview = %d %s", resp.StatusCode, body)
	}
}

// TestSecondServeIsRefused: serving again while serving is an error for
// a data plane's control service, a control plane's registrar and its
// monitor alike — a second listener would outlive Close and Stop.
func TestSecondServeIsRefused(t *testing.T) {
	cp := padll.NewControlPlane()
	defer cp.Stop()
	for name, serve := range map[string]func() (string, error){
		"registrar": func() (string, error) { return cp.Serve("127.0.0.1:0") },
		"monitor":   func() (string, error) { return cp.ServeMonitor("127.0.0.1:0") },
	} {
		if _, err := serve(); err != nil {
			t.Fatal(err)
		}
		if _, err := serve(); err == nil || !strings.Contains(err.Error(), "already running") {
			t.Errorf("second %s Serve = %v, want already running", name, err)
		}
	}

	backend, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "twice"},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Serve("127.0.0.1:0", ""); err != nil {
		t.Fatal(err)
	}
	if err := dp.Serve("127.0.0.1:0", ""); err == nil || !strings.Contains(err.Error(), "already running") {
		t.Errorf("second data-plane Serve = %v, want already running", err)
	}
}

// TestFailedServeLeavesNothingServed: a Serve whose registration fails
// has stopped its listener, so the data plane must not report an address
// or a control service, and a later Serve must succeed.
func TestFailedServeLeavesNothingServed(t *testing.T) {
	backend, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "unregistered"},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Serve("127.0.0.1:0", "127.0.0.1:1"); err == nil {
		t.Fatal("Serve registered with a controller that is not there")
	}
	if addr := dp.Addr(); addr != "" {
		t.Errorf("Addr() = %q after a failed Serve, want \"\"", addr)
	}
	if _, ok := dp.ControlServiceStats(); ok {
		t.Error("ControlServiceStats reports a service after a failed Serve")
	}
	if err := dp.Serve("127.0.0.1:0", ""); err != nil {
		t.Fatalf("Serve after a failed Serve: %v", err)
	}
	if dp.Addr() == "" {
		t.Error("Addr() empty while serving")
	}
	if _, ok := dp.ControlServiceStats(); !ok {
		t.Error("ControlServiceStats reports no service while serving")
	}
}

// settle waits, on the wall clock, for done to hold, moving clk on by
// a second whenever the data plane's loop has parked its timer on it: a
// retry or a silence watch comes due, and the loop acts on it.
func settle(t *testing.T, clk *clock.Sim, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !done(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("never settled: %s", what)
		}
		if clk.PendingWaiters() > 0 {
			clk.Advance(time.Second)
		}
	}
}

// TestHeartbeatDegradesAndReconciles: the controller's rounds are the
// stage's heartbeat, and the connection they run over its link. A
// controller that stops closes it: the stage freezes its limits and
// reports degraded at once, its registrations are refused, and it keeps
// trying on the retry schedule until a controller on the same address
// takes it again, which clears Degraded.
func TestHeartbeatDegradesAndReconciles(t *testing.T) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(4000)),
		padll.WithClusterLimit(8000),
	)
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	// The data plane runs on a simulated clock, which paces its
	// registration retries.
	clk := clock.NewSim(epoch)
	backend, local := newBackends(clk)
	dp, err := padll.NewDataPlaneOn(clk, padll.JobInfo{JobID: "hb-job", Hostname: "n", PID: 1},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Serve("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	cp.RunOnce()
	if dp.Degraded() {
		t.Fatal("degraded while the controller is healthy")
	}

	// Controller stop: the stage's connection closes, its first attempt
	// is refused, and it parks its retry degraded.
	cp.Stop()
	clk.BlockUntil(1)
	if !dp.Degraded() {
		t.Fatal("not degraded after the controller closed the stage's connection")
	}

	// Controller restart on the same address: the stage's next attempt
	// registers it (fresh registry) and clears Degraded.
	cp2 := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(4000)),
		padll.WithClusterLimit(8000),
	)
	if _, err := cp2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer cp2.Stop()
	settle(t, clk, "the stage registers with the restarted controller", func() bool { return !dp.Degraded() })
	if got := cp2.Jobs(); len(got) != 1 {
		t.Errorf("restarted controller has jobs %v, want the re-registered one", got)
	}
	if dp.DegradedFor() <= 0 {
		t.Error("DegradedFor() = 0 after an outage")
	}
}

// TestHeartbeatReregistersWithControllerRestartedBetweenBeats: a
// controller that stops and restarts between two of its rounds closes
// the stage's connection, which is the stage's sign it lost its
// controller: the stage registers again at once — with the restarted
// controller when it already serves, on the retry schedule otherwise —
// and the restarted controller's next round reaches it, rather than
// leaving it unmanaged under its stale limit.
func TestHeartbeatReregistersWithControllerRestartedBetweenBeats(t *testing.T) {
	newCP := func() *padll.ControlPlane {
		return padll.NewControlPlane(
			padll.WithAlgorithm(padll.StaticShare(4000)),
			padll.WithClusterLimit(8000),
		)
	}
	cp := newCP()
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	clk := clock.NewSim(epoch)
	backend, local := newBackends(clk)
	dp, err := padll.NewDataPlaneOn(clk, padll.JobInfo{JobID: "hb-job", Hostname: "n", PID: 1},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Serve("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	cp.RunOnce()

	cp.Stop()
	cp2 := newCP()
	if _, err := cp2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer cp2.Stop()
	settle(t, clk, "the restarted controller holds the stage", func() bool {
		jobs := cp2.Jobs()
		return len(jobs) == 1 && jobs[0] == "hb-job" && !dp.Degraded()
	})
	cp2.RunOnce()
	if rs, _ := cp2.LastRound(); rs.CollectCalls != 1 || rs.CollectFailures != 0 {
		t.Errorf("the restarted controller's round: %d collects, %d failed; want 1, none failed", rs.CollectCalls, rs.CollectFailures)
	}
}

// TestCrashedStageDepartsAtTheNextRound: a stage process that dies
// closes the connection it registered on, with no word to its
// controller. The controller's next round takes the closed connection
// as the stage's departure — no error, no failed
// collect — drops it before allocating, and hands its job's share to
// the other job in that same round.
func TestCrashedStageDepartsAtTheNextRound(t *testing.T) {
	var errs atomic.Int32
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(0)),
		padll.WithClusterLimit(8000),
		control.WithErrorHandler(func(string, error) { errs.Add(1) }),
	)
	defer cp.Stop()
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	_, local := newBackends(clock.NewReal())
	dps := map[string]*padll.DataPlane{}
	for _, job := range []string{"crashes", "stays"} {
		dp, err := padll.NewDataPlane(padll.JobInfo{JobID: job, Hostname: "n", PID: 1}, padll.MountLocal("/", local))
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		if err := dp.Serve("127.0.0.1:0", addr); err != nil {
			t.Fatal(err)
		}
		dps[job] = dp
	}
	if alloc := cp.RunOnce(); alloc["crashes"] != 4000 || alloc["stays"] != 4000 {
		t.Fatalf("allocation with both jobs = %v, want 4000 each", alloc)
	}

	dps["crashes"].Crash()
	alloc := cp.RunOnce()
	if stages := cp.Stages(); len(stages) != 1 || stages[0].JobID != "stays" {
		t.Errorf("stages after the crash and a round = %v, want the surviving one", stages)
	}
	if _, held := alloc["crashes"]; held || alloc["stays"] != 8000 {
		t.Errorf("allocation of the round after the crash = %v, want stays:8000 alone", alloc)
	}
	if rs, _ := cp.LastRound(); rs.CollectFailures != 0 || errs.Load() != 0 {
		t.Errorf("the departure counted %d collect failures and reached the error handler %d times, want neither",
			rs.CollectFailures, errs.Load())
	}
}

// TestDepartureKeepsTheReservation: a reservation is the operator's
// intent, set once (padll-controller -reserve): a job whose only stage
// process leaves and comes back is held to it again.
func TestDepartureKeepsTheReservation(t *testing.T) {
	cp := padll.NewControlPlane(padll.WithAlgorithm(padll.Priority()), padll.WithClusterLimit(8000))
	defer cp.Stop()
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cp.SetReservation("reserved", 3000)
	_, local := newBackends(clock.NewReal())
	serve := func() *padll.DataPlane {
		t.Helper()
		dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "reserved", Hostname: "n", PID: 1}, padll.MountLocal("/", local))
		if err != nil {
			t.Fatal(err)
		}
		if err := dp.Serve("127.0.0.1:0", addr); err != nil {
			t.Fatal(err)
		}
		return dp
	}
	if err := serve().Close(); err != nil {
		t.Fatal(err)
	}
	cp.RunOnce() // the round that takes the departure
	dp := serve()
	defer dp.Close()
	snaps := cp.Collect()
	if len(snaps) != 1 || snaps[0].Reservation != 3000 {
		t.Errorf("snapshots after the job's stage came back = %+v, want its reservation of 3000", snaps)
	}
}

// TestStoppedLoopsLeaveNoWaiter: each loop paced by a clock — the
// controller's feedback loop, the data plane's lifecycle loop (watching
// its link's silence, or waiting to retry its registration), a
// replayer's op thread —
// stops its timer on the way out, so stopping the loop leaves nothing
// parked on its simulated clock.
func TestStoppedLoopsLeaveNoWaiter(t *testing.T) {
	// parkedThenStopped starts a loop on clk, waits for it to park its
	// timer, stops it and checks that the timer left with it.
	parkedThenStopped := func(t *testing.T, clk *clock.Sim, start, stop func()) {
		t.Helper()
		start()
		clk.BlockUntil(1)
		stop()
		if n := clk.PendingWaiters(); n != 0 {
			t.Fatalf("%d waiters parked on the clock after the loop stopped", n)
		}
	}
	t.Run("controller", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		cp := padll.NewControlPlaneOn(clk)
		parkedThenStopped(t, clk, func() { cp.Run(time.Second) }, cp.Stop)
	})
	// The data plane's loop is stopped while it waits to look at its
	// link (the controller runs its loop, so the stage watches the
	// rounds' silence), and while it waits to retry its registration
	// against a dead controller after losing its connection.
	t.Run("heartbeat", func(t *testing.T) {
		for _, retrying := range []bool{false, true} {
			t.Run(fmt.Sprintf("retrying=%v", retrying), func(t *testing.T) {
				cp := padll.NewControlPlane()
				cp.Run(time.Hour)
				addr, err := cp.Serve("127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				defer cp.Stop()
				clk := clock.NewSim(epoch)
				_, local := newBackends(clk)
				dp, err := padll.NewDataPlaneOn(clk, padll.JobInfo{JobID: "hb-job", Hostname: "n", PID: 1},
					padll.MountLocal("/", local))
				if err != nil {
					t.Fatal(err)
				}
				if err := dp.Serve("127.0.0.1:0", addr); err != nil {
					t.Fatal(err)
				}
				parkedThenStopped(t, clk, func() {
					if !retrying {
						return
					}
					// The controller stops, closing the connection: the stage
					// degrades, its first attempt is refused, and it parks its
					// retry.
					clk.BlockUntil(1)
					cp.Stop()
					retry := clk.Now().Add(rpcio.RetryDelay(0))
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
						if at, ok := clk.NextDeadline(); ok && at.Equal(retry) {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("the data plane never parked a retry after losing its connection")
						}
					}
					if !dp.Degraded() {
						t.Error("retrying, yet not degraded")
					}
				}, func() {
					if err := dp.Close(); err != nil {
						t.Error(err)
					}
				})
			})
		}
	})
	t.Run("replayer", func(t *testing.T) {
		clk := clock.NewSim(epoch)
		tr := trace.NewTrace(time.Minute, posix.OpOpen)
		tr.Append(100)
		r := &trace.Replayer{
			Trace:  tr,
			Submit: func(posix.Op) error { return nil },
			Clock:  clk,
			Tick:   10 * time.Millisecond,
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		parkedThenStopped(t, clk, func() {
			go func() {
				defer close(done)
				if err := r.Run(ctx); err != nil {
					t.Error(err)
				}
			}()
		}, func() {
			cancel()
			<-done
		})
	})
}

// countingListener counts the connections it accepts.
type countingListener struct {
	net.Listener
	accepted atomic.Int32
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err == nil {
		l.accepted.Add(1)
	}
	return conn, err
}

// TestStageRegistersAgainAfterLosingItsConnection: the controller's rounds run
// over the connection a stage registered on, so when the controller
// closes its handle on the stage, the stage registers again over one
// fresh connection, and the next round reaches it. The controller holds
// one record, the stage one live connection; Close leaves neither once
// a round has taken its departure.
func TestStageRegistersAgainAfterLosingItsConnection(t *testing.T) {
	ctl := control.New(clock.NewReal(), control.WithAlgorithm(control.StaticEqualShare{}), control.WithClusterLimit(8000))
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	registrar := &countingListener{Listener: l}
	handles := make(chan *rpcio.StageHandle, 4)
	stop := rpcio.ServeRegistrar(registrar, func(info stage.Info, h *rpcio.StageHandle) (time.Duration, error) {
		err := ctl.Register(info, h)
		handles <- h
		return 0, err
	})
	defer stop()

	_, local := newBackends(clock.NewReal())
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "lost", Hostname: "n", PID: 1}, padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Serve("127.0.0.1:0", l.Addr().String()); err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			dp.Close()
		}
	}()
	first := dp.ControllerConn()
	if err := (<-handles).Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-handles:
	case <-time.After(5 * time.Second):
		t.Fatal("the stage did not register again after losing its connection")
	}
	for deadline := time.Now().Add(5 * time.Second); dp.ControllerConn() == first || dp.Degraded(); {
		if time.Now().After(deadline) {
			t.Fatalf("stage still on its lost connection (%v) or degraded (%v)", dp.ControllerConn() == first, dp.Degraded())
		}
		time.Sleep(time.Millisecond)
	}
	second := dp.ControllerConn()
	select {
	case <-first.Link().Done:
	default:
		t.Error("the lost connection's serve loop still runs")
	}
	select {
	case <-second.Link().Done:
		t.Fatal("the fresh connection is dead")
	default:
	}

	ctl.RunOnce()
	if rs, _ := ctl.LastRound(); rs.CollectFailures != 0 || rs.CollectCalls != 1 {
		t.Errorf("round after re-registration: %d collects, %d failed; want 1, none failed", rs.CollectCalls, rs.CollectFailures)
	}
	if n := len(ctl.Stages()); n != 1 {
		t.Errorf("controller holds %d records, want 1", n)
	}
	if n := registrar.accepted.Load(); n != 2 {
		t.Errorf("registrar accepted %d connections, want the first registration's and one fresh one", n)
	}

	closed = true
	if err := dp.Close(); err != nil {
		t.Fatal(err)
	}
	ctl.RunOnce()
	if n := len(ctl.Stages()); n != 0 {
		t.Errorf("controller holds %d records after Close and a round, want none", n)
	}
	select {
	case <-second.Link().Done:
	default:
		t.Error("Close left the stage's connection served")
	}
	if dp.ControllerConn() != nil {
		t.Error("Close left the data plane holding a controller connection")
	}
}

// BenchmarkServeRegister prices a data plane's start and end against a
// live control plane: Serve with a controller address (listen, register,
// the managed rule's install) and Close (hang up, stop serving).
func BenchmarkServeRegister(b *testing.B) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.ProportionalShare()),
		padll.WithClusterLimit(1e6))
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer cp.Stop()
	_, local := newBackends(clock.NewReal())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "bench", Hostname: "n", PID: i}, padll.MountLocal("/", local))
		if err != nil {
			b.Fatal(err)
		}
		if err := dp.Serve("127.0.0.1:0", addr); err != nil {
			b.Fatal(err)
		}
		if err := dp.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
