package padll_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"padll"
	"padll/internal/clock"
	"padll/internal/localfs"
	"padll/internal/pfs"
)

// newBackends returns a simulated Lustre PFS and a local FS.
func newBackends() (*pfs.PFS, *localfs.FS) {
	clk := clock.NewReal()
	backend := pfs.New(clk, pfs.Config{
		MDSCapacity: 1e9, MDSBurst: 1e9,
		OSTBandwidth: 1e12, OSTBurst: 1e12,
	})
	return backend, localfs.New(clk)
}

func TestDataPlaneTransparency(t *testing.T) {
	backend, local := newBackends()
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
	backend, local := newBackends()
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "j1"},
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
	start := time.Now()
	for i := 0; i < 100; i++ {
		fd, err := c.Creat(fmt.Sprintf("/pfs/f%d", i), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		c.Close(fd)
	}
	// 100 creats at 500/s with burst 5 need >= ~180ms.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Errorf("100 throttled creats took %v; rule not enforced", elapsed)
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
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.ProportionalShare()),
		padll.WithClusterLimit(10_000),
	)
	defer cp.Stop()

	var planes []*padll.DataPlane
	for i := 1; i <= 2; i++ {
		backend, local := newBackends()
		dp, err := padll.NewDataPlane(padll.JobInfo{JobID: fmt.Sprintf("job%d", i), Hostname: "n", PID: i},
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
	time.Sleep(1100 * time.Millisecond) // let a stats window complete
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

	backend, local := newBackends()
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "net-job", Hostname: "n", PID: 9},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	if err := dp.Serve("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(cp.Jobs()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("registration never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	alloc := cp.RunOnce()
	if alloc["net-job"] != 4000 {
		t.Errorf("allocation = %v", alloc)
	}
	if err := dp.Close(); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for len(cp.Jobs()) != 0 {
		if time.Now().After(deadline) {
			t.Fatal("deregistration never completed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAdminRuleGranularities(t *testing.T) {
	cp := padll.NewControlPlane()
	defer cp.Stop()
	var planes []*padll.DataPlane
	for i := 1; i <= 3; i++ {
		backend, local := newBackends()
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
	backend, local := newBackends()
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

	backend, local := newBackends()
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
	backend, local := newBackends()
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

func TestHeartbeatDegradesAndReconciles(t *testing.T) {
	cp := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(4000)),
		padll.WithClusterLimit(8000),
	)
	addr, err := cp.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	backend, local := newBackends()
	dp, err := padll.NewDataPlane(padll.JobInfo{JobID: "hb-job", Hostname: "n", PID: 1},
		padll.MountPFS("/pfs", backend), padll.MountLocal("/", local))
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Serve("127.0.0.1:0", addr); err != nil {
		t.Fatal(err)
	}
	if err := dp.StartHeartbeat(20*time.Millisecond, 100*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	cp.RunOnce()
	if dp.Degraded() {
		t.Fatal("degraded while the controller is healthy")
	}

	// Controller crash: probes start failing, the stage must freeze its
	// limits and report degraded.
	cp.Stop()
	waitFor(t, 5*time.Second, func() bool { return dp.Degraded() })

	// Controller restart on the same address: the stage must re-register
	// (fresh registry) and leave degraded mode on its own.
	cp2 := padll.NewControlPlane(
		padll.WithAlgorithm(padll.StaticShare(4000)),
		padll.WithClusterLimit(8000),
	)
	if _, err := cp2.Serve(addr); err != nil {
		t.Fatal(err)
	}
	defer cp2.Stop()
	waitFor(t, 5*time.Second, func() bool { return !dp.Degraded() })
	waitFor(t, 5*time.Second, func() bool { return len(cp2.Jobs()) == 1 })
	if dp.DegradedFor() <= 0 {
		t.Error("DegradedFor() = 0 after an outage")
	}
}

func waitFor(t *testing.T, budget time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(budget)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
