package monitor

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"padll/internal/clock"
	"padll/internal/control"
	"padll/internal/posix"
	"padll/internal/rpcio"
	"padll/internal/stage"
)

var epoch = time.Date(2022, 5, 1, 0, 0, 0, 0, time.UTC)

// register registers stg with ctl in process, through the frame transport.
func register(ctl *control.Controller, stg *stage.Stage) error {
	return ctl.Register(stg.Info(), rpcio.LocalStage(rpcio.NewStageService(stg), nil))
}

// rig builds a controller with two jobs and some demand.
func rig(t *testing.T) *control.Controller {
	t.Helper()
	clk := clock.NewSim(epoch)
	ctl := control.New(clk,
		control.WithAlgorithm(control.StaticEqualShare{}),
		control.WithClusterLimit(10_000))
	for i, job := range []string{"jobA", "jobB"} {
		stg := stage.New(stage.Info{
			StageID: fmt.Sprintf("s%d", i), JobID: job, Hostname: "n", PID: i, User: "u",
		}, clk)
		if err := register(ctl, stg); err != nil {
			t.Fatal(err)
		}
		stg.Offer(&posix.Request{Op: posix.OpOpen, JobID: job}, 500, time.Second)
	}
	clk.Advance(time.Second)
	ctl.RunOnce()
	return ctl
}

func get(t *testing.T, h http.Handler, path string) (int, string) {
	t.Helper()
	req := httptest.NewRequest("GET", path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	return rec.Code, string(body)
}

func TestHealthz(t *testing.T) {
	h := NewHandler(rig(t))
	code, body := get(t, h, "/healthz")
	if code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("healthz = %d %q", code, body)
	}
}

func TestOverviewJSON(t *testing.T) {
	h := NewHandler(rig(t))
	code, body := get(t, h, "/api/overview")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var ov Overview
	if err := json.Unmarshal([]byte(body), &ov); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if ov.Jobs != 2 || ov.Stages != 2 {
		t.Errorf("overview = %+v", ov)
	}
	if ov.Allocation["jobA"] != 5000 {
		t.Errorf("allocation = %v", ov.Allocation)
	}
	if _, ok := ov.QueueWait["jobA"]; !ok {
		t.Errorf("queue_wait missing jobA: %v", ov.QueueWait)
	}
	if !strings.Contains(body, "queue_wait") || !strings.Contains(body, "p99_seconds") {
		t.Errorf("overview JSON missing queue-wait fields:\n%s", body)
	}
}

// TestOverviewReportsControlRound checks the fleet-scale accounting of
// the last feedback round rides along in /api/overview.
func TestOverviewReportsControlRound(t *testing.T) {
	h := NewHandler(rig(t)) // rig runs one RunOnce
	code, body := get(t, h, "/api/overview")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var ov Overview
	if err := json.Unmarshal([]byte(body), &ov); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	cr := ov.ControlRound
	if cr == nil {
		t.Fatalf("control_round missing after a completed round:\n%s", body)
	}
	if cr.Stages != 2 || cr.CollectCalls != 2 {
		t.Errorf("control_round = %+v, want 2 stages / 2 collects", cr)
	}
	if cr.RPCs != cr.CollectCalls+cr.PushCalls {
		t.Errorf("rpcs = %d, want collect(%d)+push(%d)", cr.RPCs, cr.CollectCalls, cr.PushCalls)
	}
}

// TestOverviewReportsWaitPercentiles drives a shaped request through a
// throttled control queue and checks the wait shows up in /api/overview.
func TestOverviewReportsWaitPercentiles(t *testing.T) {
	clk := clock.NewSim(epoch)
	ctl := control.New(clk,
		control.WithAlgorithm(control.StaticEqualShare{}),
		control.WithClusterLimit(10_000))
	stg := stage.New(stage.Info{StageID: "s0", JobID: "jobA", Hostname: "n", PID: 1, User: "u"}, clk)
	if err := register(ctl, stg); err != nil {
		t.Fatal(err)
	}
	ctl.RunOnce() // installs the control rule at the per-job share
	req := &posix.Request{Op: posix.OpOpen, JobID: "jobA"}
	rules := stg.Rules()
	if len(rules) == 0 {
		t.Fatal("control rule not installed")
	}
	// Drain the burst so the next request parks. The bucket starts full,
	// so exactly EffectiveBurst() unit takes succeed without blocking.
	for i := 0; i < int(rules[0].EffectiveBurst()); i++ {
		if err := stg.Enforce(req); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { done <- stg.Enforce(req) }()
	clk.BlockUntil(1)
	clk.Advance(time.Second)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	h := NewHandler(ctl)
	code, body := get(t, h, "/api/overview")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var ov Overview
	if err := json.Unmarshal([]byte(body), &ov); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	wl := ov.QueueWait["jobA"]
	if wl.P99 <= 0 {
		t.Errorf("queue_wait p99 = %v, want > 0 after a shaped wait\n%s", wl.P99, body)
	}
	if wl.P50 > wl.P95 || wl.P95 > wl.P99 {
		t.Errorf("percentiles not monotone: %+v", wl)
	}
}

func TestJobsJSON(t *testing.T) {
	h := NewHandler(rig(t))
	code, body := get(t, h, "/api/jobs")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var rows []JobStatus
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 2 || rows[0].JobID != "jobA" || rows[1].JobID != "jobB" {
		t.Fatalf("rows = %+v", rows)
	}
	if rows[0].Demand != 500 {
		t.Errorf("jobA demand = %v, want 500", rows[0].Demand)
	}
	if rows[0].Allocated != 5000 {
		t.Errorf("jobA allocated = %v, want 5000", rows[0].Allocated)
	}
}

func TestStagesJSON(t *testing.T) {
	h := NewHandler(rig(t))
	code, body := get(t, h, "/api/stages")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var rows []StageStatus
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 2 || rows[0].StageID != "s0" {
		t.Errorf("rows = %+v", rows)
	}
}

func TestRootTextDashboard(t *testing.T) {
	h := NewHandler(rig(t))
	code, body := get(t, h, "/")
	if code != 200 || !strings.Contains(body, "jobA") || !strings.Contains(body, "2 jobs") {
		t.Errorf("dashboard = %d\n%s", code, body)
	}
	if code, _ := get(t, h, "/nope"); code != 404 {
		t.Errorf("unknown path = %d, want 404", code)
	}
}

func TestServeOverTCP(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", rig(t))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/api/overview")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("status = %d", resp.StatusCode)
	}
	var ov Overview
	if err := json.NewDecoder(resp.Body).Decode(&ov); err != nil {
		t.Fatal(err)
	}
	if ov.Stages != 2 {
		t.Errorf("overview = %+v", ov)
	}
}

func TestDegradedStateSurfaces(t *testing.T) {
	clk := clock.NewSim(epoch)
	ctl := control.New(clk,
		control.WithAlgorithm(control.StaticEqualShare{}),
		control.WithClusterLimit(10_000))
	stg := stage.New(stage.Info{StageID: "s0", JobID: "jobA"}, clk)
	if err := register(ctl, stg); err != nil {
		t.Fatal(err)
	}
	stg.SetDegraded(true)
	clk.Advance(12 * time.Second)
	ctl.RunOnce()
	h := NewHandler(ctl)

	code, body := get(t, h, "/api/jobs")
	if code != 200 {
		t.Fatalf("code = %d", code)
	}
	var rows []JobStatus
	if err := json.Unmarshal([]byte(body), &rows); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if len(rows) != 1 || !rows[0].Degraded || rows[0].DegradedStages != 1 {
		t.Errorf("rows = %+v", rows)
	}
	if rows[0].DegradedSeconds < 12 {
		t.Errorf("DegradedSeconds = %v, want >= 12", rows[0].DegradedSeconds)
	}

	code, body = get(t, h, "/api/overview")
	if code != 200 {
		t.Fatalf("overview code = %d", code)
	}
	var ov Overview
	if err := json.Unmarshal([]byte(body), &ov); err != nil {
		t.Fatalf("bad JSON: %v", err)
	}
	if ov.DegradedStages != 1 {
		t.Errorf("overview degraded stages = %d, want 1", ov.DegradedStages)
	}

	if _, dash := get(t, h, "/"); !strings.Contains(dash, "degraded:1") {
		t.Errorf("dashboard does not flag the degraded job:\n%s", dash)
	}
}
