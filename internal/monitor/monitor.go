// Package monitor exposes the control plane's live state over HTTP for
// dashboards and operators: which jobs are registered, what each is
// demanding and receiving, and the most recent allocation — the
// system-wide visibility PADLL's design centres on (§III-B), made
// observable.
package monitor

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"padll/internal/control"
)

// JobStatus is one job's row in the /api/jobs response.
type JobStatus struct {
	JobID       string  `json:"job_id"`
	Stages      int     `json:"stages"`
	Demand      float64 `json:"demand_ops_per_sec"`
	Throughput  float64 `json:"throughput_ops_per_sec"`
	Reservation float64 `json:"reservation_ops_per_sec"`
	Allocated   float64 `json:"allocated_ops_per_sec"`
	WaitP50     float64 `json:"wait_p50_seconds"`
	WaitP95     float64 `json:"wait_p95_seconds"`
	WaitP99     float64 `json:"wait_p99_seconds"`
	// Degraded is true when any of the job's stages has lost contact
	// with the controller and is enforcing frozen limits.
	Degraded        bool    `json:"degraded"`
	DegradedStages  int     `json:"degraded_stages"`
	DegradedSeconds float64 `json:"degraded_seconds"`
	// FailedStages counts registered stages whose collect failed this
	// round (the snapshot aggregates the reachable ones only).
	FailedStages int `json:"failed_stages"`
}

// StageStatus is one stage's row in the /api/stages response.
type StageStatus struct {
	StageID  string `json:"stage_id"`
	JobID    string `json:"job_id"`
	Hostname string `json:"hostname"`
	PID      int    `json:"pid"`
	User     string `json:"user"`
}

// WaitLatency is one job's queue-wait percentile summary (seconds).
type WaitLatency struct {
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`
}

// ControlRound summarizes the most recent feedback round's wire cost —
// the fleet-scale health signal: round trips, skipped pushes, bytes, and
// how long the round took against the control interval.
type ControlRound struct {
	Stages          int     `json:"stages"`
	RPCs            int     `json:"rpcs"`
	CollectCalls    int     `json:"collect_calls"`
	CollectFailures int     `json:"collect_failures"`
	PushCalls       int     `json:"push_calls"`
	PushOps         int     `json:"push_ops"`
	PushesSkipped   int     `json:"pushes_skipped"`
	DurationSeconds float64 `json:"duration_seconds"`
	BytesRead       uint64  `json:"bytes_read"`
	BytesWritten    uint64  `json:"bytes_written"`
}

// Overview is the /api/overview response.
type Overview struct {
	Jobs       int                `json:"jobs"`
	Stages     int                `json:"stages"`
	Timestamp  time.Time          `json:"timestamp"`
	Allocation map[string]float64 `json:"allocation"`
	// QueueWait maps job ID to the worst per-stage control-queue wait
	// percentiles observed in this collect round; jobs that never
	// blocked report zeros.
	QueueWait map[string]WaitLatency `json:"queue_wait"`
	// DegradedStages and FailedStages total the cluster's unhealthy
	// stages in this collect round.
	DegradedStages int `json:"degraded_stages"`
	FailedStages   int `json:"failed_stages"`
	// ControlRound is the last completed feedback round's accounting;
	// absent until the loop has run once.
	ControlRound *ControlRound `json:"control_round,omitempty"`
}

// NewHandler builds the HTTP handler for a controller.
func NewHandler(ctl *control.Controller) http.Handler {
	mux := http.NewServeMux()

	writeJSON := func(w http.ResponseWriter, v interface{}) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		// Encoding in-memory structs cannot fail for these types.
		_ = enc.Encode(v)
	}

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})

	mux.HandleFunc("/api/overview", func(w http.ResponseWriter, r *http.Request) {
		queueWait := make(map[string]WaitLatency)
		var degraded, failed int
		for _, s := range ctl.CollectAll() {
			queueWait[s.JobID] = WaitLatency{P50: s.WaitP50, P95: s.WaitP95, P99: s.WaitP99}
			degraded += s.DegradedStages
			failed += s.FailedStages
		}
		var round *ControlRound
		if rs, ok := ctl.LastRound(); ok {
			round = &ControlRound{
				Stages:          rs.Stages,
				RPCs:            rs.RPCs(),
				CollectCalls:    rs.CollectCalls,
				CollectFailures: rs.CollectFailures,
				PushCalls:       rs.PushCalls,
				PushOps:         rs.PushOps,
				PushesSkipped:   rs.PushesSkipped,
				DurationSeconds: rs.Duration.Seconds(),
				BytesRead:       rs.BytesRead,
				BytesWritten:    rs.BytesWritten,
			}
		}
		// The controller's clock, not the wall clock: under a simulated
		// clock the overview timestamps the experiment's instant, keeping
		// replayed runs byte-for-byte reproducible.
		writeJSON(w, Overview{
			Jobs:           len(ctl.Jobs()),
			Stages:         len(ctl.Stages()),
			Timestamp:      ctl.Clock().Now().UTC(),
			Allocation:     ctl.LastAllocation(),
			QueueWait:      queueWait,
			DegradedStages: degraded,
			FailedStages:   failed,
			ControlRound:   round,
		})
	})

	mux.HandleFunc("/api/jobs", func(w http.ResponseWriter, r *http.Request) {
		snaps := ctl.CollectAll()
		rows := make([]JobStatus, 0, len(snaps))
		for _, s := range snaps {
			rows = append(rows, JobStatus{
				JobID:           s.JobID,
				Stages:          s.Stages,
				Demand:          s.Demand,
				Throughput:      s.Throughput,
				Reservation:     s.Reservation,
				Allocated:       s.Allocated,
				WaitP50:         s.WaitP50,
				WaitP95:         s.WaitP95,
				WaitP99:         s.WaitP99,
				Degraded:        s.Degraded,
				DegradedStages:  s.DegradedStages,
				DegradedSeconds: s.DegradedSeconds,
				FailedStages:    s.FailedStages,
			})
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].JobID < rows[j].JobID })
		writeJSON(w, rows)
	})

	mux.HandleFunc("/api/stages", func(w http.ResponseWriter, r *http.Request) {
		infos := ctl.Stages()
		rows := make([]StageStatus, 0, len(infos))
		for _, info := range infos {
			rows = append(rows, StageStatus{
				StageID:  info.StageID,
				JobID:    info.JobID,
				Hostname: info.Hostname,
				PID:      info.PID,
				User:     info.User,
			})
		}
		writeJSON(w, rows)
	})

	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		snaps := ctl.CollectAll()
		fmt.Fprintf(w, "padll control plane — %d jobs, %d stages\n\n", len(ctl.Jobs()), len(ctl.Stages()))
		fmt.Fprintf(w, "%-16s %7s %12s %12s %12s %10s %10s\n", "job", "stages", "demand/s", "served/s", "allocated/s", "wait-p99", "state")
		for _, s := range snaps {
			state := "ok"
			switch {
			case s.Degraded && s.FailedStages > 0:
				state = fmt.Sprintf("deg+%dfail", s.FailedStages)
			case s.Degraded:
				state = fmt.Sprintf("degraded:%d", s.DegradedStages)
			case s.FailedStages > 0:
				state = fmt.Sprintf("partial:%d", s.FailedStages)
			}
			fmt.Fprintf(w, "%-16s %7d %12.0f %12.0f %12.0f %10s %10s\n",
				s.JobID, s.Stages, s.Demand, s.Throughput, s.Allocated,
				time.Duration(s.WaitP99*float64(time.Second)).Round(time.Microsecond), state)
		}
	})
	return mux
}

// Server is a running monitor endpoint.
type Server struct {
	srv  *http.Server
	addr string
}

// Serve starts the monitor on addr (":0" for ephemeral).
func Serve(addr string, ctl *control.Controller) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("monitor: listen %s: %w", addr, err)
	}
	s := &Server{srv: &http.Server{Handler: NewHandler(ctl)}, addr: l.Addr().String()}
	//lint:allow leakcheck Serve returns when Close closes the http.Server, which closes the listener
	go func() {
		// ErrServerClosed is the normal shutdown path.
		_ = s.srv.Serve(l)
	}()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.addr }

// Close stops the endpoint.
func (s *Server) Close() error { return s.srv.Close() }
