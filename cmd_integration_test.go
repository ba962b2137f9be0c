package padll_test

// End-to-end integration of the command-line tools: build every binary,
// generate a trace, replay it under a rule, run the benchmarks, and
// drive a live controller + stage + padll-ctl session over TCP — the
// two-terminal demo from the README, executed as a test.

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is an io.Writer safe to read while a child process writes.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// buildTools compiles every cmd/ binary into a temp dir once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	tools := []string{
		"padll-tracegen", "padll-replayer", "padll-ior",
		"padll-mdtest", "padll-ctl", "padll-controller", "padll-experiments",
	}
	for _, tool := range tools {
		out, err := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./cmd/"+tool).CombinedOutput()
		if err != nil {
			t.Fatalf("build %s: %v\n%s", tool, err, out)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = &buf
	if err := cmd.Run(); err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, buf.String())
	}
	return buf.String()
}

func TestCommandLineToolsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildTools(t)
	work := t.TempDir()

	// 1. Generate a small single-MDT trace.
	traceFile := filepath.Join(work, "trace.csv")
	out := run(t, filepath.Join(bins, "padll-tracegen"),
		"-days", "0.02", "-mdt", "-seed", "7", "-out", traceFile, "-stats")
	if _, err := os.Stat(traceFile); err != nil {
		t.Fatalf("trace file missing: %v\n%s", err, out)
	}

	// 2. Replay it through a throttled stack for a couple of seconds.
	out = run(t, filepath.Join(bins, "padll-replayer"),
		"-trace", traceFile, "-duration", "2s",
		"-rule", "limit id:meta class:metadata rate:5k")
	if !strings.Contains(out, "installed") || !strings.Contains(out, "done in") {
		t.Errorf("replayer output unexpected:\n%s", out)
	}
	if !strings.Contains(out, "queue meta") {
		t.Errorf("replayer did not report the throttle queue:\n%s", out)
	}

	// 3. IOR and mdtest benchmarks complete and report.
	out = run(t, filepath.Join(bins, "padll-ior"),
		"-tasks", "2", "-transfer", "64k", "-block", "1m", "-segments", "1", "-mode", "writeread")
	if !strings.Contains(out, "write:") || !strings.Contains(out, "read:") {
		t.Errorf("ior output unexpected:\n%s", out)
	}
	out = run(t, filepath.Join(bins, "padll-mdtest"), "-ranks", "2", "-files", "50", "-dirs", "2")
	if !strings.Contains(out, "file-create") || !strings.Contains(out, "dir-remove") {
		t.Errorf("mdtest output unexpected:\n%s", out)
	}

	// 4. Live control plane: controller serves; a replayer stage
	// registers; padll-ctl inspects and retunes it.
	controller := exec.Command(filepath.Join(bins, "padll-controller"),
		"-listen", "127.0.0.1:0", "-algorithm", "proportional",
		"-limit", "20000", "-reserve", "replay-job=5k", "-report", "0",
		"-http", "127.0.0.1:0")
	var ctlOut lockedBuffer
	controller.Stdout = &ctlOut
	controller.Stderr = &ctlOut
	if err := controller.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		controller.Process.Kill()
		controller.Wait()
	}()
	registrar := waitForAddr(t, &ctlOut, "registrar on ", 5*time.Second)
	monitor := waitForAddr(t, &ctlOut, "HTTP monitor on ", 5*time.Second)

	replayer := exec.Command(filepath.Join(bins, "padll-replayer"),
		"-trace", traceFile, "-duration", "8s",
		"-serve", "127.0.0.1:0", "-controller", registrar)
	var repOut lockedBuffer
	replayer.Stdout = &repOut
	replayer.Stderr = &repOut
	if err := replayer.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		replayer.Process.Kill()
		replayer.Wait()
	}()
	stageAddr := waitForAddr(t, &repOut, "stage control service on ", 5*time.Second)

	ctl := filepath.Join(bins, "padll-ctl")
	out = run(t, ctl, "-stage", stageAddr, "ping")
	if !strings.Contains(out, "replay-job") {
		t.Errorf("ctl ping output:\n%s", out)
	}
	// Give the controller a loop iteration to install the managed queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		out = run(t, ctl, "-stage", stageAddr, "stats")
		if strings.Contains(out, "padll-control") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("managed queue never appeared:\n%s", out)
		}
		time.Sleep(200 * time.Millisecond)
	}
	// Apply an extra administrator rule and retune it.
	out = run(t, ctl, "-stage", stageAddr, "apply", "limit id:open-cap op:open rate:1k")
	if !strings.Contains(out, "applied") {
		t.Errorf("ctl apply output:\n%s", out)
	}
	out = run(t, ctl, "-stage", stageAddr, "set-rate", "open-cap", "2k")
	if !strings.Contains(out, "2000") {
		t.Errorf("ctl set-rate output:\n%s", out)
	}
	out = run(t, ctl, "-stage", stageAddr, "remove", "open-cap")
	if !strings.Contains(out, "removed") {
		t.Errorf("ctl remove output:\n%s", out)
	}

	// 5. The controller's HTTP monitor reports the job's allocation once
	// the feedback loop has run (first tick lands within a second).
	deadline = time.Now().Add(5 * time.Second)
	for {
		monBody := httpGetWithRetry(t, monitor+"api/overview", 5*time.Second)
		if strings.Contains(monBody, "replay-job") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("monitor overview never showed the job's allocation:\n%s", monBody)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestControllerCrashEndToEnd is the failure-model demo over real TCP
// (DESIGN.md §8): a controller with Priority reservations drives two
// replayer stages; the controller is SIGKILLed mid-run. The stages must
// freeze their last-pushed limits (observable live via padll-ctl and in
// the final queue report) and account nonzero degraded time.
func TestControllerCrashEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries")
	}
	bins := buildTools(t)

	controller := exec.Command(filepath.Join(bins, "padll-controller"),
		"-listen", "127.0.0.1:0", "-algorithm", "priority",
		"-limit", "20000", "-reserve", "job-a=4k", "-reserve", "job-b=6k",
		"-interval", "200ms", "-report", "0")
	var ctlOut lockedBuffer
	controller.Stdout = &ctlOut
	controller.Stderr = &ctlOut
	if err := controller.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		controller.Process.Kill()
		controller.Wait()
	}()
	registrar := waitForAddr(t, &ctlOut, "registrar on ", 5*time.Second)

	// Two stages, one per job, each heartbeating the controller.
	type stageProc struct {
		job, addr, rate string
		cmd             *exec.Cmd
		out             *lockedBuffer
	}
	stages := []*stageProc{
		{job: "job-a", rate: "4000"},
		{job: "job-b", rate: "6000"},
	}
	for _, s := range stages {
		s.out = &lockedBuffer{}
		s.cmd = exec.Command(filepath.Join(bins, "padll-replayer"),
			"-synthetic", "-seed", "7", "-duration", "12s",
			"-job", s.job, "-serve", "127.0.0.1:0",
			"-controller", registrar, "-heartbeat", "150ms")
		s.cmd.Stdout = s.out
		s.cmd.Stderr = s.out
		if err := s.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		defer func(c *exec.Cmd) {
			c.Process.Kill()
			c.Wait()
		}(s.cmd)
	}
	for _, s := range stages {
		s.addr = waitForAddr(t, s.out, "stage control service on ", 5*time.Second)
	}

	// Wait until the control loop has tuned both stages to their
	// reservations, and remember the managed-queue line verbatim.
	ctl := filepath.Join(bins, "padll-ctl")
	before := map[string]string{}
	for _, s := range stages {
		deadline := time.Now().Add(5 * time.Second)
		for {
			out := run(t, ctl, "-stage", s.addr, "stats")
			if line := controlLine(out); line != "" && strings.Contains(line, s.rate) {
				before[s.job] = line
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("stage %s never reached its reservation:\n%s", s.job, out)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}

	// Crash the controller mid-run, hard.
	if err := controller.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	controller.Wait()

	// Several heartbeat periods later the stages must still enforce the
	// exact limits the dead controller last pushed.
	time.Sleep(1 * time.Second)
	for _, s := range stages {
		out := run(t, ctl, "-stage", s.addr, "stats")
		if line := controlLine(out); line != before[s.job] {
			t.Errorf("stage %s limit drifted after controller death:\nbefore: %s\nafter:  %s",
				s.job, before[s.job], line)
		}
	}

	// Let the replay run out and check the summaries: nonzero degraded
	// time, and the managed queue still throttled to the frozen rate.
	for _, s := range stages {
		if err := s.cmd.Wait(); err != nil {
			t.Fatalf("replayer %s: %v\n%s", s.job, err, s.out.String())
		}
		out := s.out.String()
		if !strings.Contains(out, "controller degraded for") {
			t.Errorf("replayer %s reported no degraded time:\n%s", s.job, out)
		}
		if !strings.Contains(out, "queue padll-control") || !strings.Contains(out, s.rate+"/s") {
			t.Errorf("replayer %s lost its frozen managed queue (want %s/s):\n%s", s.job, s.rate, out)
		}
	}
}

// controlLine extracts the padll-control queue's limit=... token from
// ctl stats output (the rest of the line carries live counters).
func controlLine(statsOut string) string {
	for _, line := range strings.Split(statsOut, "\n") {
		if !strings.Contains(line, "padll-control") {
			continue
		}
		for _, tok := range strings.Fields(line) {
			if strings.HasPrefix(tok, "limit=") {
				return tok
			}
		}
	}
	return ""
}

// waitForAddr waits for the line a process prints once it has bound a
// listener — marker, then the address — and returns the address
// (host:port, or the URL with its trailing slash for an HTTP endpoint).
func waitForAddr(t *testing.T, buf *lockedBuffer, marker string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		out := buf.String()
		if i := strings.Index(out, marker); i >= 0 {
			if line, _, done := strings.Cut(out[i+len(marker):], "\n"); done {
				return strings.TrimSuffix(strings.Fields(line)[0], ",")
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %q and an address in output:\n%s", marker, out)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// httpGetWithRetry fetches a URL, retrying while the server warms up.
func httpGetWithRetry(t *testing.T, url string, timeout time.Duration) string {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		resp, err := http.Get(url)
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil && resp.StatusCode == 200 {
				return string(body)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("GET %s never succeeded: %v", url, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
