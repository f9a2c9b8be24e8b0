package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// durabilityScenario is the crash-durability chaos test: a daemon with a
// write-ahead journal is SIGKILLed mid-job and restarted on the same
// journal directory. Three phases:
//
//   - default recovery: every pre-crash job id still answers on
//     /v1/jobs/{id}; jobs the kill stranded surface as failed with
//     error_kind "interrupted" and journal_recovered_total counts them,
//   - -recover resubmit: stranded jobs re-run from their journaled
//     request bytes under their pre-crash ids; the resubmitted sweep is
//     cancelled and the flows queued behind it complete,
//   - disk-cache integrity: a cache entry truncated while the daemon is
//     down is quarantined as a clean miss on restart (X-Cache: miss and
//     one more cold flow solve), and the re-solve answers byte-identically
//     to the original.
func durabilityScenario(bin string) {
	tmp, err := os.MkdirTemp("", "chaos-durability-*")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(tmp)

	// ---- phase 1: SIGKILL + default recovery -> interrupted ----

	step("durability: SIGKILL mid-job, restart, ids must answer as interrupted")
	journalA := filepath.Join(tmp, "journal-a")
	addr := freeAddr()
	d1 := durStart(bin, addr, journalA, "", "fail")
	target := "http://" + addr
	fleetWaitHealthy(target, 30*time.Second)

	// One worker, several slow submissions: the kill is guaranteed to
	// strand at least the queued ones.
	ids := durSubmitStranded(target)
	if err := d1.Process.Kill(); err != nil {
		fatal(err)
	}
	d1.Wait()

	d2 := durStart(bin, addr, journalA, "", "fail")
	fleetWaitHealthy(target, 30*time.Second)
	interrupted := 0
	for _, id := range ids {
		st := durWaitTerminal(target, id, 30*time.Second)
		switch {
		case st.State == "failed" && st.ErrorKind == "interrupted":
			interrupted++
		case st.State == "done" || st.State == "failed" || st.State == "canceled":
			// Finished before the kill; the journal replays it as terminal.
		default:
			fatal(fmt.Errorf("durability: job %s recovered in state %q", id, st.State))
		}
	}
	if interrupted == 0 {
		fatal(fmt.Errorf("durability: no job recovered as interrupted (of %d pre-crash ids)", len(ids)))
	}
	metrics := durRawGet(target)
	if !strings.Contains(metrics, `journal_recovered_total{outcome="interrupted"}`) {
		fatal(fmt.Errorf("durability: journal_recovered_total{outcome=\"interrupted\"} not exported"))
	}
	durStop(d2)
	fmt.Printf("chaos-smoke: durability: %d/%d pre-crash jobs surfaced as interrupted, none lost\n",
		interrupted, len(ids))

	// ---- phase 2: SIGKILL + -recover resubmit -> completed ----

	step("durability: SIGKILL mid-job, restart with -recover resubmit")
	journalB := filepath.Join(tmp, "journal-b")
	addr2 := freeAddr()
	d3 := durStart(bin, addr2, journalB, "", "fail")
	target2 := "http://" + addr2
	fleetWaitHealthy(target2, 30*time.Second)
	ids2 := durSubmitStranded(target2)
	if err := d3.Process.Kill(); err != nil {
		fatal(err)
	}
	d3.Wait()

	d4 := durStart(bin, addr2, journalB, "", "resubmit")
	fleetWaitHealthy(target2, 30*time.Second)
	// The sweep resubmits like every compute job, but it runs far longer
	// than this smoke: cancel it so the flows queued behind it get the
	// worker.
	sweepID := ids2[0]
	if st := durJob(target2, sweepID); st.State != "queued" && st.State != "running" {
		fatal(fmt.Errorf("durability: stranded sweep recovered as %q/%q; want resubmitted", st.State, st.ErrorKind))
	}
	req, _ := http.NewRequest(http.MethodDelete, target2+"/v1/jobs/"+sweepID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		fatal(err)
	} else {
		resp.Body.Close()
	}
	if st := durWaitTerminal(target2, sweepID, 30*time.Second); st.State != "canceled" {
		fatal(fmt.Errorf("durability: cancelled resubmitted sweep ended %q", st.State))
	}
	resubmitDone := 0
	for _, id := range ids2[1:] {
		st := durWaitTerminal(target2, id, 60*time.Second)
		if st.State == "done" {
			resubmitDone++
		}
	}
	if resubmitDone == 0 {
		fatal(fmt.Errorf("durability: -recover resubmit completed none of %d pre-crash jobs", len(ids2)))
	}
	m2 := durRawGet(target2)
	if !strings.Contains(m2, `journal_recovered_total{outcome="resubmitted"}`) {
		fatal(fmt.Errorf("durability: journal_recovered_total{outcome=\"resubmitted\"} not exported"))
	}
	durStop(d4)
	fmt.Printf("chaos-smoke: durability: resubmit recovery re-ran the sweep and completed %d/%d pre-crash flows\n",
		resubmitDone, len(ids2)-1)

	// ---- phase 3: corrupted disk-cache entry -> quarantined clean miss ----

	step("durability: truncated disk-cache entry must quarantine and re-solve byte-identically")
	cacheDir := filepath.Join(tmp, "cache")
	addr3 := freeAddr()
	d5 := durStart(bin, addr3, "", cacheDir, "fail")
	target3 := "http://" + addr3
	fleetWaitHealthy(target3, 30*time.Second)
	flowReq := map[string]any{"bench": "xor2", "engine": "ortho", "sqd": true}
	code, _, cold := durPost(target3, "/v1/flow", flowReq)
	if code != http.StatusOK {
		fatal(fmt.Errorf("durability: cold flow: status %d: %s", code, cold))
	}
	durStop(d5)

	// Corrupt every persisted entry while the daemon is down (bit rot,
	// torn write at power loss).
	corrupted := 0
	filepath.Walk(cacheDir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(p, ".bin") {
			return nil
		}
		if err := os.Truncate(p, info.Size()/2); err != nil {
			fatal(err)
		}
		corrupted++
		return nil
	})
	if corrupted == 0 {
		fatal(fmt.Errorf("durability: no disk-cache entries persisted under %s", cacheDir))
	}

	d6 := durStart(bin, addr3, "", cacheDir, "fail")
	fleetWaitHealthy(target3, 30*time.Second)
	const coldFlows = `jobs_cold_solves_total{kind="flow"}`
	coldBefore := max(0, metricValue(durRawGet(target3), coldFlows))
	code, hdr, warm := durPost(target3, "/v1/flow", flowReq)
	if code != http.StatusOK {
		fatal(fmt.Errorf("durability: post-corruption flow: status %d: %s", code, warm))
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		fatal(fmt.Errorf("durability: corrupt disk entry answered X-Cache %q; want miss", got))
	}
	if !bytes.Equal(cold, warm) {
		fatal(fmt.Errorf("durability: re-solve after corruption differs from original\ncold: %s\nwarm: %s", cold, warm))
	}
	m3 := durRawGet(target3)
	if v := metricValue(m3, coldFlows); v != coldBefore+1 {
		fatal(fmt.Errorf("durability: %s = %v after the re-solve; want %v", coldFlows, v, coldBefore+1))
	}
	if v := metricValue(m3, "cache_disk_corrupt_total"); v < 1 {
		fatal(fmt.Errorf("durability: cache_disk_corrupt_total = %v; want >= 1", v))
	}
	quarantined := 0
	filepath.Walk(cacheDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".corrupt") {
			quarantined++
		}
		return nil
	})
	if quarantined == 0 {
		fatal(fmt.Errorf("durability: no quarantined *.corrupt file left behind"))
	}
	durStop(d6)
	fmt.Printf("chaos-smoke: durability: %d corrupt entries quarantined, re-solve byte-identical\n", quarantined)
}

// durStart boots the daemon for the durability scenario. Empty journalDir
// or cacheDir omits the corresponding flag.
func durStart(bin, addr, journalDir, cacheDir, recoverMode string) *exec.Cmd {
	args := []string{
		"-addr", addr,
		"-workers", "1",
		"-recover", recoverMode,
		"-log-level", "warn",
	}
	if journalDir != "" {
		args = append(args, "-journal-dir", journalDir)
	}
	if cacheDir != "" {
		args = append(args, "-cache-dir", cacheDir)
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Start(); err != nil {
		fatal(err)
	}
	return cmd
}

// durStop SIGTERMs a daemon and requires a clean exit.
func durStop(cmd *exec.Cmd) {
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			fatal(fmt.Errorf("durability: daemon exit: %w", err))
		}
	case <-time.After(30 * time.Second):
		fatal(fmt.Errorf("durability: daemon did not exit within 30s of SIGTERM"))
	}
}

// durSubmitStranded queues async work on a one-worker daemon — a defect
// sweep big enough to outlive the kill (exhaustive enumeration; under
// quickexact it finishes first), then flows stuck behind it — and
// returns every accepted job id.
func durSubmitStranded(target string) []string {
	var ids []string
	submissions := []struct {
		path string
		req  map[string]any
	}{
		{"/v1/defects/sweep", map[string]any{
			"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "workers": 2,
			"solver": "exgs", "async": true,
		}},
		{"/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho", "nocache": true, "async": true}},
		{"/v1/flow", map[string]any{"bench": "mux21", "engine": "ortho", "nocache": true, "async": true}},
	}
	for _, sub := range submissions {
		code, _, body := durPost(target, sub.path, sub.req)
		if code != http.StatusAccepted {
			fatal(fmt.Errorf("durability: async %s: status %d: %s", sub.path, code, body))
		}
		var snap struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(body, &snap); err != nil || snap.ID == "" {
			fatal(fmt.Errorf("durability: async %s: no job id in %s", sub.path, body))
		}
		ids = append(ids, snap.ID)
	}
	return ids
}

type durStatus struct {
	State     string `json:"state"`
	ErrorKind string `json:"error_kind"`
}

// durJob reads a job's status. A 404 is an immediate failure: journaled
// ids must never be lost.
func durJob(target, id string) durStatus {
	resp, err := http.Get(target + "/v1/jobs/" + id)
	if err != nil {
		fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("durability: GET /v1/jobs/%s = %d (%s); pre-crash id lost", id, resp.StatusCode, body))
	}
	var out struct {
		Job durStatus `json:"job"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		fatal(fmt.Errorf("durability: job %s: %w", id, err))
	}
	return out.Job
}

// durWaitTerminal polls /v1/jobs/{id} until the job is terminal.
func durWaitTerminal(target, id string, timeout time.Duration) durStatus {
	deadline := time.Now().Add(timeout)
	for {
		st := durJob(target, id)
		switch st.State {
		case "done", "failed", "canceled":
			return st
		}
		if time.Now().After(deadline) {
			fatal(fmt.Errorf("durability: job %s still %q after %s", id, st.State, timeout))
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func durPost(target, path string, payload any) (int, http.Header, []byte) {
	b, _ := json.Marshal(payload)
	resp, err := http.Post(target+path, "application/json", bytes.NewReader(b))
	if err != nil {
		fatal(fmt.Errorf("POST %s%s: %w (daemon gone?)", target, path, err))
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, body
}

func durRawGet(target string) string {
	resp, err := http.Get(target + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}
