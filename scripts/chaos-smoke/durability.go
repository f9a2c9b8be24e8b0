package main

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/scripts/internal/smoke"
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
func durabilityScenario(bin, dir string) {
	// ---- phase 1: SIGKILL + default recovery -> interrupted ----

	smoke.Step("durability: SIGKILL mid-job, restart, ids must answer as interrupted")
	journalA := filepath.Join(dir, "journal-a")
	addr := smoke.FreeAddr()
	d1 := durStart(bin, addr, journalA, "", "fail")

	// One worker, several slow submissions: the kill is guaranteed to
	// strand at least the queued ones.
	ids := durSubmitStranded(d1.URL)
	d1.Kill()

	d2 := durStart(bin, addr, journalA, "", "fail")
	interrupted := 0
	for _, id := range ids {
		// Every id must still answer: a 404 fails the run (a lost job).
		st := smoke.WaitJob(d2.URL, id, 30*time.Second)
		switch {
		case st.State == "failed" && st.ErrorKind == "interrupted":
			interrupted++
		case st.State == "done" || st.State == "failed" || st.State == "canceled":
			// Finished before the kill; the journal replays it as terminal.
		default:
			smoke.Fatalf("durability: job %s recovered in state %q", id, st.State)
		}
	}
	if interrupted == 0 {
		smoke.Fatalf("durability: no job recovered as interrupted (of %d pre-crash ids)", len(ids))
	}
	if !strings.Contains(metrics(d2), `journal_recovered_total{outcome="interrupted"}`) {
		smoke.Fatalf("durability: journal_recovered_total{outcome=\"interrupted\"} not exported")
	}
	d2.Stop()
	smoke.Step("durability: %d/%d pre-crash jobs surfaced as interrupted, none lost", interrupted, len(ids))

	// ---- phase 2: SIGKILL + -recover resubmit -> completed ----

	smoke.Step("durability: SIGKILL mid-job, restart with -recover resubmit")
	journalB := filepath.Join(dir, "journal-b")
	addr2 := smoke.FreeAddr()
	d3 := durStart(bin, addr2, journalB, "", "fail")
	ids2 := durSubmitStranded(d3.URL)
	d3.Kill()

	d4 := durStart(bin, addr2, journalB, "", "resubmit")
	// The sweep resubmits like every compute job, but it runs far longer
	// than this smoke: cancel it so the flows queued behind it get the
	// worker.
	sweepID := ids2[0]
	if st := smoke.JobStatus(d4.URL, sweepID); st.State != "queued" && st.State != "running" {
		smoke.Fatalf("durability: stranded sweep recovered as %q/%q; want resubmitted", st.State, st.ErrorKind)
	}
	smoke.Delete(d4.URL + "/v1/jobs/" + sweepID)
	if st := smoke.WaitJob(d4.URL, sweepID, 30*time.Second); st.State != "canceled" {
		smoke.Fatalf("durability: cancelled resubmitted sweep ended %q", st.State)
	}
	resubmitDone := 0
	for _, id := range ids2[1:] {
		if smoke.WaitJob(d4.URL, id, 60*time.Second).State == "done" {
			resubmitDone++
		}
	}
	if resubmitDone == 0 {
		smoke.Fatalf("durability: -recover resubmit completed none of %d pre-crash jobs", len(ids2))
	}
	if !strings.Contains(metrics(d4), `journal_recovered_total{outcome="resubmitted"}`) {
		smoke.Fatalf("durability: journal_recovered_total{outcome=\"resubmitted\"} not exported")
	}
	d4.Stop()
	smoke.Step("durability: resubmit recovery re-ran the sweep and completed %d/%d pre-crash flows",
		resubmitDone, len(ids2)-1)

	// ---- phase 3: corrupted disk-cache entry -> quarantined clean miss ----

	smoke.Step("durability: truncated disk-cache entry must quarantine and re-solve byte-identically")
	cacheDir := filepath.Join(dir, "cache")
	addr3 := smoke.FreeAddr()
	d5 := durStart(bin, addr3, "", cacheDir, "fail")
	flowReq := map[string]any{"bench": "xor2", "engine": "ortho", "sqd": true}
	code, _, cold := smoke.Post(d5.URL+"/v1/flow", flowReq)
	if code != http.StatusOK {
		smoke.Fatalf("durability: cold flow: status %d: %s", code, cold)
	}
	d5.Stop()

	// Corrupt every persisted entry while the daemon is down (bit rot,
	// torn write at power loss).
	corrupted := 0
	filepath.Walk(cacheDir, func(p string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(p, ".bin") {
			return nil
		}
		if err := os.Truncate(p, info.Size()/2); err != nil {
			smoke.Fatal(err)
		}
		corrupted++
		return nil
	})
	if corrupted == 0 {
		smoke.Fatalf("durability: no disk-cache entries persisted under %s", cacheDir)
	}

	d6 := durStart(bin, addr3, "", cacheDir, "fail")
	const coldFlows = `jobs_cold_solves_total{kind="flow"}`
	coldBefore := max(0, smoke.MetricValue(metrics(d6), coldFlows))
	code, hdr, warm := smoke.Post(d6.URL+"/v1/flow", flowReq)
	if code != http.StatusOK {
		smoke.Fatalf("durability: post-corruption flow: status %d: %s", code, warm)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		smoke.Fatalf("durability: corrupt disk entry answered X-Cache %q; want miss", got)
	}
	if !bytes.Equal(cold, warm) {
		smoke.Fatalf("durability: re-solve after corruption differs from original\ncold: %s\nwarm: %s", cold, warm)
	}
	m3 := metrics(d6)
	if v := smoke.MetricValue(m3, coldFlows); v != coldBefore+1 {
		smoke.Fatalf("durability: %s = %v after the re-solve; want %v", coldFlows, v, coldBefore+1)
	}
	if v := smoke.MetricValue(m3, "cache_disk_corrupt_total"); v < 1 {
		smoke.Fatalf("durability: cache_disk_corrupt_total = %v; want >= 1", v)
	}
	quarantined := 0
	filepath.Walk(cacheDir, func(p string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(p, ".corrupt") {
			quarantined++
		}
		return nil
	})
	if quarantined == 0 {
		smoke.Fatalf("durability: no quarantined *.corrupt file left behind")
	}
	d6.Stop()
	smoke.Step("durability: %d corrupt entries quarantined, re-solve byte-identical", quarantined)
}

// durStart boots a one-worker daemon for the durability scenario and
// waits until it is healthy. Empty journalDir or cacheDir omits the
// corresponding flag.
func durStart(bin, addr, journalDir, cacheDir, recoverMode string) *smoke.Daemon {
	args := []string{
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
	d := smoke.Start(bin, addr, args...)
	d.WaitHealthy(30 * time.Second)
	return d
}

// durSubmitStranded queues async work on a one-worker daemon — a defect
// sweep big enough to outlive the kill (exhaustive enumeration; under
// quickexact it finishes first), then flows stuck behind it — and
// returns every accepted job id.
func durSubmitStranded(base string) []string {
	return []string{
		smoke.Submit(base+"/v1/defects/sweep", map[string]any{
			"densities": []float64{0.5, 1, 2, 4}, "seeds": 8, "workers": 2,
			"solver": "exgs", "async": true,
		}),
		smoke.Submit(base+"/v1/flow", map[string]any{"bench": "xor2", "engine": "ortho", "nocache": true, "async": true}),
		smoke.Submit(base+"/v1/flow", map[string]any{"bench": "mux21", "engine": "ortho", "nocache": true, "async": true}),
	}
}
