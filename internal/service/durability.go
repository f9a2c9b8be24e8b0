package service

import (
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/obs"
	"repro/internal/obs/obslog"
)

// Recovery modes for jobs the journal shows queued or running at crash.
const (
	// RecoverFail (the default) surfaces interrupted jobs as state
	// "failed" with error_kind "interrupted": honest, cheap, and safe for
	// clients that resubmit on failure themselves.
	RecoverFail = "fail"
	// RecoverResubmit re-enqueues interrupted jobs from their journaled
	// request bytes, under their pre-crash ids.
	RecoverResubmit = "resubmit"
)

// IdempotencyKeyHeader lets a client tag a submission so a retry of the
// same POST — after a timeout, a crash, or a lost response — reattaches
// to the original job instead of starting a duplicate solve.
const IdempotencyKeyHeader = "Idempotency-Key"

// idempotentReplayHeader marks a response served by replaying an earlier
// submission with the same Idempotency-Key.
const idempotentReplayHeader = "X-Idempotent-Replay"

// idempotencyKey returns the caller's Idempotency-Key when it is safe to
// use (same bounded length and conservative charset as request ids), "".
func idempotencyKey(r *http.Request) string {
	key := r.Header.Get(IdempotencyKeyHeader)
	if key == "" || len(key) > 64 {
		return ""
	}
	for _, c := range key {
		ok := c == '-' || c == '_' || c == '.' ||
			(c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !ok {
			return ""
		}
	}
	return key
}

// maxIdemEntries bounds the idempotency-key table; the oldest mappings
// fall off first (a client retrying that far behind re-solves, it does
// not get a wrong answer — the cache still dedups the work).
const maxIdemEntries = 4096

// idemTable maps idempotency keys to job ids, FIFO-bounded.
type idemTable struct {
	mu    sync.Mutex
	byKey map[string]string
	order []string
}

func (t *idemTable) claim(key, jobID string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byKey == nil {
		t.byKey = make(map[string]string)
	}
	if _, ok := t.byKey[key]; !ok {
		t.order = append(t.order, key)
	}
	t.byKey[key] = jobID
	for len(t.order) > maxIdemEntries {
		delete(t.byKey, t.order[0])
		t.order = t.order[1:]
	}
}

func (t *idemTable) lookup(key string) (string, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id, ok := t.byKey[key]
	return id, ok
}

func (t *idemTable) drop(key string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.byKey, key)
	for i, k := range t.order {
		if k == key {
			t.order = append(t.order[:i], t.order[i+1:]...)
			break
		}
	}
}

// idempotentReplay serves the request from an earlier submission with the
// same Idempotency-Key, when one is still known. Replays reattach only to
// jobs that succeeded or are still in flight; a canceled/failed outcome
// drops the mapping so the retry genuinely retries. Returns true when the
// response was written.
func (s *Server) idempotentReplay(w http.ResponseWriter, r *http.Request, key string, async bool) bool {
	if key == "" {
		return false
	}
	jobID, ok := s.idem.lookup(key)
	if !ok {
		return false
	}
	j, ok := s.queue.Get(jobID)
	if !ok {
		s.idem.drop(key) // job pruned from history: mapping is stale
		return false
	}
	switch j.State() {
	case JobCanceled, JobFailed:
		// Replaying a terminal failure forever would make the retry
		// pointless; the retry gets a fresh attempt (under the same key).
		s.idem.drop(key)
		return false
	}
	s.tr.Counter("idempotency/replayed_total").Inc()
	w.Header().Set(idempotentReplayHeader, "true")
	s.reply(w, r, j, async)
	return true
}

// ---- journal wiring ----

// initJournal opens the write-ahead journal, replays it into recovery
// actions, and hooks the queue lifecycle so every subsequent submission,
// start, and terminal transition is journaled. Called from New after the
// queue exists but before the server accepts requests.
func (s *Server) initJournal(cfg Config) error {
	jr, err := journal.Open(cfg.JournalDir, journal.Options{
		Tracer: s.tr,
		Logger: s.log,
	})
	if err != nil {
		return err
	}
	s.jrnl = jr
	s.queue.OnSubmit(func(j *Job) {
		ev := journal.Event{
			Type:      journal.EventSubmitted,
			JobID:     j.ID,
			Kind:      j.Kind,
			RequestID: j.RequestID(),
		}
		if m := j.Meta(); m != nil {
			ev.Path, ev.Body, ev.Key = m.Path, m.Body, m.Key
			ev.IdemKey, ev.TimeoutMS = m.IdemKey, m.TimeoutMS
		}
		s.journalAppend(ev)
	})
	s.queue.OnStart(func(j *Job) {
		s.journalAppend(journal.Event{Type: journal.EventStarted, JobID: j.ID})
	})
	return nil
}

// journalFinish records a job's terminal transition; wired into the
// queue's OnFinish hook alongside the flight recorder.
func (s *Server) journalFinish(j *Job) {
	if s.jrnl == nil {
		return
	}
	st := j.Snapshot()
	ev := journal.Event{JobID: j.ID, ErrorKind: st.ErrorKind}
	if st.State == JobCanceled {
		ev.Type = journal.EventCanceled
	} else {
		ev.Type = journal.EventFinished
	}
	s.journalAppend(ev)
}

// journalAppend appends one event, treating failure as degraded
// durability rather than unavailability: the job still runs, the loss is
// that a crash before its terminal event would replay it as interrupted.
func (s *Server) journalAppend(ev journal.Event) {
	if err := s.jrnl.Append(ev); err != nil {
		s.tr.Counter("journal/append_errors_total").Inc()
		s.log.Warn("journal_append_failed",
			obslog.F("job_id", ev.JobID),
			obslog.F("type", ev.Type),
			obslog.F("error", err.Error()))
	}
}

// recoverJournal replays the journal's job table into queue state: jobs
// that finished before the crash become terminal stubs (their id answers
// honestly, without a result body), and jobs the crash stranded are
// either resubmitted from their journaled request bytes (RecoverResubmit)
// or surfaced as failed/interrupted. Outcomes are counted in
// journal_recovered_total{outcome}.
func (s *Server) recoverJournal(mode string) {
	recs := s.jrnl.Recovered()
	// Advance the id sequence past every recovered id first, so fresh
	// submissions never collide with resubmitted pre-crash ids.
	for i := range recs {
		s.queue.EnsureNextID(recs[i].Submitted.JobID)
	}
	for i := range recs {
		rec := &recs[i]
		outcome := s.recoverJob(rec, mode)
		s.tr.Counter(obs.Labeled("journal/recovered_total", "outcome", outcome)).Inc()
		s.log.Info("journal_job_recovered",
			obslog.F("job_id", rec.Submitted.JobID),
			obslog.F("kind", rec.Submitted.Kind),
			obslog.F("state", rec.State),
			obslog.F("outcome", outcome))
	}
}

// recoverJob applies one replayed job record and names the outcome.
func (s *Server) recoverJob(rec *journal.JobRecord, mode string) string {
	sub := &rec.Submitted
	if rec.Terminal() {
		state := JobDone
		errMsg := ""
		switch rec.State {
		case journal.StateFailed:
			state, errMsg = JobFailed, "failed before daemon restart"
		case journal.StateCanceled:
			state, errMsg = JobCanceled, "canceled before daemon restart"
		}
		s.queue.Restore(sub.JobID, sub.Kind, sub.RequestID, state, rec.ErrorKind, errMsg, sub.Time, false)
		return "completed"
	}
	if mode == RecoverResubmit && s.resubmitRecovered(rec) {
		return "resubmitted"
	}
	s.queue.Restore(sub.JobID, sub.Kind, sub.RequestID, JobFailed, ErrKindInterrupted,
		"interrupted by daemon restart", sub.Time, true)
	return "interrupted"
}

// resubmitRecovered re-enqueues one stranded job from its journaled
// request bytes, under its pre-crash id, re-preparing them through the
// endpoint's row of opRoutes. Returns false (caller falls back to
// interrupted) when the body cannot be re-prepared — a batch, a library
// that changed across the restart — or the queue refuses it.
func (s *Server) resubmitRecovered(rec *journal.JobRecord) bool {
	sub := &rec.Submitted
	if sub.Path == "" || len(sub.Body) == 0 {
		return false
	}
	var op *preparedOp
	err := fmt.Errorf("service: no recovery for %s", sub.Path)
	if rt := findRoute(func(rt *opRoute) bool { return rt.path == sub.Path }); rt != nil {
		op, err = rt.prepare(s, sub.Body)
	}
	if err != nil {
		s.log.Warn("journal_resubmit_unpreparable",
			obslog.F("job_id", sub.JobID),
			obslog.F("path", sub.Path),
			obslog.F("error", err.Error()))
		return false
	}
	_, err = s.enqueue(SubmitOptions{
		Kind:      op.kind,
		RequestID: sub.RequestID,
		ID:        sub.JobID,
		Meta: &JobMeta{
			Path: sub.Path, Body: sub.Body, Key: string(op.key),
			IdemKey: sub.IdemKey, TimeoutMS: sub.TimeoutMS,
		},
	}, obs.Hop{}, s.opJob(op))
	if err != nil {
		s.log.Warn("journal_resubmit_rejected",
			obslog.F("job_id", sub.JobID),
			obslog.F("error", err.Error()))
		return false
	}
	return true
}

// drainRetryAfterSeconds estimates when a draining replica's replacement
// should be up: the remainder of the drain grace period, clamped to at
// least a second. With no grace configured the estimate is the minimum —
// the operator chose an immediate drain.
func (s *Server) drainRetryAfterSeconds() int {
	grace := s.cfg.DrainGrace
	if grace <= 0 {
		return 1
	}
	remaining := grace
	if t := s.queue.DrainStarted(); !t.IsZero() {
		remaining = grace - time.Since(t)
	}
	secs := int(math.Ceil(remaining.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}
