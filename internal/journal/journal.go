// Package journal is an append-only, fsynced write-ahead journal for the
// design service's job lifecycle. Every submission is recorded — with the
// canonical request bytes needed to re-create the work — before the job
// id is returned to a client, and every start and terminal transition is
// appended behind it, so a SIGKILLed daemon can replay the journal on
// restart and give an honest answer for every pre-crash job id instead of
// a 404 (or, opt-in, re-enqueue the interrupted work).
//
// Records are length-prefixed and CRC-32C checksummed (see codec.go): a
// torn tail — the half-written record a crash mid-append leaves behind —
// is detected and truncated cleanly on the next open instead of poisoning
// replay. The journal rotates to a fresh segment once the current one
// exceeds 4 MiB, and rotation compacts: only jobs still live (queued or
// running) are carried into the new segment, completed lifecycles are
// dropped, and older segments are deleted. Steady-state journal size is
// therefore bounded by the live job set, not by history.
package journal

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/faults"
	"repro/internal/obs"
)

// Event types, in lifecycle order.
const (
	// EventSubmitted records a job entering the queue, with everything a
	// restarted daemon needs to re-create it: the canonical request bytes,
	// the endpoint path, the cache key, and the idempotency key.
	EventSubmitted = "submitted"
	// EventStarted records a worker picking the job up. It is advisory
	// (recovery treats queued and running jobs alike), so Append writes it
	// without an fsync of its own.
	EventStarted = "started"
	// EventFinished records a terminal success or failure (ErrorKind
	// carries the failure taxonomy; "" or "degraded" means the job is done
	// with a usable result).
	EventFinished = "finished"
	// EventCanceled records a terminal cancellation (client cancel or
	// deadline expiry; ErrorKind distinguishes the two).
	EventCanceled = "canceled"
)

// Event is one journal record.
type Event struct {
	Type  string `json:"type"`
	JobID string `json:"job_id"`
	// Submission payload (EventSubmitted only).
	Kind      string `json:"kind,omitempty"`
	Path      string `json:"path,omitempty"`
	Body      []byte `json:"body,omitempty"`
	Key       string `json:"key,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	IdemKey   string `json:"idempotency_key,omitempty"`
	TimeoutMS int64  `json:"timeout_ms,omitempty"`
	// ErrorKind is the terminal failure taxonomy (EventFinished and
	// EventCanceled).
	ErrorKind string    `json:"error_kind,omitempty"`
	Time      time.Time `json:"time"`
}

// Job lifecycle states a replayed record can be in. Queued and Running
// are the non-terminal states a crash strands jobs in.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
)

// JobRecord is the replayed view of one job: its submission event plus
// the furthest lifecycle state the journal witnessed.
type JobRecord struct {
	Submitted Event
	State     string
	ErrorKind string
}

// Terminal reports whether the job reached a terminal state before the
// journal ended (such jobs need no recovery).
func (r *JobRecord) Terminal() bool {
	return r.State == StateDone || r.State == StateFailed || r.State == StateCanceled
}

// Options tunes a Journal.
type Options struct {
	// Tracer receives journal metrics (nil-safe).
	Tracer *obs.Tracer
	// Logger receives structured damage/rotation logs (nil disables).
	Logger *slog.Logger
}

// Journal is the write-ahead job-lifecycle journal. All methods are safe
// for concurrent use.
type Journal struct {
	dir string
	log *slog.Logger
	// segmentBytes is the rotation threshold, segmentSize outside this
	// package's tests.
	segmentBytes int64

	mu     sync.Mutex
	f      *os.File
	seg    int
	size   int64
	closed bool
	// live tracks non-terminal jobs for compaction, in submission order.
	live      map[string]*JobRecord
	liveOrder []string

	recovered []JobRecord

	appends, syncs, rotations, truncations, replaySkipped *obs.Counter
	segments                                              *obs.Gauge
}

const (
	segPrefix   = "wal-"
	segSuffix   = ".log"
	segmentSize = 4 << 20
)

func segName(n int) string { return fmt.Sprintf("%s%08d%s", segPrefix, n, segSuffix) }

// Open opens (creating if needed) a journal rooted at dir, replays every
// existing segment into the recovered job table (truncating a torn tail),
// and readies the newest segment for appends.
func Open(dir string, opts Options) (*Journal, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	tr := opts.Tracer
	j := &Journal{
		dir:           dir,
		log:           cmp.Or(opts.Logger, obs.Discard),
		segmentBytes:  segmentSize,
		live:          map[string]*JobRecord{},
		appends:       tr.Counter("journal/appends_total"),
		syncs:         tr.Counter("journal/syncs_total"),
		rotations:     tr.Counter("journal/rotations_total"),
		truncations:   tr.Counter("journal/torn_tails_truncated_total"),
		replaySkipped: tr.Counter("journal/replay_skipped_total"),
		segments:      tr.Gauge("journal/segments"),
	}
	segs, err := j.listSegments()
	if err != nil {
		return nil, err
	}
	table := map[string]*JobRecord{}
	var order []string
	for i, n := range segs {
		last := i == len(segs)-1
		if err := j.replaySegment(filepath.Join(dir, segName(n)), last, table, &order); err != nil {
			return nil, err
		}
	}
	j.recovered = make([]JobRecord, 0, len(order))
	for _, id := range order {
		rec := table[id]
		j.recovered = append(j.recovered, *rec)
		if !rec.Terminal() {
			cp := *rec
			j.live[id] = &cp
			j.liveOrder = append(j.liveOrder, id)
		}
	}
	j.seg = 1
	if len(segs) > 0 {
		j.seg = segs[len(segs)-1]
	}
	p := filepath.Join(dir, segName(j.seg))
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: %w", err)
	}
	j.f, j.size = f, st.Size()
	j.segments.Set(1)
	if len(segs) == 0 {
		if err := syncDir(dir); err != nil {
			f.Close()
			return nil, err
		}
	}
	return j, nil
}

// listSegments returns the segment numbers present in dir, ascending.
func (j *Journal) listSegments() ([]int, error) {
	ents, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	var segs []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n <= 0 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// replaySegment reads one segment into the job table. Damage handling:
// a torn or corrupt record ends the segment's replay — everything before
// it stands — and when the segment is the newest one (the only segment
// still being appended to) the file is truncated back to the last good
// record so the next append starts from a clean boundary. The
// journal.replay fault point models an unreadable-but-framed record: the
// record is skipped (counted), replay continues.
func (j *Journal) replaySegment(path string, last bool, table map[string]*JobRecord, order *[]string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("journal: %w", err)
	}
	defer f.Close()
	br := bufio.NewReader(f)
	var good int64
	for {
		payload, err := readRecord(br)
		if err != nil {
			if err == io.EOF {
				break
			}
			// Damaged record: log, optionally truncate, stop this segment.
			j.log.Warn("journal_damaged_record",
				"segment", filepath.Base(path),
				"offset", good,
				"error", err)
			if last {
				if terr := os.Truncate(path, good); terr != nil {
					return fmt.Errorf("journal: truncating torn tail: %w", terr)
				}
				j.truncations.Inc()
			}
			break
		}
		good += int64(recordHeaderLen + len(payload))
		if ferr := faults.Fail("journal.replay"); ferr != nil {
			j.replaySkipped.Inc()
			j.log.Warn("journal_replay_record_skipped",
				"segment", filepath.Base(path),
				"error", ferr)
			continue
		}
		var ev Event
		if err := json.Unmarshal(payload, &ev); err != nil {
			// The frame verified but the payload doesn't decode: skip it
			// (a frame-level checksum can't vouch for what we wrote).
			j.replaySkipped.Inc()
			continue
		}
		applyEvent(table, order, &ev)
	}
	return nil
}

// applyEvent advances the replay state machine for one event. Duplicate
// submitted/started events (rotation compaction re-writes live jobs) are
// idempotent, and nothing ever moves a job out of a terminal state.
func applyEvent(table map[string]*JobRecord, order *[]string, ev *Event) {
	rec, ok := table[ev.JobID]
	if !ok {
		if ev.Type != EventSubmitted {
			// A lifecycle event for a job whose submission we never saw
			// (lost to a skipped record): synthesize a stub so terminal
			// events still record honestly.
			rec = &JobRecord{Submitted: Event{Type: EventSubmitted, JobID: ev.JobID}, State: StateQueued}
		} else {
			rec = &JobRecord{State: StateQueued}
		}
		table[ev.JobID] = rec
		*order = append(*order, ev.JobID)
	}
	switch ev.Type {
	case EventSubmitted:
		rec.Submitted = *ev
		if rec.Terminal() {
			return
		}
		if rec.State != StateRunning {
			rec.State = StateQueued
		}
	case EventStarted:
		if !rec.Terminal() {
			rec.State = StateRunning
		}
	case EventFinished:
		rec.ErrorKind = ev.ErrorKind
		if ev.ErrorKind == "" || ev.ErrorKind == "degraded" {
			rec.State = StateDone
		} else {
			rec.State = StateFailed
		}
	case EventCanceled:
		rec.State = StateCanceled
		rec.ErrorKind = ev.ErrorKind
	}
}

// Recovered returns the job table replayed at Open, in first-seen order.
// The slice is the caller's to keep; the journal does not retain it.
func (j *Journal) Recovered() []JobRecord {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := j.recovered
	j.recovered = nil
	return out
}

// Append records one event: sealed, written, and, unless it is a started
// event, fsynced before returning. A started event needs no fsync of its
// own: a killed process loses no written pages, and the next synced
// append, a rotation or Close makes it durable against power loss too. The journal.append
// fault point stands in for a full disk or failing device; callers treat
// append failure as degraded durability, not unavailability.
func (j *Journal) Append(ev Event) error {
	if err := faults.Fail("journal.append"); err != nil {
		return err
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	payload, err := json.Marshal(&ev)
	if err != nil {
		return fmt.Errorf("journal: encode: %w", err)
	}
	rec := Seal(payload)

	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return fmt.Errorf("journal: closed")
	}
	if _, err := j.f.Write(rec); err != nil {
		return fmt.Errorf("journal: append: %w", err)
	}
	if ev.Type != EventStarted {
		if err := j.f.Sync(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		j.syncs.Inc()
	}
	j.size += int64(len(rec))
	j.appends.Inc()
	j.applyLiveLocked(&ev)
	if j.size >= j.segmentBytes {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

// applyLiveLocked mirrors the replay state machine onto the live-job
// table that rotation compacts from. Caller holds j.mu.
func (j *Journal) applyLiveLocked(ev *Event) {
	switch ev.Type {
	case EventSubmitted:
		if _, ok := j.live[ev.JobID]; !ok {
			j.live[ev.JobID] = &JobRecord{Submitted: *ev, State: StateQueued}
			j.liveOrder = append(j.liveOrder, ev.JobID)
		}
	case EventStarted:
		if rec, ok := j.live[ev.JobID]; ok {
			rec.State = StateRunning
		}
	case EventFinished, EventCanceled:
		if _, ok := j.live[ev.JobID]; ok {
			delete(j.live, ev.JobID)
			for i, id := range j.liveOrder {
				if id == ev.JobID {
					j.liveOrder = append(j.liveOrder[:i], j.liveOrder[i+1:]...)
					break
				}
			}
		}
	}
}

// rotateLocked compacts the journal into a fresh segment: live jobs are
// re-written (their submission event, plus a started marker for running
// ones), the new segment is fsynced into place, and only then are the
// older segments removed — a crash mid-rotation leaves duplicates, which
// replay applies idempotently, never holes. Caller holds j.mu.
func (j *Journal) rotateLocked() error {
	next := j.seg + 1
	p := filepath.Join(j.dir, segName(next))
	f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("journal: rotate: %w", err)
	}
	var size int64
	for _, id := range j.liveOrder {
		rec := j.live[id]
		events := []Event{rec.Submitted}
		if rec.State == StateRunning {
			events = append(events, Event{Type: EventStarted, JobID: id, Time: time.Now()})
		}
		for _, ev := range events {
			payload, err := json.Marshal(&ev)
			if err != nil {
				f.Close()
				return fmt.Errorf("journal: rotate encode: %w", err)
			}
			b := Seal(payload)
			if _, err := f.Write(b); err != nil {
				f.Close()
				return fmt.Errorf("journal: rotate write: %w", err)
			}
			size += int64(len(b))
		}
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("journal: rotate sync: %w", err)
	}
	j.syncs.Inc()
	if err := syncDir(j.dir); err != nil {
		f.Close()
		return err
	}
	old, oldSeg := j.f, j.seg
	j.f, j.seg, j.size = f, next, size
	old.Close()
	os.Remove(filepath.Join(j.dir, segName(oldSeg)))
	syncDir(j.dir)
	j.rotations.Inc()
	j.log.Debug("journal_rotated",
		"segment", segName(next),
		"live_jobs", len(j.liveOrder),
		"bytes", size)
	return nil
}

// Close fsyncs and closes the current segment.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	j.f.Sync()
	return j.f.Close()
}

// syncDir fsyncs a directory so entry creation/removal is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("journal: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("journal: sync dir: %w", err)
	}
	return nil
}
