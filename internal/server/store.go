package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// The on-disk job store is a segmented write-ahead log plus an atomic
// result directory:
//
//	<dir>/wal-NNNNNN.log     length+CRC framed, fsync'd append-only segments
//	<dir>/results/<key>.json whole-file job results, written tmp+rename+fsync
//	<dir>/results/<key>.trace.json per-job Chrome-trace artifacts (best effort)
//
// Each WAL record is [len uint32][crc32 uint32][payload JSON], little
// endian. Appends are fsync'd before the caller is told the operation
// succeeded — Accept returning nil IS the daemon's 202, so a kill -9 at
// any later instant cannot lose the job. Because segments are
// append-only, a torn write can exist only at the tail of the newest
// segment: replay stops at the first frame whose length or checksum does
// not hold, truncates there, and the store is exactly the prefix of
// operations that were fully written. Results are never written in
// place; a result file either does not exist or is complete.
//
// Segment rotation: when the active segment passes SegmentBytes the
// store seals it and appends to a fresh one. A sealed segment whose every
// referenced job is terminal is compacted live: each id's summary records
// (a job's accept + done, a sweep's sweep record) are appended to the
// active segment and fsync'd, then the sealed file is deleted. A sweep
// never pins a segment: it has no state beyond its spec. Replay is
// idempotent — a duplicate accept keeps the first spec, a duplicate done
// re-applies the same terminal state — so a crash anywhere inside
// compaction (before the summary, between summary and delete, after the
// delete) replays to the same state. Long-lived deployments therefore
// keep O(live jobs) log bytes instead of growing one file forever;
// Checkpoint (graceful drain) is now just a full compaction.
//
// Crash-recovery state machine (replayed in segment + WAL order):
//
//	accept(id)        -> job pending
//	sweep(id)         -> sweep known (children are ordinary jobs)
//	done(id, ok)      -> job done (result file must exist; if the
//	                     artifact vanished the job degrades to pending
//	                     and is simply re-run — simulations are
//	                     deterministic, so the re-run is byte-identical)
//	done(id, failed)  -> job failed (typed kind + message preserved)
//
// A job that was running at the moment of the crash has an accept record
// and no done record, so replay re-enqueues it. done settles jobs only: a
// sweep's state and aggregate are derived from its children, so replay
// ignores the sweep done records (and results/<sweep>.json aggregates)
// that earlier daemons wrote.

// ErrStoreDead is returned by every operation after an injected crash:
// the chaos harness uses it to guarantee a "dead" store stops mutating
// disk at exactly the injected point, like the process it stands in for.
var ErrStoreDead = errors.New("server: job store is dead (injected crash)")

// CrashPoint names the instants the chaos harness may kill the store at.
type CrashPoint string

const (
	CrashBeforeAppend  CrashPoint = "before-append"  // record never written
	CrashAfterWrite    CrashPoint = "after-write"    // written, not synced: tail may tear
	CrashAfterSync     CrashPoint = "after-sync"     // durable, caller never told
	CrashAfterResult   CrashPoint = "after-result"   // result durable, done record absent
	CrashDuringCompact CrashPoint = "during-compact" // summary durable, sealed segment not yet deleted
)

// maxRecord bounds one WAL payload; anything larger during replay is
// treated as a torn/corrupt tail.
const maxRecord = 1 << 20

// DefaultSegmentBytes is the rotation threshold when the caller does not
// choose one.
const DefaultSegmentBytes = 4 << 20

// walRecord is the JSON payload of one frame.
type walRecord struct {
	Op       string     `json:"op"` // accept | sweep | done
	ID       string     `json:"id"`
	Spec     *JobSpec   `json:"spec,omitempty"`
	Sweep    *SweepSpec `json:"sweep,omitempty"`
	Status   string     `json:"status,omitempty"` // ok | failed
	FailKind string     `json:"fail_kind,omitempty"`
	Error    string     `json:"error,omitempty"`
}

// StoredJob is one job's durable state after replay.
type StoredJob struct {
	ID       string
	Spec     JobSpec
	State    string // StateAccepted | StateDone | StateFailed
	FailKind string
	Error    string
}

// StoredSweep is one sweep's durable record after replay: its spec and
// nothing more. Children are not persisted with the sweep — they are
// ordinary jobs, recomputed deterministically from the spec on replay.
type StoredSweep struct {
	ID   string
	Spec SweepSpec
}

// segment is one WAL file plus the set of job/sweep ids it references
// (the compaction unit).
type segment struct {
	index int
	path  string
	ids   map[string]bool
}

// Store is the durable job store. All methods are safe for concurrent
// use; every mutation is fsync'd before it reports success.
type Store struct {
	dir      string
	segBytes int64

	mu         sync.Mutex
	wal        *os.File   // active segment handle
	cur        *segment   // active segment bookkeeping
	walSize    int64      // bytes in the active segment
	sealed     []*segment // older segments, oldest first
	jobs       map[string]*StoredJob
	order      []string
	sweeps     map[string]*StoredSweep
	sweepOrder []string
	dead       bool
	compacting bool

	// Truncated reports how many torn/untrustworthy tail bytes replay
	// discarded — observability for the recovery path, asserted on by the
	// chaos tests.
	Truncated int64
	// Replayed counts the records recovered from the existing WAL.
	Replayed int
	// Compacted counts sealed segments removed by live compaction (and
	// checkpoint) over this store's lifetime.
	Compacted int

	// crash is the chaos hook (nil in production): consulted at each
	// CrashPoint; a non-nil return kills the store there.
	crash func(CrashPoint) error
	// fault is the transient-failure hook (nil in production): a non-nil
	// return fails the operation without killing the store — the disk
	// hiccup the in-process settlement retry path recovers from.
	fault func(op string) error
}

// OpenStore opens (creating if needed) the job store in dir with the
// default segment size and replays the WAL, truncating a torn tail.
func OpenStore(dir string) (*Store, error) {
	return OpenStoreSegmented(dir, DefaultSegmentBytes)
}

// OpenStoreSegmented opens the store with an explicit rotation threshold
// (tests use tiny segments to force rollover and live compaction).
func OpenStoreSegmented(dir string, segBytes int64) (*Store, error) {
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	s := &Store{
		dir: dir, segBytes: segBytes,
		jobs:   make(map[string]*StoredJob),
		sweeps: make(map[string]*StoredSweep),
	}
	if err := s.openSegments(); err != nil {
		return nil, err
	}
	if err := syncDir(dir); err != nil {
		s.wal.Close()
		return nil, err
	}
	return s, nil
}

// segPath names segment i.
func (s *Store) segPath(i int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%06d.log", i))
}

// openSegments discovers, replays, and repairs the segment chain, leaving
// s.wal positioned for appends on the newest segment.
func (s *Store) openSegments() error {
	// Migrate a pre-rotation store: its single wal.log becomes segment 1.
	legacy := filepath.Join(s.dir, "wal.log")
	if _, err := os.Stat(legacy); err == nil {
		if _, err := os.Stat(s.segPath(1)); errors.Is(err, os.ErrNotExist) {
			if err := os.Rename(legacy, s.segPath(1)); err != nil {
				return fmt.Errorf("server: store: migrate wal.log: %w", err)
			}
		}
	}
	paths, err := filepath.Glob(filepath.Join(s.dir, "wal-*.log"))
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	var segs []*segment
	for _, p := range paths {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &idx); err != nil {
			continue // not ours
		}
		segs = append(segs, &segment{index: idx, path: p, ids: map[string]bool{}})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	if len(segs) == 0 {
		segs = []*segment{{index: 1, path: s.segPath(1), ids: map[string]bool{}}}
	}

	// Replay in order. An invalid frame in the NEWEST segment is the torn
	// tail a synced append-only log can legitimately suffer: truncate and
	// continue appending there. An invalid frame in an older segment means
	// everything after it is untrustworthy (same policy as the single-log
	// store): truncate that segment, discard all later segments, and make
	// the truncated one the active segment again.
	active := len(segs) - 1
	var activeValid int64
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: store: %w", err)
		}
		valid := s.replay(data, seg.ids)
		if valid < int64(len(data)) || err != nil {
			s.Truncated += int64(len(data)) - valid
			for _, later := range segs[i+1:] {
				if st, serr := os.Stat(later.path); serr == nil {
					s.Truncated += st.Size()
				}
				os.Remove(later.path)
			}
			active, activeValid = i, valid
			break
		}
		if i == active {
			activeValid = valid
		}
	}
	s.sealed = append(s.sealed, segs[:active]...)
	s.cur = segs[active]
	f, err := os.OpenFile(s.cur.path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	if err := f.Truncate(activeValid); err != nil {
		f.Close()
		return fmt.Errorf("server: store: truncate torn tail: %w", err)
	}
	if _, err := f.Seek(activeValid, 0); err != nil {
		f.Close()
		return fmt.Errorf("server: store: %w", err)
	}
	s.wal = f
	s.walSize = activeValid
	return nil
}

// replay applies every fully-written record in data, adds touched ids to
// ids, and returns the byte offset of the last valid frame's end
// (everything past it is torn).
func (s *Store) replay(data []byte, ids map[string]bool) int64 {
	off := 0
	for {
		if len(data)-off < 8 {
			return int64(off)
		}
		n := binary.LittleEndian.Uint32(data[off : off+4])
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > maxRecord || len(data)-off-8 < int(n) {
			return int64(off)
		}
		payload := data[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			return int64(off)
		}
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return int64(off)
		}
		s.apply(rec)
		if ids != nil {
			ids[rec.ID] = true
		}
		s.Replayed++
		off += 8 + int(n)
	}
}

// apply folds one record into the in-memory state (replay rules above).
func (s *Store) apply(rec walRecord) {
	switch rec.Op {
	case "accept":
		if rec.Spec == nil {
			return
		}
		if _, ok := s.jobs[rec.ID]; ok {
			return // idempotent: duplicate accepts collapse
		}
		s.jobs[rec.ID] = &StoredJob{ID: rec.ID, Spec: *rec.Spec, State: StateAccepted}
		s.order = append(s.order, rec.ID)
	case "sweep":
		if rec.Sweep == nil {
			return
		}
		if _, ok := s.sweeps[rec.ID]; ok {
			return
		}
		s.sweeps[rec.ID] = &StoredSweep{ID: rec.ID, Spec: *rec.Sweep}
		s.sweepOrder = append(s.sweepOrder, rec.ID)
	case "done":
		j, ok := s.jobs[rec.ID]
		if !ok {
			return // an unknown id, or a sweep an earlier daemon settled
		}
		if rec.Status == "ok" {
			if s.hasResultFile(rec.ID) {
				j.State = StateDone
			}
			// No artifact: leave pending, the job re-runs deterministically.
		} else {
			j.State, j.FailKind, j.Error = StateFailed, rec.FailKind, rec.Error
		}
	}
}

// Jobs returns every stored job in WAL (acceptance) order.
func (s *Store) Jobs() []*StoredJob {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredJob, 0, len(s.order))
	for _, id := range s.order {
		j := *s.jobs[id]
		out = append(out, &j)
	}
	return out
}

// Sweeps returns every stored sweep in WAL (acceptance) order.
func (s *Store) Sweeps() []*StoredSweep {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*StoredSweep, 0, len(s.sweepOrder))
	for _, id := range s.sweepOrder {
		sw := *s.sweeps[id]
		out = append(out, &sw)
	}
	return out
}

// Segments reports how many WAL segments exist (sealed + active) —
// observability for the rotation path.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.sealed) + 1
}

// CompactedSegments reports how many sealed segments live compaction (and
// checkpoint) removed over this store's lifetime.
func (s *Store) CompactedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Compacted
}

// frame encodes one record as [len][crc][payload].
func frame(rec walRecord) []byte {
	payload := canonicalJSON(rec)
	buf := make([]byte, 8, 8+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[4:8], crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// appendAll frames, writes, and fsyncs a batch of records as one write +
// one sync while holding s.mu, then rotates the active segment if it
// passed the size threshold. Batching is what makes a wide sweep fan-out
// one durability round-trip instead of one per child.
func (s *Store) appendAll(recs []walRecord) error {
	if s.dead || s.wal == nil {
		return ErrStoreDead
	}
	if s.fault != nil {
		if err := s.fault("append"); err != nil {
			return err
		}
	}
	if err := s.at(CrashBeforeAppend); err != nil {
		return err
	}
	var buf []byte
	for _, rec := range recs {
		buf = append(buf, frame(rec)...)
	}
	if _, err := s.wal.Write(buf); err != nil {
		return fmt.Errorf("server: wal append: %w", err)
	}
	if err := s.at(CrashAfterWrite); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		return fmt.Errorf("server: wal sync: %w", err)
	}
	if err := s.at(CrashAfterSync); err != nil {
		return err
	}
	s.walSize += int64(len(buf))
	for _, rec := range recs {
		s.cur.ids[rec.ID] = true
	}
	if s.walSize >= s.segBytes && !s.compacting {
		if err := s.rotateLocked(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) append(rec walRecord) error { return s.appendAll([]walRecord{rec}) }

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	next := &segment{index: s.cur.index + 1, ids: map[string]bool{}}
	next.path = s.segPath(next.index)
	f, err := os.OpenFile(next.path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("server: wal rotate: %w", err)
	}
	if err := syncDir(s.dir); err != nil {
		f.Close()
		return err
	}
	s.wal.Close()
	s.sealed = append(s.sealed, s.cur)
	s.cur, s.wal, s.walSize = next, f, 0
	return nil
}

// summaryLocked returns the records that re-persist id's current state
// and whether that state is terminal. An unknown id has no state to
// preserve: no records, terminal.
func (s *Store) summaryLocked(id string) (recs []walRecord, terminal bool) {
	if j, ok := s.jobs[id]; ok {
		return j.summary()
	}
	if sw, ok := s.sweeps[id]; ok {
		return sw.summary(), true
	}
	return nil, true
}

// summary is a job's state as records: its accept record, plus a done
// record once the state is terminal.
func (j *StoredJob) summary() ([]walRecord, bool) {
	spec := j.Spec
	recs := []walRecord{{Op: "accept", ID: j.ID, Spec: &spec}}
	switch j.State {
	case StateDone:
		return append(recs, walRecord{Op: "done", ID: j.ID, Status: "ok"}), true
	case StateFailed:
		return append(recs, walRecord{Op: "done", ID: j.ID, Status: "failed", FailKind: j.FailKind, Error: j.Error}), true
	}
	return recs, false
}

// summary is a sweep's one record. It is always terminal: a sweep has no
// state beyond its spec, so it never pins a segment.
func (sw *StoredSweep) summary() []walRecord {
	spec := sw.Spec
	return []walRecord{{Op: "sweep", ID: sw.ID, Sweep: &spec}}
}

// maybeCompactLocked removes sealed segments whose every referenced id is
// terminal. Each victim's live state is first re-persisted as summary
// records in the active segment (one fsync per victim), then the sealed
// file is unlinked. Idempotent replay makes every crash window safe:
// summary-without-delete replays duplicates (collapsed), delete-without-
// summary cannot happen (the summary is synced first).
func (s *Store) maybeCompactLocked() error {
	if s.compacting || s.dead {
		return nil
	}
	s.compacting = true
	defer func() { s.compacting = false }()
	for i := 0; i < len(s.sealed); {
		seg := s.sealed[i]
		var summary []walRecord
		settled := true
		ids := make([]string, 0, len(seg.ids))
		for id := range seg.ids {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			recs, term := s.summaryLocked(id)
			if !term {
				settled = false
				break
			}
			summary = append(summary, recs...)
		}
		if !settled {
			i++
			continue
		}
		if len(summary) > 0 {
			if err := s.appendAll(summary); err != nil {
				return err
			}
		}
		if err := s.at(CrashDuringCompact); err != nil {
			return err
		}
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: wal compact: %w", err)
		}
		if err := syncDir(s.dir); err != nil {
			return err
		}
		s.sealed = append(s.sealed[:i], s.sealed[i+1:]...)
		s.Compacted++
	}
	return nil
}

// at consults the crash hook; on injection the store dies in place.
func (s *Store) at(p CrashPoint) error {
	if s.crash == nil {
		return nil
	}
	if err := s.crash(p); err != nil {
		s.dead = true
		return err
	}
	return nil
}

// Accept durably records the job. When Accept returns nil the job is
// guaranteed to survive any crash; the HTTP layer acknowledges only then.
// Accepting an already-stored id is a no-op (idempotent resubmission).
func (s *Store) Accept(id string, spec JobSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	if _, ok := s.jobs[id]; ok {
		return nil
	}
	if err := s.append(walRecord{Op: "accept", ID: id, Spec: &spec}); err != nil {
		return err
	}
	s.jobs[id] = &StoredJob{ID: id, Spec: spec, State: StateAccepted}
	s.order = append(s.order, id)
	return nil
}

// AcceptSweep durably records a sweep and every child job it fans out to
// in ONE batched append (one fsync): when it returns nil the whole fan-out
// survives any crash. Children whose ids already exist are skipped —
// dedupe on content keys is what makes a resumed or overlapping sweep
// free. The sweep record is written last so a torn batch replays as plain
// orphan jobs (harmless, deterministic) rather than a sweep with missing
// children; recovery re-accepts missing children either way.
func (s *Store) AcceptSweep(id string, spec SweepSpec, childIDs []string, childSpecs []JobSpec) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	if _, ok := s.sweeps[id]; ok {
		return nil
	}
	var recs []walRecord
	for i, cid := range childIDs {
		if _, ok := s.jobs[cid]; ok {
			continue
		}
		cs := childSpecs[i]
		recs = append(recs, walRecord{Op: "accept", ID: cid, Spec: &cs})
	}
	recs = append(recs, walRecord{Op: "sweep", ID: id, Sweep: &spec})
	if err := s.appendAll(recs); err != nil {
		return err
	}
	for i, cid := range childIDs {
		if _, ok := s.jobs[cid]; ok {
			continue
		}
		s.jobs[cid] = &StoredJob{ID: cid, Spec: childSpecs[i], State: StateAccepted}
		s.order = append(s.order, cid)
	}
	s.sweeps[id] = &StoredSweep{ID: id, Spec: spec}
	s.sweepOrder = append(s.sweepOrder, id)
	return nil
}

// CompleteOK durably marks the job done. The result artifact must have
// been saved first (SaveResult); the ordering is what makes "done" imply
// "result readable" across any crash. Settlement is also the
// live-compaction trigger: a terminal record is what lets a sealed
// segment become fully settled.
func (s *Store) CompleteOK(id string) error {
	return s.complete(walRecord{Op: "done", ID: id, Status: "ok"})
}

// CompleteFailed durably records a typed failure for a job.
func (s *Store) CompleteFailed(id, failKind, msg string) error {
	return s.complete(walRecord{Op: "done", ID: id, Status: "failed", FailKind: failKind, Error: msg})
}

// complete appends a job's done record and applies it.
func (s *Store) complete(rec walRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[rec.ID]
	if !ok {
		return fmt.Errorf("server: complete: unknown job %s", rec.ID)
	}
	if err := s.append(rec); err != nil {
		return err
	}
	if rec.Status == "ok" {
		j.State = StateDone
	} else {
		j.State, j.FailKind, j.Error = StateFailed, rec.FailKind, rec.Error
	}
	return s.maybeCompactLocked()
}

func (s *Store) resultPath(id string) string {
	return filepath.Join(s.dir, "results", id+".json")
}

func (s *Store) tracePath(id string) string {
	return filepath.Join(s.dir, "results", id+".trace.json")
}

func (s *Store) hasResultFile(id string) bool {
	_, err := os.Stat(s.resultPath(id))
	return err == nil
}

// writeFileAtomic lands data at path via temp file + fsync + rename +
// directory fsync: a crash at any instant leaves either no file or the
// complete file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("server: write %s: %w", filepath.Base(path), err)
	}
	return syncDir(dir)
}

// SaveResult atomically persists the job's result artifact.
func (s *Store) SaveResult(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	if s.fault != nil {
		if err := s.fault("result"); err != nil {
			return err
		}
	}
	if err := writeFileAtomic(s.resultPath(id), data); err != nil {
		return err
	}
	return s.at(CrashAfterResult)
}

// SaveTrace atomically persists the job's Chrome-trace artifact. Traces
// are best-effort observability, not part of the durability contract: a
// job is complete with or without one.
func (s *Store) SaveTrace(id string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	return writeFileAtomic(s.tracePath(id), data)
}

// Result reads the persisted result artifact.
func (s *Store) Result(id string) ([]byte, error) {
	return os.ReadFile(s.resultPath(id))
}

// Trace reads the persisted Chrome-trace artifact.
func (s *Store) Trace(id string) ([]byte, error) {
	return os.ReadFile(s.tracePath(id))
}

// HasResult reports whether the job's result artifact is on disk.
func (s *Store) HasResult(id string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hasResultFile(id)
}

// Checkpoint compacts the whole WAL to one summary per job and sweep in a
// fresh segment, removing every older segment. Atomic: the new segment is
// written tmp+rename before the old ones are deleted, and replay collapses
// any crash-window duplicates. Called on graceful drain so a restart
// replays a minimal queue.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead {
		return ErrStoreDead
	}
	// The new segment records every id it summarizes, so live compaction
	// keeps it while any of them is pending.
	var buf []byte
	ids := map[string]bool{}
	add := func(recs []walRecord) {
		for _, rec := range recs {
			buf = append(buf, frame(rec)...)
			ids[rec.ID] = true
		}
	}
	for _, id := range s.order {
		recs, _ := s.jobs[id].summary()
		add(recs)
	}
	for _, id := range s.sweepOrder {
		add(s.sweeps[id].summary())
	}
	nextIdx := s.cur.index + 1
	nextPath := s.segPath(nextIdx)
	if err := writeFileAtomic(nextPath, buf); err != nil {
		return err
	}
	// The compacted segment is durable; retire everything older.
	old := append(append([]*segment(nil), s.sealed...), s.cur)
	s.wal.Close()
	for _, seg := range old {
		if err := os.Remove(seg.path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: checkpoint: %w", err)
		}
		s.Compacted++
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	f, err := os.OpenFile(nextPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: checkpoint: reopen: %w", err)
	}
	s.sealed = nil
	s.cur = &segment{index: nextIdx, path: nextPath, ids: ids}
	s.wal, s.walSize = f, int64(len(buf))
	return nil
}

// Close releases the WAL handle (no flush needed: every append synced).
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		err := s.wal.Close()
		s.wal = nil
		return err
	}
	return nil
}

// syncDir fsyncs a directory so a just-created/renamed entry is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("server: sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("server: sync dir %s: %w", dir, err)
	}
	return nil
}
