package server

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
)

// The on-disk job store is one write-ahead log plus an atomic result
// directory:
//
//	<dir>/wal.log                  length+CRC framed, fsync'd appends
//	<dir>/results/<key>.json       whole-file job results, written tmp+rename+fsync
//	<dir>/results/<key>.trace.json per-job Chrome-trace artifacts (best effort)
//
// Each WAL record is [len uint32][crc32 uint32][payload JSON], little
// endian. Appends are fsync'd before the caller is told the operation
// succeeded — Accept returning nil IS the daemon's 202, so a kill -9 at
// any later instant cannot lose the job. Because the log is append-only,
// a torn write can exist only at its tail: replay stops at the first
// frame whose length or checksum does not hold, and the store is exactly
// the prefix of operations that were fully written. Results are never
// written in place; a result file either does not exist or is complete.
//
// Rewrite: when wal.log reaches twice the bytes the last rewrite wrote,
// the store writes every job's and sweep's summary records (a job's
// accept, plus its done once terminal; a sweep's sweep record) to a temp
// file, renames it over wal.log (writeFileAtomic) and appends to the new
// file. No crash can leave two logs. A rewrite writes at most twice the
// bytes appended since the previous one, so the bytes rewritten stay
// within 2x the bytes appended. After an open that rewrote nothing the
// last rewrite counts as 0 bytes, so a boot's first append collapses
// whatever the boot replayed.
// Done and failed jobs are kept for good (resubmissions dedupe against
// them), so the log holds O(jobs ever accepted) summary bytes, not O(live
// jobs). A failed rewrite fails no append: the batch that triggered it is
// already durable, and the next append retries. Checkpoint (graceful
// drain) is the same rewrite without the size check.
//
// Open folds the log files' bytes (fold), stopping at the first frame
// that does not hold: first any wal-NNNNNN.log segments that a daemon
// which rotated its log left, oldest first, then wal.log. If the fold
// stopped early or read a segment, open rewrites wal.log from the state
// it kept and deletes the segments, newest first. A segment it cannot
// delete fails the open: a later boot would fold it ahead of wal.log, and
// a torn frame in it would discard every append in wal.log. Replay is
// idempotent: a duplicate accept keeps the first spec, a duplicate done
// re-applies the same terminal state, so a crash between that rewrite and
// the deletes, which leaves the summary behind a prefix of the chain,
// replays to the same state.
//
// Crash-recovery state machine (replayed in log order):
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
// A rewrite that cannot reopen wal.log kills the store the same way.
var ErrStoreDead = errors.New("server: job store is dead")

// CrashPoint names the instants the chaos harness may kill the store at.
type CrashPoint string

const (
	CrashBeforeAppend  CrashPoint = "before-append"  // record never written
	CrashAfterWrite    CrashPoint = "after-write"    // written, not synced: tail may tear
	CrashAfterSync     CrashPoint = "after-sync"     // durable, caller never told
	CrashAfterResult   CrashPoint = "after-result"   // result durable, done record absent
	CrashDuringCompact CrashPoint = "during-compact" // rewritten wal.log renamed in, store still on the old file
)

// maxRecord bounds one WAL payload; anything larger during replay is
// treated as a torn/corrupt tail.
const maxRecord = 1 << 20

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

// Store is the durable job store. All methods are safe for concurrent
// use; every mutation is fsync'd before it reports success.
type Store struct {
	dir string

	mu         sync.Mutex
	wal        *os.File // wal.log, opened for appends
	logBytes   int64    // bytes in wal.log
	rewritten  int64    // bytes the last rewrite wrote
	compacted  int      // log files rewrites replaced or open deleted
	jobs       map[string]*StoredJob
	order      []string
	sweeps     map[string]*StoredSweep
	sweepOrder []string
	dead       bool

	// Truncated reports how many torn/untrustworthy tail bytes replay
	// discarded — observability for the recovery path, asserted on by the
	// chaos tests.
	Truncated int64
	// Replayed counts the records recovered from the existing WAL.
	Replayed int

	// crash is the chaos hook (nil in production): consulted at each
	// CrashPoint; a non-nil return kills the store there.
	crash func(CrashPoint) error
	// fault is the transient-failure hook (nil in production): a non-nil
	// return fails the operation without killing the store — the disk
	// hiccup the in-process settlement retry path recovers from.
	fault func(op string) error
}

// newStore returns an empty store over dir, holding no file.
func newStore(dir string) *Store {
	return &Store{dir: dir, jobs: make(map[string]*StoredJob), sweeps: make(map[string]*StoredSweep)}
}

// OpenStore opens (creating if needed) the job store in dir and replays
// its log; a torn tail or an earlier daemon's segments are rewritten into
// one wal.log.
func OpenStore(dir string) (*Store, error) {
	s := newStore(dir)
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// open folds the log files into s and opens wal.log for appends. After a
// repair rewrite it deletes the segments newest first, so a crash between
// deletes leaves the summary behind a prefix of the chain: a prefix the
// fold kept whole replays into the summary's duplicates, and one holding
// the frame the fold stopped at stops there again.
func (s *Store) open() error {
	if err := os.MkdirAll(filepath.Join(s.dir, "results"), 0o755); err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	segs, err := legacySegments(s.dir)
	if err != nil {
		return err
	}
	files := make([][]byte, 0, len(segs)+1)
	for _, p := range append(segs, s.walPath()) {
		data, err := os.ReadFile(p)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: store: %w", err)
		}
		files = append(files, data)
	}
	s.logBytes = s.fold(files)
	if s.wal, err = os.OpenFile(s.walPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	if s.Truncated > 0 || len(segs) > 0 {
		err = s.rewriteLocked()
		for i := len(segs) - 1; i >= 0 && err == nil; i-- {
			if err = s.removeSegment(segs[i]); err == nil {
				s.compacted++
			}
		}
	}
	if err == nil {
		err = syncDir(s.dir)
	}
	if err != nil {
		s.wal.Close()
	}
	return err
}

// removeSegment deletes one legacy segment and syncs the directory, so
// the delete is durable before open deletes the next, older one.
func (s *Store) removeSegment(p string) error {
	if s.fault != nil {
		if err := s.fault("remove"); err != nil {
			return err
		}
	}
	if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("server: store: remove %s: %w", filepath.Base(p), err)
	}
	return syncDir(s.dir)
}

func (s *Store) walPath() string { return filepath.Join(s.dir, "wal.log") }

// legacySegments lists the wal-NNNNNN.log segments a daemon that rotated
// its log left in dir, oldest first (ReadDir sorts by name, and the
// indices are zero-padded). Other names are not ours.
func legacySegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("server: store: %w", err)
	}
	var segs []string
	for _, e := range entries {
		var idx int
		if _, err := fmt.Sscanf(e.Name(), "wal-%d.log", &idx); err == nil && e.Name() == fmt.Sprintf("wal-%06d.log", idx) {
			segs = append(segs, filepath.Join(dir, e.Name()))
		}
	}
	return segs, nil
}

// fold replays files in order up to the first frame that does not hold
// and returns the bytes it kept: every file before that frame whole, then
// that file's prefix. The rest of the input counts as Truncated. fold
// touches no file except the result artifacts apply checks for.
func (s *Store) fold(files [][]byte) int64 {
	var kept, total int64
	for _, data := range files {
		if kept == total {
			kept += s.replay(data)
		}
		total += int64(len(data))
	}
	s.Truncated += total - kept
	return kept
}

// replay applies every fully-written record in data and returns the byte
// offset of the last valid frame's end (everything past it is torn).
func (s *Store) replay(data []byte) int64 {
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
		s.Replayed++
		off += 8 + int(n)
	}
}

// apply folds one record into the in-memory state (replay rules above).
// Replay and every successful append both fold through it, so live state
// and replayed state cannot disagree.
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

// Segments reports how many WAL files the store keeps on disk: always 1,
// since open fails unless it deleted every legacy segment beside wal.log.
func (s *Store) Segments() int { return 1 }

// CompactedSegments reports how many log files rewrites replaced or open
// deleted over this store's lifetime.
func (s *Store) CompactedSegments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compacted
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
// one sync while holding s.mu, folds them into the in-memory state, then
// rewrites the log if it reached the trigger size. Batching is what makes
// a wide sweep fan-out one durability round-trip instead of one per
// child. The rewrite runs after apply so it summarizes the batch that
// triggered it, and its failure is not the batch's: only a store the
// rewrite killed reports an error.
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
	s.logBytes += int64(len(buf))
	for _, rec := range recs {
		s.apply(rec)
	}
	if s.logBytes >= 2*s.rewritten {
		if err := s.rewriteLocked(); s.dead {
			return err
		}
	}
	return nil
}

func (s *Store) append(rec walRecord) error { return s.appendAll([]walRecord{rec}) }

// summary is a job's state as records: its accept record, plus a done
// record once the state is terminal.
func (j *StoredJob) summary() []walRecord {
	spec := j.Spec
	recs := []walRecord{{Op: "accept", ID: j.ID, Spec: &spec}}
	switch j.State {
	case StateDone:
		return append(recs, walRecord{Op: "done", ID: j.ID, Status: "ok"})
	case StateFailed:
		return append(recs, walRecord{Op: "done", ID: j.ID, Status: "failed", FailKind: j.FailKind, Error: j.Error})
	}
	return recs
}

// summary is a sweep's one record: a sweep has no state beyond its spec.
func (sw *StoredSweep) summary() walRecord {
	spec := sw.Spec
	return walRecord{Op: "sweep", ID: sw.ID, Sweep: &spec}
}

// summaryLocked frames every job's and sweep's summary records, in
// acceptance order: the bytes a rewrite leaves in wal.log.
func (s *Store) summaryLocked() []byte {
	var buf []byte
	for _, id := range s.order {
		for _, rec := range s.jobs[id].summary() {
			buf = append(buf, frame(rec)...)
		}
	}
	for _, id := range s.sweepOrder {
		buf = append(buf, frame(s.sweeps[id].summary())...)
	}
	return buf
}

// rewriteLocked renames the summary over wal.log through writeFileAtomic
// and appends to the new file from here on. Whether or not the rename
// landed, wal.log holds every applied record, so a failed rewrite reopens
// it too: no later append may land in an unlinked inode. A store that
// cannot reopen wal.log dies. After a failure logBytes keeps its old
// count, so the next append retries.
func (s *Store) rewriteLocked() error {
	buf := s.summaryLocked()
	err := writeFileAtomic(s.walPath(), buf)
	if err == nil {
		if err := s.at(CrashDuringCompact); err != nil {
			return err
		}
		if s.fault != nil {
			err = s.fault("rewrite")
		}
	}
	f, oerr := os.OpenFile(s.walPath(), os.O_WRONLY|os.O_APPEND, 0o644)
	if oerr != nil {
		s.dead = true
		return errors.Join(err, fmt.Errorf("server: wal rewrite: %w", oerr))
	}
	s.wal.Close()
	s.wal = f
	if err != nil {
		return err
	}
	s.logBytes, s.rewritten = int64(len(buf)), int64(len(buf))
	s.compacted++
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
	return s.append(walRecord{Op: "accept", ID: id, Spec: &spec})
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
	return s.appendAll(recs)
}

// CompleteOK durably marks the job done. The result artifact must have
// been saved first (SaveResult); the ordering is what makes "done" imply
// "result readable" across any crash.
func (s *Store) CompleteOK(id string) error {
	return s.complete(walRecord{Op: "done", ID: id, Status: "ok"})
}

// CompleteFailed durably records a typed failure for a job.
func (s *Store) CompleteFailed(id, failKind, msg string) error {
	return s.complete(walRecord{Op: "done", ID: id, Status: "failed", FailKind: failKind, Error: msg})
}

// complete appends a job's done record.
func (s *Store) complete(rec walRecord) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.jobs[rec.ID]; !ok {
		return fmt.Errorf("server: complete: unknown job %s", rec.ID)
	}
	return s.append(rec)
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

// Checkpoint rewrites the log now, whatever its size, so a restart
// replays one summary per job and sweep. Called on graceful drain.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dead || s.wal == nil {
		return ErrStoreDead
	}
	return s.rewriteLocked()
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
