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
// Rewrite: appends go to one segment. When the log on disk (that segment
// plus any older ones still present) reaches max(SegmentBytes, 2 x the
// bytes the last rewrite wrote), the store writes every job's and
// sweep's summary records (a job's accept, plus its done once terminal;
// a sweep's sweep record) into the next segment through writeFileAtomic,
// deletes every older segment, and appends to the new one. A rewrite
// writes at most twice the bytes appended since the previous one, so the
// bytes rewritten stay within 2x the bytes appended. Done and failed
// jobs are kept for good (resubmissions dedupe against them), so the log
// holds O(jobs ever accepted) summary bytes, not O(live jobs). Replay is
// idempotent: a duplicate accept keeps the first spec, a duplicate done
// re-applies the same terminal state. A crash after the new segment is
// durable but before the deletes replays the old chain and then its
// summary, which is the same state. Checkpoint (graceful drain) is the
// same rewrite without the size check.
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
	CrashDuringCompact CrashPoint = "during-compact" // rewritten segment durable, older ones not yet deleted
)

// maxRecord bounds one WAL payload; anything larger during replay is
// treated as a torn/corrupt tail.
const maxRecord = 1 << 20

// DefaultSegmentBytes is the log size below which the store never
// rewrites, when the caller does not choose one.
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

// Store is the durable job store. All methods are safe for concurrent
// use; every mutation is fsync'd before it reports success.
type Store struct {
	dir      string
	segBytes int64

	mu         sync.Mutex
	wal        *os.File // the segment appends go to
	walIndex   int      // its index
	older      []string // older segments still on disk, oldest first
	logBytes   int64    // bytes in every segment on disk
	rewritten  int64    // bytes the last rewrite wrote
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
	// Compacted counts segment files that rewrites removed over this
	// store's lifetime.
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

// OpenStoreSegmented opens the store with an explicit rewrite floor: a
// log smaller than segBytes is never rewritten (tests use tiny values to
// force rewrites).
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
	type segment struct {
		index int
		path  string
	}
	var segs []segment
	for _, p := range paths {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &idx); err != nil {
			continue // not ours
		}
		segs = append(segs, segment{idx, p})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].index < segs[j].index })
	if len(segs) == 0 {
		segs = []segment{{1, s.segPath(1)}}
	}

	// Replay in order. An invalid frame in the NEWEST segment is the torn
	// tail a synced append-only log can legitimately suffer: truncate and
	// continue appending there. An invalid frame in an older segment means
	// everything after it is untrustworthy (same policy as the single-log
	// store): truncate that segment, discard all later segments, and make
	// the truncated one the active segment again. Older segments exist
	// when an earlier daemon rotated, or a rewrite crashed before its
	// deletes; the next rewrite removes them.
	active := len(segs) - 1
	var activeValid int64
	for i, seg := range segs {
		data, err := os.ReadFile(seg.path)
		if err != nil && !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("server: store: %w", err)
		}
		valid := s.replay(data)
		s.logBytes += valid
		activeValid = valid
		if valid < int64(len(data)) || err != nil {
			s.Truncated += int64(len(data)) - valid
			for _, later := range segs[i+1:] {
				if st, serr := os.Stat(later.path); serr == nil {
					s.Truncated += st.Size()
				}
				os.Remove(later.path)
			}
			active = i
			break
		}
	}
	for _, seg := range segs[:active] {
		s.older = append(s.older, seg.path)
	}
	f, err := os.OpenFile(segs[active].path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: store: %w", err)
	}
	if err := f.Truncate(activeValid); err != nil {
		f.Close()
		return fmt.Errorf("server: store: truncate torn tail: %w", err)
	}
	s.wal, s.walIndex = f, segs[active].index
	return nil
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

// Segments reports how many WAL segments are on disk: the one appends go
// to plus any older ones the next rewrite removes.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.older) + 1
}

// CompactedSegments reports how many segment files rewrites removed over
// this store's lifetime.
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
// one sync while holding s.mu, folds them into the in-memory state, then
// rewrites the log if it reached the trigger size. Batching is what makes
// a wide sweep fan-out one durability round-trip instead of one per
// child. The rewrite runs after apply so it summarizes the batch that
// triggered it.
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
	if s.logBytes >= max(s.segBytes, 2*s.rewritten) {
		return s.rewriteLocked()
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

// rewriteLocked writes every job's and sweep's summary records, in
// acceptance order, into the next segment through writeFileAtomic, then
// deletes every older segment and appends to the new one from here on.
// A crash between the durable new segment and the deletes replays the
// old chain and then its duplicate summary: the same state. A segment
// that cannot be deleted stays on disk for the next rewrite.
func (s *Store) rewriteLocked() error {
	var buf []byte
	for _, id := range s.order {
		for _, rec := range s.jobs[id].summary() {
			buf = append(buf, frame(rec)...)
		}
	}
	for _, id := range s.sweepOrder {
		buf = append(buf, frame(s.sweeps[id].summary())...)
	}
	next := s.walIndex + 1
	path := s.segPath(next)
	if err := writeFileAtomic(path, buf); err != nil {
		return err
	}
	if err := s.at(CrashDuringCompact); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("server: wal rewrite: %w", err)
	}
	s.wal.Close()
	old := append(s.older, s.segPath(s.walIndex))
	s.wal, s.walIndex, s.older = f, next, nil
	s.logBytes, s.rewritten = int64(len(buf)), int64(len(buf))
	for _, p := range old {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			s.older = append(s.older, p)
			continue
		}
		s.Compacted++
	}
	return syncDir(s.dir)
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
