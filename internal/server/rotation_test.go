package server

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// A tiny rewrite floor forces rewrites every few records so the tests
// exercise the machinery that production only reaches after megabytes
// of churn.
const tinySeg = 256

func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

func TestStoreRotationBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: every job settles immediately, so every sealed segment is
	// fully settled and live compaction should keep the chain short no
	// matter how many jobs flow through.
	const jobs = 40
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%03d", i)
		if err := st.Accept(id, testSpec("lbm06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.CompleteOK(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.CompactedSegments(); n == 0 {
		t.Fatal("no sealed segment was ever compacted under settle-everything churn")
	}
	// The summary records themselves are subject to rotation, so the chain
	// stays bounded rather than merely "smaller than one file per job".
	if n := st.Segments(); n > 4 {
		t.Fatalf("segment chain grew to %d, want <= 4 (compaction not keeping up)", n)
	}
	st.Close()

	re, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Jobs()
	if len(got) != jobs {
		t.Fatalf("replayed %d jobs, want %d", len(got), jobs)
	}
	for _, j := range got {
		if j.State != StateDone {
			t.Fatalf("%s: state %s after compacted replay, want done", j.ID, j.State)
		}
	}
}

func TestStoreUnsettledSegmentSurvivesCompaction(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// A job that never settles must survive however many rewrites the
	// later churn triggers: each rewrite carries its accept record.
	if err := st.Accept("pinned", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("churn%03d", i)
		if err := st.Accept(id, testSpec("mcf06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.CompleteOK(id); err != nil {
			t.Fatal(err)
		}
	}
	if st.CompactedSegments() == 0 {
		t.Fatal("settled churn segments were never compacted")
	}
	st.Close()
	re, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, j := range re.Jobs() {
		want := StateDone
		if j.ID == "pinned" {
			want = StateAccepted
		}
		if j.State != want {
			t.Fatalf("%s: state %s, want %s", j.ID, j.State, want)
		}
	}
}

func TestStoreCrashDuringCompactionLosesNothing(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash")
	st.crash = func(p CrashPoint) error {
		if p == CrashDuringCompact {
			return boom
		}
		return nil
	}
	// Drive until a rewrite actually fires; any append can trigger one,
	// Accept included. The crash lands in the worst window: the rewritten
	// segment is durable but the segments it duplicates were NOT deleted.
	// The record whose append triggered the rewrite was synced before the
	// rewrite began, so it must replay too.
	var crashed bool
	want := map[string]string{}
	for i := 0; i < 40 && !crashed; i++ {
		id := fmt.Sprintf("j%03d", i)
		err := st.Accept(id, testSpec("lbm06"))
		want[id] = StateAccepted
		if errors.Is(err, boom) {
			crashed = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		err = st.CompleteOK(id)
		want[id] = StateDone
		if errors.Is(err, boom) {
			crashed = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !crashed {
		t.Fatal("rewrite never triggered with a tiny floor")
	}
	// Dead store, like the process it models.
	if err := st.Accept("late", testSpec("mcf06")); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Accept err = %v, want ErrStoreDead", err)
	}
	st.Close()

	// Replay sees the old segments AND their summary duplicates; idempotent
	// apply collapses them to exactly the pre-crash state.
	re, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := map[string]string{}
	for _, j := range re.Jobs() {
		got[j.ID] = j.State
	}
	for id, state := range want {
		if got[id] != state {
			t.Fatalf("%s: state %q after crash-during-compact replay, want %q", id, got[id], state)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
}

func TestStoreLegacyWALMigrates(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j1", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// Rewind history: a pre-rotation daemon left a single wal.log.
	if err := os.Rename(filepath.Join(dir, "wal-000001.log"),
		filepath.Join(dir, "wal.log")); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if jobs := re.Jobs(); len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("legacy replay got %d jobs", len(jobs))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal.log")); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("legacy wal.log still present after migration")
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000001.log")); err != nil {
		t.Fatalf("migrated segment missing: %v", err)
	}
}

func TestStoreCorruptSealedSegmentDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// The store no longer rotates, so lay down the 3-segment chain an
	// earlier daemon would have left: four accepts per segment.
	for seg := 1; seg <= 3; seg++ {
		var buf []byte
		for i := 0; i < 4; i++ {
			spec := testSpec("lbm06")
			buf = append(buf, frame(walRecord{Op: "accept", ID: fmt.Sprintf("j%03d", 4*(seg-1)+i), Spec: &spec})...)
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", seg)), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	files := walFiles(t, dir)
	if len(files) < 3 {
		t.Fatalf("need >= 3 segments for this test, got %d", len(files))
	}

	// Flip a payload byte in the SECOND segment: everything after the
	// corruption — the rest of that segment and all later segments — is
	// untrustworthy and must be discarded, not replayed around.
	second := filepath.Join(dir, "wal-000002.log")
	data, err := os.ReadFile(second)
	if err != nil {
		t.Fatal(err)
	}
	data[12] ^= 0xFF
	if err := os.WriteFile(second, data, 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Truncated == 0 {
		t.Fatal("Truncated = 0, want the discarded bytes counted")
	}
	// Only segment 1's records (plus none of the corrupt segment's) survive.
	first, err := os.ReadFile(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	probe := &Store{jobs: map[string]*StoredJob{}, sweeps: map[string]*StoredSweep{}}
	probe.replay(first)
	if len(re.Jobs()) != len(probe.jobs) {
		t.Fatalf("replayed %d jobs, want exactly segment 1's %d", len(re.Jobs()), len(probe.jobs))
	}
	for _, p := range walFiles(t, dir) {
		var idx int
		fmt.Sscanf(filepath.Base(p), "wal-%06d.log", &idx)
		if idx > 2 {
			t.Fatalf("segment %s survived a mid-chain corruption before it", p)
		}
	}
	// The repaired store accepts appends and replays them on the next boot.
	if err := re.Accept("fresh", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	found := false
	for _, j := range re2.Jobs() {
		if j.ID == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("append after mid-chain repair lost")
	}
}

// TestStoreCheckpointKeepsPendingJobs: the segment Checkpoint writes must
// record the ids it summarizes. Otherwise, once later appends seal it,
// live compaction sees a segment referencing nothing, deletes it, and
// loses the accept record of a job that is still pending.
func TestStoreCheckpointKeepsPendingJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreSegmented(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("pending", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("j%d", i)
		if err := st.Accept(id, testSpec("mcf06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.CompleteOK(id); err != nil {
			t.Fatal(err)
		}
	}
	if st.CompactedSegments() <= 1 {
		t.Fatal("no segment was compacted after the checkpoint; the test no longer exercises live compaction")
	}
	st.Close()

	re, err := OpenStoreSegmented(dir, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	states := map[string]string{}
	for _, j := range re.Jobs() {
		states[j.ID] = j.State
	}
	if states["pending"] != StateAccepted {
		t.Fatalf("pending job after checkpoint + compaction + reopen: state %q, want %q (jobs %v)",
			states["pending"], StateAccepted, states)
	}
	for i := 0; i < 8; i++ {
		if id := fmt.Sprintf("j%d", i); states[id] != StateDone {
			t.Errorf("%s: state %q, want %q", id, states[id], StateDone)
		}
	}
}

// TestStoreRewriteIsAmortized: settled jobs are kept for good, so the
// log's summary grows with every job. Rewriting it only when the log has
// doubled since the last rewrite keeps the number of rewrites
// logarithmic in the job count and the log within twice its summary.
func TestStoreRewriteIsAmortized(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	const jobs = 1000
	for i := 0; i < jobs; i++ {
		id := fmt.Sprintf("j%04d", i)
		if err := st.Accept(id, testSpec("lbm06")); err != nil {
			t.Fatal(err)
		}
		if err := st.SaveResult(id, []byte(`{}`)); err != nil {
			t.Fatal(err)
		}
		if err := st.CompleteOK(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.CompactedSegments(); n > 20 {
		t.Fatalf("%d segments removed for %d jobs, want <= 20 (rewrites not amortized)", n, jobs)
	}
	var summary int64
	for _, j := range st.Jobs() {
		for _, rec := range j.summary() {
			summary += int64(len(frame(rec)))
		}
	}
	var onDisk int64
	for _, p := range walFiles(t, dir) {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if onDisk > 2*summary+tinySeg {
		t.Fatalf("log holds %d bytes, want <= 2 x %d summary + %d", onDisk, summary, tinySeg)
	}
	st.Close()

	re, err := OpenStoreSegmented(dir, tinySeg)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := re.Jobs()
	if len(got) != jobs {
		t.Fatalf("replayed %d jobs, want %d", len(got), jobs)
	}
	for _, j := range got {
		if j.State != StateDone {
			t.Fatalf("%s: state %s after reopen, want done", j.ID, j.State)
		}
	}
}

// TestStoreEarlierDaemonChainCollapses: a daemon that rotated segments
// left a chain behind, with a still-pending job's accept in the oldest
// segment. The store replays every state from it, and its first rewrite
// (a Checkpoint, or the first append past the floor) collapses the chain
// to one segment that replays to the same states.
func TestStoreEarlierDaemonChainCollapses(t *testing.T) {
	for _, name := range []string{"checkpoint", "rewrite"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ok, failed := testSpec("lbm06"), testSpec("mcf06")
			chain := [][]walRecord{
				{{Op: "accept", ID: "pending", Spec: &ok}, {Op: "accept", ID: "a", Spec: &ok}},
				{{Op: "done", ID: "a", Status: "ok"}, {Op: "accept", ID: "b", Spec: &failed}},
				{{Op: "done", ID: "b", Status: "failed", FailKind: FailKindSim, Error: "boom"}},
			}
			for i, recs := range chain {
				var buf []byte
				for _, rec := range recs {
					buf = append(buf, frame(rec)...)
				}
				if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", i+1)), buf, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "results", "a.json"), []byte(`{}`), 0o644); err != nil {
				t.Fatal(err)
			}
			want := map[string]string{"pending": StateAccepted, "a": StateDone, "b": StateFailed}
			check := func(st *Store) {
				t.Helper()
				got := map[string]string{}
				for _, j := range st.Jobs() {
					got[j.ID] = j.State
				}
				if len(got) != len(want) {
					t.Fatalf("replayed %v, want %v", got, want)
				}
				for id, state := range want {
					if got[id] != state {
						t.Fatalf("%s: state %q, want %q", id, got[id], state)
					}
				}
			}

			st, err := OpenStoreSegmented(dir, tinySeg)
			if err != nil {
				t.Fatal(err)
			}
			check(st)
			if n := st.Segments(); n != 3 {
				t.Fatalf("Segments() = %d after opening a 3-segment chain", n)
			}
			if name == "checkpoint" {
				err = st.Checkpoint()
			} else {
				// The chain already passes the tiny floor: the next append
				// rewrites it.
				err = st.Accept("c", ok)
				want["c"] = StateAccepted
			}
			if err != nil {
				t.Fatal(err)
			}
			if files := walFiles(t, dir); len(files) != 1 {
				t.Fatalf("%d segments after the first rewrite, want 1: %v", len(files), files)
			}
			if n := st.CompactedSegments(); n != 3 {
				t.Fatalf("CompactedSegments() = %d, want the chain's 3", n)
			}
			check(st)
			st.Close()

			re, err := OpenStoreSegmented(dir, tinySeg)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re)
		})
	}
}
