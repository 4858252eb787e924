package server

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// walFiles lists every WAL file in dir: wal.log and any wal-NNNNNN.log
// segment a daemon that rotated its log left.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return paths
}

// onlyWALLog fails unless wal.log is the only WAL file in dir.
func onlyWALLog(t *testing.T, dir string) {
	t.Helper()
	if files := walFiles(t, dir); len(files) != 1 || filepath.Base(files[0]) != "wal.log" {
		t.Fatalf("WAL files %v, want wal.log alone", files)
	}
}

func TestStoreRotationBoundsSegments(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Churn: every job settles immediately; rewrites keep the log one file
	// no matter how many jobs flow through.
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
		t.Fatal("the log was never rewritten under settle-everything churn")
	}
	if n := st.Segments(); n != 1 {
		t.Fatalf("Segments() = %d, want 1", n)
	}
	onlyWALLog(t, dir)
	st.Close()

	re, err := OpenStore(dir)
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
	st, err := OpenStore(dir)
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
		t.Fatal("settled churn was never rewritten")
	}
	st.Close()
	re, err := OpenStore(dir)
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
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("crash")
	rewrites := 0
	st.crash = func(p CrashPoint) error {
		if p == CrashDuringCompact {
			if rewrites++; rewrites == 4 {
				return boom
			}
		}
		return nil
	}
	// Drive until the fourth rewrite fires; any append can trigger one,
	// Accept included. The crash lands after the rename: the new wal.log
	// is durable, and the store still holds the file it replaced. The
	// record whose append triggered the rewrite was synced before the
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
		t.Fatal("the fourth rewrite never triggered")
	}
	// Dead store, like the process it models.
	if err := st.Accept("late", testSpec("mcf06")); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Accept err = %v, want ErrStoreDead", err)
	}
	st.Close()

	// Replay sees the rewritten log: exactly the pre-crash state.
	re, err := OpenStore(dir)
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
	// A pre-rotation daemon left a single wal.log, which is again the
	// native name: open reads it in place and rewrites nothing.
	spec := testSpec("lbm06")
	legacy := frame(walRecord{Op: "accept", ID: "j1", Spec: &spec})
	path := filepath.Join(dir, "wal.log")
	if err := os.WriteFile(path, legacy, 0o644); err != nil {
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
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, legacy) {
		t.Fatalf("wal.log changed by a clean open (%v)", err)
	}
	onlyWALLog(t, dir)
}

func TestStoreCorruptSealedSegmentDiscardsLaterSegments(t *testing.T) {
	dir := t.TempDir()
	// Lay down the 3-segment chain a daemon that rotated its log would
	// have left: four accepts per segment.
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
	first, err := os.ReadFile(filepath.Join(dir, "wal-000001.log"))
	if err != nil {
		t.Fatal(err)
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

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// The three segments are the same size.
	if want := int64(2 * len(data)); re.Truncated != want {
		t.Fatalf("Truncated = %d, want segments 2 and 3's %d bytes", re.Truncated, want)
	}
	// Only segment 1's records (plus none of the corrupt segment's) survive.
	probe := newStore(dir)
	probe.replay(first)
	if !reflect.DeepEqual(re.Jobs(), probe.Jobs()) {
		t.Fatalf("replayed %d jobs, want exactly segment 1's %d", len(re.Jobs()), len(probe.jobs))
	}
	// Open rewrote the kept state into wal.log and deleted every segment.
	onlyWALLog(t, dir)
	if n := re.CompactedSegments(); n != 4 {
		t.Fatalf("CompactedSegments() = %d, want the rewrite and 3 segments", n)
	}
	re.Close()

	// The repaired directory reopens without truncating anything, to the
	// same state, and accepts appends that the next boot replays.
	re2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if re2.Truncated != 0 || !reflect.DeepEqual(re2.Jobs(), probe.Jobs()) {
		t.Fatalf("reopen truncated %d bytes, jobs %d, want 0 and %d", re2.Truncated, len(re2.Jobs()), len(probe.jobs))
	}
	if err := re2.Accept("fresh", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	re2.Close()
	re3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re3.Close()
	found := false
	for _, j := range re3.Jobs() {
		if j.ID == "fresh" {
			found = true
		}
	}
	if !found {
		t.Fatal("append after mid-chain repair lost")
	}
}

// TestStoreCheckpointKeepsPendingJobs: every rewrite after a Checkpoint
// must carry the accept record of a job that is still pending, or the
// job is lost.
func TestStoreCheckpointKeepsPendingJobs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
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
		t.Fatal("the log was not rewritten after the checkpoint; the test no longer exercises rewrites")
	}
	st.Close()

	re, err := OpenStore(dir)
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
	st, err := OpenStore(dir)
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
		t.Fatalf("%d rewrites for %d jobs, want <= 20 (rewrites not amortized)", n, jobs)
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
	if onDisk > 2*summary {
		t.Fatalf("log holds %d bytes, want <= 2 x %d summary", onDisk, summary)
	}
	st.Close()

	re, err := OpenStore(dir)
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
// segment. Open replays every state from it and collapses the chain into
// wal.log, which replays to the same states after the store's next
// rewrite (a Checkpoint, or the append that doubles the log).
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

			st, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			check(st)
			onlyWALLog(t, dir)
			if n := st.CompactedSegments(); n != 4 {
				t.Fatalf("CompactedSegments() = %d after open, want the rewrite and the chain's 3", n)
			}
			if name == "checkpoint" {
				if err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			} else {
				// Open's rewrite is the last rewrite: appends rewrite the
				// log only once it holds twice the summary open wrote.
				for i := 0; st.CompactedSegments() == 4; i++ {
					if i == 10 {
						t.Fatal("10 appends after open did not rewrite the log")
					}
					id := fmt.Sprintf("c%d", i)
					if err := st.Accept(id, ok); err != nil {
						t.Fatal(err)
					}
					want[id] = StateAccepted
					if i == 0 && st.CompactedSegments() != 4 {
						t.Fatal("the first append after open's rewrite rewrote the log again")
					}
				}
			}
			onlyWALLog(t, dir)
			if n := st.CompactedSegments(); n != 5 {
				t.Fatalf("CompactedSegments() = %d, want one more rewrite than open's 4", n)
			}
			check(st)
			st.Close()

			re, err := OpenStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			check(re)
		})
	}
}

// TestStoreCrashBetweenSegmentDeletesLosesNothing: open collapses an
// earlier daemon's chain by renaming the summary over wal.log and then
// deleting the segments. A crash after any of those deletes must reopen
// to the state the first open kept, whether the chain ends in a torn
// tail or holds a corrupt frame mid-chain. Jobs accepted in the oldest
// segment settle in later ones, so a boot that folded a later segment
// without the oldest would drop those done records as unknown ids.
func TestStoreCrashBetweenSegmentDeletesLosesNothing(t *testing.T) {
	ok := testSpec("lbm06")
	chain := [][]walRecord{
		{{Op: "accept", ID: "a", Spec: &ok}, {Op: "accept", ID: "b", Spec: &ok}},
		{{Op: "done", ID: "a", Status: "ok"}, {Op: "accept", ID: "c", Spec: &ok}},
		{{Op: "done", ID: "b", Status: "failed", FailKind: FailKindSim, Error: "boom"}, {Op: "accept", ID: "d", Spec: &ok}},
	}
	for _, tc := range []struct {
		name   string
		damage func(segs [][]byte)
		want   map[string]string
	}{
		{"torn-tail", func(segs [][]byte) { segs[2] = segs[2][:len(segs[2])-3] },
			map[string]string{"a": StateDone, "b": StateFailed, "c": StateAccepted}},
		{"corrupt-middle", func(segs [][]byte) { segs[1][12] ^= 0xFF },
			map[string]string{"a": StateAccepted, "b": StateAccepted}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for crashAfter := 0; crashAfter < len(chain); crashAfter++ {
				dir := t.TempDir()
				segs := make([][]byte, len(chain))
				for i, recs := range chain {
					for _, rec := range recs {
						segs[i] = append(segs[i], frame(rec)...)
					}
				}
				tc.damage(segs)
				for i, data := range segs {
					if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", i+1)), data, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, "results", "a.json"), []byte(`{}`), 0o644); err != nil {
					t.Fatal(err)
				}

				// The process dies after crashAfter deletes.
				crash := errors.New("crash")
				st, deletes := newStore(dir), 0
				st.fault = func(op string) error {
					if op == "remove" {
						if deletes == crashAfter {
							return crash
						}
						deletes++
					}
					return nil
				}
				if err := st.open(); !errors.Is(err, crash) {
					t.Fatalf("crash after %d deletes: open returned %v", crashAfter, err)
				}
				if n := len(walFiles(t, dir)); n != 1+len(chain)-crashAfter {
					t.Fatalf("crash after %d deletes left %d WAL files", crashAfter, n)
				}

				re, err := OpenStore(dir)
				if err != nil {
					t.Fatal(err)
				}
				got := map[string]string{}
				for _, j := range re.Jobs() {
					got[j.ID] = j.State
				}
				re.Close()
				if !reflect.DeepEqual(got, tc.want) {
					t.Fatalf("crash after %d deletes: reopen got %v, want %v", crashAfter, got, tc.want)
				}
				onlyWALLog(t, dir)
			}
		})
	}
}
