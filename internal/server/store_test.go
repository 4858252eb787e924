package server

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ptmc/internal/sim"
)

func testSpec(workload string) JobSpec {
	s := JobSpec{Spec: sim.Spec{Workload: workload, Cores: 2, Warmup: 1000, Measure: 2000, Seed: 1},
		Schemes: []string{"uncompressed"}, Tenant: "t"}
	return s
}

func TestStoreAcceptSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec("lbm06")
	if err := st.Accept("j1", spec); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j1", spec); err != nil {
		t.Fatal("re-accept must be idempotent:", err)
	}
	if err := st.CompleteFailed("j1", FailKindTimeout, "too slow"); err != nil {
		t.Fatal(err)
	}
	if err := st.Accept("j2", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Jobs()
	if len(jobs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(jobs))
	}
	if jobs[0].ID != "j1" || jobs[0].State != StateFailed ||
		jobs[0].FailKind != FailKindTimeout || jobs[0].Error != "too slow" {
		t.Fatalf("j1 replayed wrong: %+v", jobs[0])
	}
	if jobs[1].ID != "j2" || jobs[1].State != StateAccepted {
		t.Fatalf("j2 replayed wrong: %+v", jobs[1])
	}
	if jobs[1].Spec.Workload != "mcf06" {
		t.Fatalf("spec lost: %+v", jobs[1].Spec)
	}
}

func TestStoreDoneRequiresArtifact(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	if err := st.Accept("j1", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveResult("j1", []byte(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := st.CompleteOK("j1"); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// Sabotage: delete the artifact under the done record. Replay must
	// degrade the job to pending (re-run) instead of serving a ghost.
	os.Remove(filepath.Join(dir, "results", "j1.json"))
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Jobs()[0].State; got != StateAccepted {
		t.Fatalf("state = %s, want accepted (artifact missing)", got)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	st.Accept("j1", testSpec("lbm06"))
	st.Accept("j2", testSpec("mcf06"))
	st.Close()

	wal := filepath.Join(dir, "wal.log")
	data, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the tail: keep the first record whole, chop the second mid-way.
	if err := os.WriteFile(wal, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Jobs()
	if len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("after torn tail: %d jobs, want only j1", len(jobs))
	}
	// The whole torn record is discarded, not just the missing bytes.
	if re.Truncated == 0 {
		t.Fatal("Truncated = 0, want the torn record's remaining bytes")
	}
	// Open repaired the tail by rewriting wal.log: a reopen truncates
	// nothing.
	re.Close()
	re, err = OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Truncated != 0 || len(re.Jobs()) != 1 {
		t.Fatalf("reopen after repair: Truncated %d, %d jobs, want 0 and 1", re.Truncated, len(re.Jobs()))
	}
	// The repaired log must accept new appends cleanly.
	if err := re.Accept("j3", testSpec("lbm06")); err != nil {
		t.Fatal(err)
	}
	re.Close()
	re2, _ := OpenStore(dir)
	defer re2.Close()
	if n := len(re2.Jobs()); n != 2 {
		t.Fatalf("after repair+append: %d jobs, want 2", n)
	}
	onlyWALLog(t, dir)
}

func TestStoreCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	st.Accept("j1", testSpec("lbm06"))
	end1, _ := os.Stat(filepath.Join(dir, "wal.log"))
	st.Accept("j2", testSpec("mcf06"))
	st.Close()

	// Flip one payload byte inside the second record: its CRC fails, and
	// replay keeps only the prefix (a mid-log corruption means everything
	// after it is untrustworthy).
	wal := filepath.Join(dir, "wal.log")
	data, _ := os.ReadFile(wal)
	data[end1.Size()+20] ^= 0xFF
	os.WriteFile(wal, data, 0o644)

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if jobs := re.Jobs(); len(jobs) != 1 || jobs[0].ID != "j1" {
		t.Fatalf("after corrupt record: got %d jobs", len(jobs))
	}
}

func TestStoreCheckpointCompacts(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	st.Accept("j1", testSpec("lbm06"))
	st.SaveResult("j1", []byte(`{}`))
	st.CompleteOK("j1")
	st.Accept("j2", testSpec("mcf06"))
	st.CompleteFailed("j2", FailKindSim, "boom")
	st.Accept("j3", testSpec("lbm06"))
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint appends must land in the compacted log.
	if err := st.Accept("j4", testSpec("mcf06")); err != nil {
		t.Fatal(err)
	}
	st.Close()

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	jobs := re.Jobs()
	if len(jobs) != 4 {
		t.Fatalf("replayed %d jobs, want 4", len(jobs))
	}
	want := map[string]string{"j1": StateDone, "j2": StateFailed,
		"j3": StateAccepted, "j4": StateAccepted}
	for _, j := range jobs {
		if j.State != want[j.ID] {
			t.Errorf("%s: state %s, want %s", j.ID, j.State, want[j.ID])
		}
	}
}

func TestStoreInjectedCrashKillsStore(t *testing.T) {
	dir := t.TempDir()
	st, _ := OpenStore(dir)
	boom := errors.New("crash")
	st.crash = func(p CrashPoint) error {
		if p == CrashAfterWrite {
			return boom
		}
		return nil
	}
	if err := st.Accept("j1", testSpec("lbm06")); !errors.Is(err, boom) {
		t.Fatalf("Accept err = %v, want injected crash", err)
	}
	// Dead store: everything fails, nothing mutates disk.
	if err := st.Accept("j2", testSpec("mcf06")); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Accept err = %v, want ErrStoreDead", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, ErrStoreDead) {
		t.Fatalf("post-crash Checkpoint err = %v, want ErrStoreDead", err)
	}
}

// TestStoreFailedRewriteSwitchesFile: a rewrite that fails after renaming
// the new wal.log in leaves the old file unlinked. The append that
// triggered it still succeeds, and the next append must land in the new
// wal.log: killing the store once that append is durable, before any
// later rewrite, loses neither record.
func TestStoreFailedRewriteSwitchesFile(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st.fault = func(op string) error {
		if op == "rewrite" {
			return errors.New("rewrite hiccup")
		}
		return nil
	}
	if err := st.Accept("j1", testSpec("lbm06")); err != nil {
		t.Fatalf("Accept = %v, want nil: the record is durable whatever the rewrite did", err)
	}
	boom := errors.New("crash")
	st.crash = func(p CrashPoint) error {
		if p == CrashAfterSync {
			return boom
		}
		return nil
	}
	if err := st.Accept("j2", testSpec("mcf06")); !errors.Is(err, boom) {
		t.Fatalf("Accept = %v, want the injected crash", err)
	}
	st.Close()

	re, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if jobs := re.Jobs(); len(jobs) != 2 || jobs[0].ID != "j1" || jobs[1].ID != "j2" {
		t.Fatalf("reopen replayed %d jobs, want j1 and j2", len(jobs))
	}
}
