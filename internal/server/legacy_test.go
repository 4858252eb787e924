package server

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ptmc/internal/sim"
)

// TestKeysStableAcrossEngineKnobRemoval pins job, scheme and sweep ids
// computed before the shards/event_driven spec fields were removed. A spec
// that never set them must keep its id, or every resubmitted experiment
// would re-simulate instead of deduping against its persisted result.
func TestKeysStableAcrossEngineKnobRemoval(t *testing.T) {
	jobs := []struct {
		spec            JobSpec
		key, schemeKey0 string
	}{
		{JobSpec{Spec: sim.Spec{Workload: "lbm06"}},
			"jc18146cd6bcaacc2", "lbm06|dynamic-ptmc|c8|w700000|m500000|s1|sh0|evfalse|trfalse"},
		{JobSpec{Spec: sim.Spec{Workload: "mix1", Cores: 8, Warmup: 1000, Measure: 2000, Seed: 7},
			Schemes: []string{"uncompressed", "dynamic-ptmc"}, TimeoutSec: 30},
			"j6fd33a255a3f8846", "mix1|uncompressed|c8|w1000|m2000|s7|sh0|evfalse|trfalse"},
		{JobSpec{Spec: sim.Spec{Workload: "lbm06", Cores: 2, Warmup: 100, Measure: 200, Seed: 3, Trace: true},
			Schemes: []string{"ptmc"}, Tenant: "alice", Priority: PriorityInteractive},
			"j7acc7e499a2bfbbb", "lbm06|ptmc|c2|w100|m200|s3|sh0|evfalse|trtrue"},
	}
	for _, c := range jobs {
		s := c.spec
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := s.Key(); got != c.key {
			t.Errorf("%s Key = %s, want %s", s.Workload, got, c.key)
		}
		if got := s.Spec.Key(s.Schemes[0]); got != c.schemeKey0 {
			t.Errorf("%s Spec.Key = %s, want %s", s.Workload, got, c.schemeKey0)
		}
	}

	sweeps := []struct {
		spec     SweepSpec
		key      string
		children []string
	}{
		{SweepSpec{Workloads: []string{"lbm06", "mcf06"}, Schemes: []string{"uncompressed", "ptmc"},
			Seeds: []int64{1, 2}, Cores: 2, Warmup: 100, Measure: 200},
			"s0a5dbe5cec06050a", []string{"j835a61901b3ad17a", "j118da0d8c39862b5",
				"jff12ed51e41f7f40", "j482d5e9bf9dde650", "j4a9ef390304b7b41",
				"jf5922498fc21700b", "jab8ce7589a0f8e2c", "j04201fc4b774a00d"}},
		{SweepSpec{Workloads: []string{"lbm06"}, TimeoutSec: 5, Tenant: "bob"},
			"sa9e14c3fe2b7b4ec", []string{"j7dd1021268d2780b"}},
	}
	for _, c := range sweeps {
		s := c.spec
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		if got := s.Key(); got != c.key {
			t.Errorf("sweep Key = %s, want %s", got, c.key)
		}
		ids, _ := s.children()
		if len(ids) != len(c.children) {
			t.Fatalf("sweep %s has %d children, want %d", c.key, len(ids), len(c.children))
		}
		for i := range ids {
			if ids[i] != c.children[i] {
				t.Errorf("sweep %s child %d = %s, want %s", c.key, i, ids[i], c.children[i])
			}
		}
	}
}

// TestPointKeys: a design point equal to Table I is no point, so it keeps
// the pinned id of a spec without one; any other point is a different job
// and a different run, including for the daemon's in-flight dedup.
func TestPointKeys(t *testing.T) {
	spec := func(body string) JobSpec {
		var s JobSpec
		if err := json.Unmarshal([]byte(body), &s); err != nil {
			t.Fatal(err)
		}
		if err := s.Normalize(); err != nil {
			t.Fatal(err)
		}
		return s
	}
	tableI := spec(`{"workload":"lbm06","channels":2,"l3_mb":8}`)
	if got := tableI.Key(); got != "jc18146cd6bcaacc2" {
		t.Errorf("Table I point Key = %s, want the pinned jc18146cd6bcaacc2", got)
	}
	plain := spec(`{"workload":"lbm06"}`)
	one := spec(`{"workload":"lbm06","channels":1}`)
	if one.Key() == plain.Key() {
		t.Errorf("channels:1 shares job id %s with the default point", one.Key())
	}
	if a, b := one.Spec.Key(sim.SchemeDynamicPTMC), plain.Spec.Key(sim.SchemeDynamicPTMC); a == b {
		t.Errorf("channels:1 shares run key %s with the default point", a)
	}

	var mu sync.Mutex
	var channels []int
	s, hs := newTestServer(t, nil, func(ctx context.Context, c sim.Config) (*sim.Result, error) {
		mu.Lock()
		channels = append(channels, c.DRAM.Channels)
		mu.Unlock()
		return fakeResult(c), nil
	})
	before := s.m.simsRun.Load()
	var ids []string
	for _, body := range []string{
		`{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`,
		`{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"channels":1}`,
	} {
		code, st := submit(t, hs, body)
		if code != http.StatusAccepted {
			t.Fatalf("submit %s = %d", body, code)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitState(t, hs, id, StateDone)
	}
	if n := s.m.simsRun.Load() - before; n != 2 {
		t.Errorf("two jobs at different points ran %d simulations, want 2", n)
	}
	mu.Lock()
	sort.Ints(channels)
	mu.Unlock()
	if !reflect.DeepEqual(channels, []int{1, 2}) {
		t.Errorf("simulated channel counts %v, want [1 2]", channels)
	}
}

// TestLegacyEngineKnobsIgnored: a request still carrying the removed
// engine knobs is accepted and is the same job as one without them.
func TestLegacyEngineKnobsIgnored(t *testing.T) {
	_, hs := newTestServer(t, nil, nil)
	code, st := submit(t, hs, `{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"shards":3,"event_driven":true}`)
	if code != http.StatusAccepted {
		t.Fatalf("legacy submit = %d, want 202", code)
	}
	code2, st2 := submit(t, hs, `{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200}`)
	if code2 != http.StatusOK || st2.ID != st.ID {
		t.Fatalf("plain resubmit = %d id %s, want 200 id %s", code2, st2.ID, st.ID)
	}
}

// legacyWALRecords are WAL payloads exactly as the daemon wrote them,
// before the shards and event_driven fields were removed, for a job
// {lbm06, ptmc, 2 cores, 100+200 instructions, shards 4, event} and a
// sweep of {uncompressed, ptmc} over the same point (its ptmc child is the
// job itself, so the batch holds one new child accept).
var legacyWALRecords = []string{
	`{"op":"accept","id":"j91651d976777dd14","spec":{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":1,"shards":4,"event_driven":true,"tenant":"default","priority":"batch"}}`,
	`{"op":"accept","id":"j13df4b7e986abc83","spec":{"workload":"lbm06","schemes":["uncompressed"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":1,"shards":4,"event_driven":true,"tenant":"default","priority":"sweep-child"}}`,
	`{"op":"sweep","id":"sb1ce8d13e6700619","sweep":{"workloads":["lbm06"],"schemes":["uncompressed","ptmc"],"seeds":[1],"cores":2,"warmup_instr":100,"measure_instr":200,"shards":4,"event_driven":true,"tenant":"default"}}`,
}

// appendFrame appends payload to wal as one WAL frame: its length and
// CRC-32, little endian, then the payload.
func appendFrame(wal, payload []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	return append(append(wal, hdr[:]...), payload...)
}

// TestLegacyWALReplay boots over a WAL written before the shards and
// event_driven fields were removed: accept and sweep records carrying
// "shards":4,"event_driven":true. Every persisted job must complete under
// its persisted id. The sweep's children are re-derived without the
// knobs, so they get new ids and run once; the sweep still completes.
func TestLegacyWALReplay(t *testing.T) {
	dir := t.TempDir()
	var wal []byte
	for _, r := range legacyWALRecords {
		wal = appendFrame(wal, []byte(r))
	}
	if err := os.WriteFile(filepath.Join(dir, "wal-000001.log"), wal, 0o644); err != nil {
		t.Fatal(err)
	}

	s, hs := newTestServer(t, func(c *Config) { c.Dir = dir }, nil)
	for _, id := range []string{"j91651d976777dd14", "j13df4b7e986abc83"} {
		waitState(t, hs, id, StateDone)
	}
	if st := waitSweep(t, hs, "sb1ce8d13e6700619"); st.Points != 2 || st.PointsDone != 2 {
		t.Fatalf("legacy sweep settled with %d/%d points", st.PointsDone, st.Points)
	}
	sw := SweepSpec{Workloads: []string{"lbm06"}, Schemes: []string{"uncompressed", "ptmc"},
		Cores: 2, Warmup: 100, Measure: 200}
	if err := sw.Normalize(); err != nil {
		t.Fatal(err)
	}
	ids, _ := sw.children()
	for _, id := range ids {
		if _, err := s.store.Result(id); err != nil {
			t.Errorf("re-derived sweep child %s has no result: %v", id, err)
		}
	}
}
