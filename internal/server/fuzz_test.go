package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzJobSpec drives JobSpec.Normalize and Key with untrusted request
// bodies. Normalize must never panic; a normalized spec must be a fixed
// point of Normalize with the same Key; and Key must survive the
// canonicalJSON -> json.Unmarshal -> Normalize round trip that the WAL
// and replay put every accepted spec through. The same bytes decoded as
// a SweepSpec must normalize without panicking to a spec whose Key
// survives a second Normalize.
func FuzzJobSpec(f *testing.F) {
	for _, seed := range []string{
		// Legacy records carrying the retired engine knobs (legacy_test.go).
		`{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":1,"shards":4,"event_driven":true,"tenant":"default","priority":"batch"}`,
		`{"workload":"lbm06","schemes":["uncompressed"],"cores":2,"warmup_instr":100,"measure_instr":200,"seed":1,"shards":4,"event_driven":true,"tenant":"default","priority":"sweep-child"}`,
		`{"workload":"lbm06","schemes":["ptmc"],"cores":2,"warmup_instr":100,"measure_instr":200,"shards":3,"event_driven":true}`,
		`{"workload":"mix1","schemes":["uncompressed","dynamic-ptmc"],"cores":8,"seed":7,"timeout_sec":30,"trace":true}`,
		`{"workload":"lbm06","seed":0,"priority":"interactive"}`,
		`{"workload":"lbm06","cores":100000}`,
		`{"workload":"lbm06","warmup_instr":-5,"measure_instr":1}`,
		// Design points: valid, Table I-valued, out of range, not a power
		// of two, and a shift that would overflow to a valid size.
		`{"workload":"lbm06","schemes":["ptmc"],"channels":1,"l3_mb":4,"llp_entries":64,"mcache_kb":8,"decomp_cycles":10}`,
		`{"workload":"lbm06","channels":2,"l3_mb":8,"llp_entries":512,"mcache_kb":32,"decomp_cycles":5}`,
		`{"workload":"lbm06","channels":64,"l3_mb":4096,"llp_entries":16777216,"mcache_kb":65536,"decomp_cycles":100000}`,
		`{"workload":"lbm06","channels":3,"l3_mb":3,"llp_entries":100,"mcache_kb":3,"decomp_cycles":-1}`,
		`{"workload":"lbm06","l3_mb":17592186044424}`,
		// Sweeps (decoded as a SweepSpec by the same target).
		`{"workloads":["lbm06","mcf06"],"schemes":["uncompressed","ptmc"],"seeds":[1,2],"cores":2,"warmup_instr":100,"measure_instr":200}`,
		`{"workloads":["lbm06"],"seeds":[0,1],"timeout_sec":5,"tenant":"bob"}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var sw SweepSpec
		if json.Unmarshal(data, &sw) == nil && sw.Normalize() == nil {
			key := sw.Key()
			if err := sw.Normalize(); err != nil || sw.Key() != key {
				t.Fatalf("SweepSpec Normalize is not idempotent: %s -> %s (%v)", key, sw.Key(), err)
			}
		}

		var spec JobSpec
		if json.Unmarshal(data, &spec) != nil || spec.Normalize() != nil {
			return
		}
		key := spec.Key()

		again := spec
		again.Schemes = append([]string(nil), spec.Schemes...)
		if err := again.Normalize(); err != nil {
			t.Fatalf("re-normalizing %+v: %v", spec, err)
		}
		if !reflect.DeepEqual(again, spec) || again.Key() != key {
			t.Fatalf("Normalize is not idempotent: %+v (%s) -> %+v (%s)", spec, key, again, again.Key())
		}

		var back JobSpec
		if err := json.Unmarshal(canonicalJSON(spec), &back); err != nil {
			t.Fatalf("round trip of %+v: %v", spec, err)
		}
		if err := back.Normalize(); err != nil {
			t.Fatalf("round-tripped %+v rejected: %v", back, err)
		}
		if back.Key() != key {
			t.Fatalf("Key changed in the round trip: %s -> %s", key, back.Key())
		}
	})
}

// FuzzWALReplay opens job stores built from untrusted WAL bytes. records
// is split on newlines; each piece becomes one validly framed record (an
// empty piece frames a zero length, which replay must treat as torn).
// layout spreads the records over one to three segments and picks the
// segment that tail, raw unframed bytes, is appended to. Opening must
// never panic; the bytes replay kept plus Truncated must equal the input,
// and what is kept must be a prefix of it (whole segments, then a prefix
// of one); and reopening the repaired directory must truncate nothing and
// rebuild the same jobs and sweeps.
func FuzzWALReplay(f *testing.F) {
	legacy := []byte(strings.Join(legacyWALRecords, "\n"))
	done := []byte(`{"op":"done","id":"j91651d976777dd14","status":"failed","fail_kind":"sim","error":"boom"}`)
	torn := appendFrame(nil, done)[:20]
	f.Add(legacy, []byte(nil), uint8(0))
	f.Add(legacy, []byte(nil), uint8(2))
	f.Add(append(append(legacy, '\n'), done...), torn, uint8(5))
	f.Add(legacy, []byte("garbage after the last frame"), uint8(1))
	f.Add(append(legacy, "\n\n"...), []byte(nil), uint8(2))
	f.Add([]byte(`{"op":"accept","id":"x"}`+"\n"+`not json`), []byte{0xff, 0, 0, 0}, uint8(4))
	f.Fuzz(func(t *testing.T, records, tail []byte, layout uint8) {
		recs := bytes.Split(records, []byte("\n"))
		nseg := 1 + int(layout)%3
		segs := make([][]byte, nseg)
		for i, r := range recs {
			k := i * nseg / len(recs)
			segs[k] = appendFrame(segs[k], r)
		}
		k := int(layout) / 3 % nseg
		segs[k] = append(segs[k], tail...)

		dir := t.TempDir()
		total := 0
		for i, seg := range segs {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", i+1)), seg, 0o644); err != nil {
				t.Fatal(err)
			}
			total += len(seg)
		}
		st, err := OpenStoreSegmented(dir, DefaultSegmentBytes)
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		jobs, sweeps, replayed := st.Jobs(), st.Sweeps(), st.Replayed
		kept, cut := 0, false
		for i, seg := range segs {
			got, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("wal-%06d.log", i+1)))
			if cut || err != nil {
				if err == nil {
					t.Fatalf("segment %d kept after an earlier one was cut", i+1)
				}
				cut = true
				continue
			}
			if !bytes.HasPrefix(seg, got) {
				t.Fatalf("segment %d kept %d bytes that are not a prefix of its %d", i+1, len(got), len(seg))
			}
			kept += len(got)
			cut = len(got) < len(seg)
		}
		if kept+int(st.Truncated) != total {
			t.Fatalf("kept %d + truncated %d != input %d bytes", kept, st.Truncated, total)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}

		re, err := OpenStoreSegmented(dir, DefaultSegmentBytes)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer re.Close()
		if re.Truncated != 0 || re.Replayed != replayed {
			t.Fatalf("reopen truncated %d and replayed %d records, want 0 and %d", re.Truncated, re.Replayed, replayed)
		}
		if !reflect.DeepEqual(re.Jobs(), jobs) || !reflect.DeepEqual(re.Sweeps(), sweeps) {
			t.Fatalf("reopen state differs:\njobs %v -> %v\nsweeps %v -> %v", jobs, re.Jobs(), sweeps, re.Sweeps())
		}
	})
}
