package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
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

// FuzzWALReplay folds untrusted WAL bytes in memory. records is split on
// newlines; each piece becomes one framed record (an empty piece frames a
// zero length, which replay must treat as torn). layout%9 spreads the
// records over one to three log files (the segments an earlier daemon
// left, then wal.log) and picks the file that tail, raw unframed bytes,
// is appended to; a nonzero layout/9 names a record (from 1, modulo the
// count) whose checksum has one bit flipped, as a corrupt disk would
// leave it. walPrefix, the test's own frame decoder, says where
// replay must stop. Folding must never panic; it must keep exactly the
// bytes before that point and count the rest as Truncated; folding the
// kept bytes again must truncate nothing and rebuild the same jobs,
// sweeps and record count; and folding the summary a rewrite would write
// must rebuild the same jobs and sweeps. OpenStore's file handling is
// covered by the unit tests in store_test.go and rotation_test.go.
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
	f.Add(append(append(legacy, '\n'), legacySweepDone...), []byte(nil), uint8(1))
	// apply looks for result artifacts here; the directory stays empty.
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, records, tail []byte, layout uint8) {
		recs := bytes.Split(records, []byte("\n"))
		nfiles := 1 + int(layout)%3
		files := make([][]byte, nfiles)
		bad := (int(layout)/9 + len(recs) - 1) % len(recs)
		for i, r := range recs {
			k := i * nfiles / len(recs)
			files[k] = appendFrame(files[k], r)
			if layout >= 9 && i == bad {
				files[k][len(files[k])-len(r)-4] ^= 1
			}
		}
		k := int(layout) / 3 % nfiles
		files[k] = append(files[k], tail...)

		var want []byte
		total, frames, stopped := 0, 0, false
		for _, file := range files {
			total += len(file)
			if !stopped {
				n, m := walPrefix(file)
				want = append(want, file[:n]...)
				frames += m
				stopped = n < len(file)
			}
		}

		st := newStore(dir)
		kept := st.fold(files)
		if kept != int64(len(want)) || st.Replayed != frames {
			t.Fatalf("fold kept %d bytes in %d records, want %d in %d", kept, st.Replayed, len(want), frames)
		}
		if kept+st.Truncated != int64(total) {
			t.Fatalf("kept %d + truncated %d != input %d bytes", kept, st.Truncated, total)
		}
		jobs, sweeps := st.Jobs(), st.Sweeps()

		again := newStore(dir)
		again.fold([][]byte{want})
		if again.Truncated != 0 || again.Replayed != st.Replayed {
			t.Fatalf("refold truncated %d and replayed %d records, want 0 and %d", again.Truncated, again.Replayed, st.Replayed)
		}
		if !reflect.DeepEqual(again.Jobs(), jobs) || !reflect.DeepEqual(again.Sweeps(), sweeps) {
			t.Fatalf("refold state differs:\njobs %v -> %v\nsweeps %v -> %v", jobs, again.Jobs(), sweeps, again.Sweeps())
		}

		sum := newStore(dir)
		sum.fold([][]byte{st.summaryLocked()})
		if sum.Truncated != 0 || !reflect.DeepEqual(sum.Jobs(), jobs) || !reflect.DeepEqual(sum.Sweeps(), sweeps) {
			t.Fatalf("summary folds to a different state (truncated %d):\njobs %v -> %v\nsweeps %v -> %v",
				sum.Truncated, jobs, sum.Jobs(), sweeps, sum.Sweeps())
		}
	})
}

// walPrefix decodes data as WAL frames without the store's code: it
// returns the length of the longest prefix of whole frames, each with a
// length in 1..maxRecord, a matching CRC-32 and a payload that decodes as
// a walRecord, and how many frames that prefix holds.
func walPrefix(data []byte) (n, frames int) {
	for len(data)-n >= 8 {
		size := int(binary.LittleEndian.Uint32(data[n:]))
		if size == 0 || size > maxRecord || len(data)-n-8 < size {
			break
		}
		payload := data[n+8 : n+8+size]
		var rec walRecord
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(data[n+4:]) || json.Unmarshal(payload, &rec) != nil {
			break
		}
		n += 8 + size
		frames++
	}
	return n, frames
}
