package server

import (
	"encoding/json"
	"reflect"
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
