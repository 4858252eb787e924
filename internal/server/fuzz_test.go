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
// and replay put every accepted spec through.
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
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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
