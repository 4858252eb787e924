package main

import (
	"reflect"
	"testing"

	"ptmc"
)

// workloadFields are the only Config fields a workload may set; everything
// else, the engine choice included, must stay at ptmc.DefaultConfig().
var workloadFields = map[string]bool{
	"Workload": true, "Custom": true, "Scheme": true, "Cores": true, "Core": true,
	"WarmupInstr": true, "MeasureInstr": true, "Seed": true,
}

func TestConfigDiffersOnlyInWorkloadFields(t *testing.T) {
	def := reflect.ValueOf(ptmc.DefaultConfig())
	for _, w := range specs {
		got := reflect.ValueOf(w.configFor(42))
		for i := 0; i < def.NumField(); i++ {
			name := def.Type().Field(i).Name
			if workloadFields[name] {
				continue
			}
			if !reflect.DeepEqual(got.Field(i).Interface(), def.Field(i).Interface()) {
				t.Errorf("%s: Config.%s = %v, default %v", w.name, name, got.Field(i), def.Field(i))
			}
		}
		if cfg := w.configFor(42); cfg.Seed != 42 {
			t.Errorf("%s: seed %d not passed through to Config.Seed", w.name, cfg.Seed)
		}
	}
}

// The timing wrapper must offer every optional method the simulator
// type-asserts on a source, or the traced run would take other paths.
var _ interface{ FillLineInit(uint64, []byte) } = (*timingSource)(nil)

func TestTracedRunMatchesPinnedFingerprint(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full simulations")
	}
	for i := range specs {
		w := &specs[i]
		var ref string
		for _, traced := range []bool{false, true} {
			rep := runOnce(w, defaultSeed, traced)
			if why := gate(w, defaultSeed, rep, &ref); why != "" {
				t.Errorf("%s traced=%v: %s", w.name, traced, why)
			}
		}
	}
}
