package memctrl

import (
	"math/rand"
	"testing"

	"ptmc/internal/mem"
)

func TestVerifyImageCleanSystem(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 100, compressibleLine(1))
	r.write(0, 101, compressibleLine(2))
	r.evict(100)
	r.write(0, 104, incompressibleLine(1))
	r.evict(104)
	n, err := p.VerifyImage(r.resident)
	if err != nil {
		t.Fatal(err)
	}
	if n < 3 {
		t.Errorf("verified %d lines, want >= 3", n)
	}
}

func TestVerifyImageDetectsCorruption(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 200, compressibleLine(1))
	r.write(0, 201, compressibleLine(2))
	r.evict(200)
	// Corrupt the architectural store so decode mismatches.
	r.arch.Write(201, incompressibleLine(9))
	if _, err := p.VerifyImage(r.resident); err == nil {
		t.Error("verifier should detect the value mismatch")
	}
}

func TestVerifyImageDetectsAmbiguity(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 300, compressibleLine(1))
	r.write(0, 301, compressibleLine(2))
	r.evict(300) // 2:1 at 300, tombstone at 301
	// Plant stale-looking uncompressed data at 301 (no tombstone): 301 is
	// now served both by the pair at 300 and by itself.
	r.img.Write(301, r.arch.Read(301))
	if _, err := p.VerifyImage(r.resident); err == nil {
		t.Error("verifier should detect double-served line")
	}
}

func TestVerifyImageDetectsBogusLITEntry(t *testing.T) {
	r := newPTMCRig(t)
	p := r.ctrl.(*PTMC)
	r.write(0, 400, compressibleLine(3))
	r.evict(400)
	p.LIT().Insert(400) // 400's image is not inverted
	if _, err := p.VerifyImage(r.resident); err == nil {
		t.Error("verifier should reject a LIT entry for a non-inverted line")
	}
}

// TestVerifyImageUnderRandomTraffic runs randomized traffic through PTMC
// (static and dynamic) and verifies the whole memory image at checkpoints
// and at the end — the §IV-C soundness argument as an executable sweep.
func TestVerifyImageUnderRandomTraffic(t *testing.T) {
	for _, dyn := range []bool{false, true} {
		name := "static"
		opts := []PTMCOption{}
		if dyn {
			name = "dynamic"
			opts = append(opts, WithDynamic(2, 0.05, true))
		}
		t.Run(name, func(t *testing.T) {
			r := newPTMCRig(t, opts...)
			p := r.ctrl.(*PTMC)
			rng := rand.New(rand.NewSource(11))
			for op := 0; op < 3000; op++ {
				a := mem.LineAddr(rng.Intn(512))
				switch rng.Intn(4) {
				case 0, 1:
					if rng.Intn(2) == 0 {
						r.write(int(a)%2, a, compressibleLine(byte(rng.Intn(250))))
					} else {
						r.write(int(a)%2, a, incompressibleLine(rng.Uint64()))
					}
				case 2:
					r.read(int(a)%2, a)
				case 3:
					r.evict(a)
				}
				if op%500 == 499 {
					if _, err := p.VerifyImage(r.resident); err != nil {
						t.Fatalf("op %d: %v", op, err)
					}
				}
			}
			r.flushAll()
			n, err := p.VerifyImage(nil) // nothing resident: verify all
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Error("nothing verified")
			}
			if p.Stats().IntegrityErrs != 0 {
				t.Error("integrity errors")
			}
		})
	}
}
