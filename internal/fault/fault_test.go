package fault

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"ptmc/internal/core"
	"ptmc/internal/mem"
)

func testTarget(seed int64) (Target, *mem.Store, *core.MarkerGen) {
	img := mem.NewStore()
	g := core.NewMarkerGen(seed)
	for a := mem.LineAddr(0); a < 64; a++ {
		line := make([]byte, mem.LineSize)
		for i := range line {
			line[i] = byte(a)
		}
		img.Write(a, line)
	}
	return Target{Img: img, Markers: g, LIT: core.NewLIT(core.LITReKey), LLP: core.NewLLP(64)}, img, g
}

// TestInjectorDeterminism: the same seed must replay the identical
// injection sequence — the property that makes a campaign seed a
// reproducer.
func TestInjectorDeterminism(t *testing.T) {
	runCampaign := func() []Injection {
		tg, img, _ := testTarget(7)
		in := NewInjector(99, tg)
		cand := img.TouchedLines()
		for i := 0; i < 50; i++ {
			in.Inject(Kind(i%int(numKinds)), cand)
		}
		return in.Applied
	}
	a, b := runCampaign(), runCampaign()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different injection sequences")
	}
	if len(a) != 50 {
		t.Fatalf("applied %d injections, want 50", len(a))
	}
}

// TestEveryKindMutatesState: each kind must observably change the image or
// the attacked structure.
func TestEveryKindMutatesState(t *testing.T) {
	for _, k := range Kinds() {
		t.Run(k.String(), func(t *testing.T) {
			tg, img, g := testTarget(3)
			in := NewInjector(5, tg)
			before := map[mem.LineAddr][]byte{}
			for _, a := range img.TouchedLines() {
				before[a] = append([]byte(nil), img.Read(a)...)
			}
			inj, ok := in.Inject(k, img.TouchedLines())
			if !ok {
				t.Fatalf("inject %v failed", k)
			}
			switch k {
			case KindBogusLIT:
				if inverted, _ := tg.LIT.Contains(inj.Addr); !inverted {
					t.Error("LIT entry not planted")
				}
			case KindLLPPoison:
				// State change is in the predictor; nothing to assert on the
				// image. Verified by the injection being applied.
			default:
				if bytes.Equal(before[inj.Addr], img.Read(inj.Addr)) {
					t.Errorf("%v left the image unchanged at %d", k, inj.Addr)
				}
			}
			switch k {
			case KindTombstone:
				if g.Classify(inj.Addr, img.Read(inj.Addr)) != core.ClassInvalid {
					t.Error("tombstone does not classify as invalid")
				}
			case KindUndecodable:
				if g.Classify(inj.Addr, img.Read(inj.Addr)) != core.ClassComp4 {
					t.Error("forged unit does not classify as 4:1")
				}
			}
		})
	}
}

// TestCollidingLine: synthesized adversarial data must actually collide
// with the line's markers, and keep colliding across addresses.
func TestCollidingLine(t *testing.T) {
	g := core.NewMarkerGen(42)
	rng := rand.New(rand.NewSource(1))
	for a := mem.LineAddr(0); a < 256; a++ {
		data := CollidingLine(g, a, rng)
		if !g.CollidesWithMarkers(a, data) {
			t.Fatalf("line %d: synthesized data does not collide", a)
		}
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range Kinds() {
		got, err := ParseKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseKind("nope"); err == nil {
		t.Error("ParseKind accepted garbage")
	}
}
