// Package fault is the deterministic fault-injection engine that attacks
// the PTMC soundness claim from the outside. It mutates the raw DRAM image
// (and, for state attacks, the controller's LIT and LLP) the way a hostile
// environment would — bit flips in markers and payloads, forged compressed
// units, Marker-IL tombstones planted over live data, bogus inversion-table
// entries, poisoned location predictions, and adversarial marker-colliding
// write data — while the campaign driver (internal/memctrl) checks that
// every injected fault is either detected by the controller's typed-error /
// degradation machinery or proven harmless by VerifyImage.
//
// Every choice the injector makes is drawn from one seeded RNG, so a
// campaign replays exactly from (seed, trial count): a failure report's
// seed is a reproducer.
package fault

import (
	"fmt"
	"math/rand"

	"ptmc/internal/cache"
	"ptmc/internal/core"
	"ptmc/internal/mem"
)

// Kind enumerates the injectable faults and attacks.
type Kind int

const (
	// KindMarkerFlip flips one bit inside the 4-byte inline marker tail of
	// a touched image location — the classification metadata itself.
	KindMarkerFlip Kind = iota
	// KindPayloadFlip flips one bit inside the 60-byte payload of a
	// touched image location.
	KindPayloadFlip
	// KindUndecodable overwrites a group base with a forged compressed
	// unit: a valid 4:1 marker over garbage that will not decode.
	KindUndecodable
	// KindMisplacedUnit forges a compressed-unit marker at a location that
	// is not the unit's home (classification must reject it).
	KindMisplacedUnit
	// KindTombstone plants the line's own Marker-IL over a live location,
	// making its data unreachable — the probe for silent data loss.
	KindTombstone
	// KindBogusLIT inserts an inversion-table entry for a line whose image
	// is not inverted (stale LIT state).
	KindBogusLIT
	// KindLLPPoison trains the Line Location Predictor with a wrong level
	// for a line, forcing mispredictions (must cost bandwidth, never
	// correctness).
	KindLLPPoison
	numKinds
)

// Kinds lists every injectable fault kind.
func Kinds() []Kind {
	ks := make([]Kind, numKinds)
	for i := range ks {
		ks[i] = Kind(i)
	}
	return ks
}

var kindNames = [...]string{
	KindMarkerFlip:    "marker-flip",
	KindPayloadFlip:   "payload-flip",
	KindUndecodable:   "undecodable",
	KindMisplacedUnit: "misplaced-unit",
	KindTombstone:     "tombstone",
	KindBogusLIT:      "bogus-lit",
	KindLLPPoison:     "llp-poison",
}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("kind(%d)", int(k))
	}
	return kindNames[k]
}

// ParseKind resolves a kind name ("marker-flip", ...).
func ParseKind(name string) (Kind, error) {
	for i, n := range kindNames {
		if n == name {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("fault: unknown kind %q", name)
}

// Target is everything an Injector may attack: the DRAM image and the
// controller's markers, Line Inversion Table and Line Location Predictor.
// The injector plays an adversary with full knowledge of the current keys.
// Every field is required.
type Target struct {
	Img     *mem.Store
	Markers *core.MarkerGen
	LIT     *core.LIT
	LLP     *core.LLP
}

// Injection records one applied fault — enough to label a campaign trial
// and to reason about what detection it should trigger.
type Injection struct {
	Kind Kind
	Addr mem.LineAddr // attacked line/location
	Bit  int          // flipped bit index (flip kinds only)
}

func (i Injection) String() string {
	switch i.Kind {
	case KindMarkerFlip, KindPayloadFlip:
		return fmt.Sprintf("%v@%d bit %d", i.Kind, i.Addr, i.Bit)
	default:
		return fmt.Sprintf("%v@%d", i.Kind, i.Addr)
	}
}

// Injector applies seeded faults to a Target. Not goroutine-safe; one
// injector drives one campaign.
type Injector struct {
	rng *rand.Rand
	t   Target

	// Applied is the log of every injection, in order.
	Applied []Injection
}

// NewInjector builds an injector over t driven by a deterministic RNG.
func NewInjector(seed int64, t Target) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed)), t: t}
}

// Rand exposes the injector's RNG so the campaign driver can draw traffic
// decisions from the same replayable stream.
func (in *Injector) Rand() *rand.Rand { return in.rng }

// pick selects a random element of candidates.
func (in *Injector) pick(candidates []mem.LineAddr) mem.LineAddr {
	return candidates[in.rng.Intn(len(candidates))]
}

// Inject applies one fault of the given kind to a location drawn from
// candidates (typically the image's touched lines). It reports false when
// the kind cannot be applied (no candidates, or an unknown kind).
func (in *Injector) Inject(kind Kind, candidates []mem.LineAddr) (Injection, bool) {
	if len(candidates) == 0 {
		return Injection{}, false
	}
	inj := Injection{Kind: kind}
	switch kind {
	case KindMarkerFlip:
		inj.Addr = in.pick(candidates)
		inj.Bit = (mem.LineSize-core.MarkerBytes)*8 + in.rng.Intn(core.MarkerBytes*8)
		in.flipBit(inj.Addr, inj.Bit)
	case KindPayloadFlip:
		inj.Addr = in.pick(candidates)
		inj.Bit = in.rng.Intn((mem.LineSize - core.MarkerBytes) * 8)
		in.flipBit(inj.Addr, inj.Bit)
	case KindUndecodable:
		inj.Addr = in.pick(candidates) &^ 3 // group base: unit at its home
		in.forgeUnit(inj.Addr, inj.Addr)
	case KindMisplacedUnit:
		// Forge a unit's marker at a non-home location: take a line whose
		// group index is non-zero and seal a "4:1 unit" there.
		inj.Addr = in.pick(candidates) | 1
		in.forgeUnit(inj.Addr, inj.Addr)
	case KindTombstone:
		inj.Addr = in.pick(candidates)
		il := in.t.Markers.MarkerIL(inj.Addr)
		in.t.Img.Write(inj.Addr, il[:])
	case KindBogusLIT:
		inj.Addr = in.pick(candidates)
		in.t.LIT.Insert(inj.Addr)
	case KindLLPPoison:
		inj.Addr = in.pick(candidates)
		// Train the predictor with a level chosen to mismatch the line's
		// current location as often as possible.
		in.t.LLP.Record(inj.Addr, cache.Level(1+in.rng.Intn(2)), false, false)
	default:
		return Injection{}, false
	}
	in.Applied = append(in.Applied, inj)
	return inj, true
}

// flipBit flips one bit of the image at line a.
func (in *Injector) flipBit(a mem.LineAddr, bit int) {
	line := make([]byte, mem.LineSize)
	copy(line, in.t.Img.Read(a))
	line[bit/8] ^= 1 << (bit % 8)
	in.t.Img.Write(a, line)
}

// forgeUnit writes garbage sealed with markerAddr's 4:1 marker at loc. The
// payload is drawn so it is overwhelmingly unlikely to decode as a valid
// 4-line group; even when it accidentally does, the campaign still
// classifies the outcome (the decoded values cannot all match the
// architectural store).
func (in *Injector) forgeUnit(loc, markerAddr mem.LineAddr) {
	line := make([]byte, mem.LineSize)
	in.rng.Read(line)
	m4 := in.t.Markers.Marker4(markerAddr)
	line[60] = byte(m4)
	line[61] = byte(m4 >> 8)
	line[62] = byte(m4 >> 16)
	line[63] = byte(m4 >> 24)
	in.t.Img.Write(loc, line)
}

// CollidingLine synthesizes adversarial write data for line a: random
// payload whose 4-byte tail equals one of a's compression markers, so the
// controller must invert it and consume a LIT entry. Hammering distinct
// lines with colliding data is the paper's engineered-collision
// denial-of-service attack; the defense under test is re-keying.
func CollidingLine(m *core.MarkerGen, a mem.LineAddr, rng *rand.Rand) []byte {
	line := make([]byte, mem.LineSize)
	rng.Read(line)
	marker := m.Marker2(a)
	if rng.Intn(2) == 0 {
		marker = m.Marker4(a)
	}
	line[60] = byte(marker)
	line[61] = byte(marker >> 8)
	line[62] = byte(marker >> 16)
	line[63] = byte(marker >> 24)
	return line
}
