package memctrl

import (
	"bytes"
	"testing"

	"ptmc/internal/cache"
	"ptmc/internal/mem"
)

// testRig is the rig for tests: each step fails the test instead of
// returning an error, and read returns the value the CPU observes.
type testRig struct {
	*rig
	t testing.TB
}

// newRig builds a rig around the controller build returns, with a 4-way
// testing LLC of llcBytes.
func newRig(t testing.TB, llcBytes int, build buildFunc) *testRig {
	t.Helper()
	r, err := buildRig(cache.Config{SizeBytes: llcBytes, Assoc: 4}, build)
	if err != nil {
		t.Fatal(err)
	}
	return &testRig{rig: r, t: t}
}

func (r *testRig) must(err error) {
	if err != nil {
		r.t.Helper()
		r.t.Fatal(err)
	}
}

func (r *testRig) drain()                                     { r.must(r.rig.drain()) }
func (r *testRig) write(core int, a mem.LineAddr, val []byte) { r.must(r.rig.write(core, a, val)) }
func (r *testRig) evict(a mem.LineAddr)                       { r.must(r.rig.evict(a)) }
func (r *testRig) flushAll()                                  { r.must(r.rig.flushAll()) }

func (r *testRig) read(core int, a mem.LineAddr) []byte {
	r.must(r.rig.read(core, a))
	return r.arch.Read(a)
}

// compressibleLine returns a 64-byte line that compresses very well.
func compressibleLine(tag byte) []byte {
	l := make([]byte, mem.LineSize)
	for i := 0; i < mem.LineSize; i += 4 {
		l[i] = tag
	}
	return l
}

// incompressibleLine returns a line that will not compress.
func incompressibleLine(seed uint64) []byte {
	l := make([]byte, mem.LineSize)
	h := seed
	for i := range l {
		h = h*6364136223846793005 + 1442695040888963407
		l[i] = byte(h >> 33)
	}
	return l
}

func wantLine(t *testing.T, got, want []byte, msg string) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %x\nwant %x", msg, got[:16], want[:16])
	}
}
