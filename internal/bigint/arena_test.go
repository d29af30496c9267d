package bigint

import (
	"strings"
	"testing"
)

func TestArenaEnsureGrows(t *testing.T) {
	var a arena
	a.ensure(128)
	if len(a.buf) < 128 {
		t.Fatalf("ensure(128) left slab at %d limbs", len(a.buf))
	}
	// A second, smaller ensure on the empty arena keeps the larger slab.
	a.ensure(16)
	if len(a.buf) < 128 {
		t.Fatalf("ensure(16) shrank the slab to %d limbs", len(a.buf))
	}
	z := a.alloc(64)
	if len(z) != 64 || a.off != 64 {
		t.Fatalf("alloc(64) = len %d, off %d", len(z), a.off)
	}
}

func TestArenaEnsureWithOutstandingAllocationsPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ensure after alloc did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "outstanding allocations") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	var a arena
	a.ensure(32)
	_ = a.alloc(8)
	a.ensure(64)
}

func TestArenaAllocHeapFallback(t *testing.T) {
	var a arena
	a.ensure(8)
	z := a.alloc(32) // exceeds the slab: falls back to the heap, stays correct
	if len(z) != 32 {
		t.Fatalf("oversized alloc returned len %d", len(z))
	}
	for i, w := range z {
		if w != 0 {
			t.Fatalf("alloc result not zeroed at limb %d", i)
		}
	}
	if a.off != 0 {
		t.Fatalf("heap-fallback alloc consumed slab space: off = %d", a.off)
	}
}

func TestArenaMarkReleaseReusesSpace(t *testing.T) {
	var a arena
	a.ensure(64)
	m := a.mark()
	x := a.alloc(16)
	x[0] = 42
	a.release(m)
	y := a.alloc(16)
	if &x[0] != &y[0] {
		t.Fatal("release(mark()) did not rewind the arena: sibling allocations do not share slab space")
	}
	if y[0] != 0 {
		t.Fatal("re-allocated arena space was not zeroed")
	}
	if got := a.mark(); got.limbs != m.limbs+16 {
		t.Fatalf("mark after realloc = %d, want %d", got.limbs, m.limbs+16)
	}
}
