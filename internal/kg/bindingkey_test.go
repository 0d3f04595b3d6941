package kg

import (
	"math/rand"
	"testing"
)

func TestKeyerPackedSmallBindings(t *testing.T) {
	k := NewKeyer()
	a := Binding{1, 2}
	b := Binding{1, 2}
	c := Binding{2, 1}
	d := Binding{1, NoID}
	if k.Key(a) != k.Key(b) {
		t.Fatal("equal bindings produced different keys")
	}
	if k.Key(a) == k.Key(c) {
		t.Fatal("swapped bindings collided")
	}
	if k.Key(a) == k.Key(d) {
		t.Fatal("NoID position collided with bound position")
	}
	// Packed keys are pure functions of the IDs: independent Keyers agree.
	if NewKeyer().Key(a) != k.Key(a) {
		t.Fatal("packed keys differ across Keyers")
	}
	// One- and zero-variable bindings pack too.
	if NewKeyer().Key(Binding{7}) != NewKeyer().Key(Binding{7}) {
		t.Fatal("width-1 packed key unstable")
	}
	if NewKeyer().Key(Binding{}) != 0 {
		t.Fatal("empty binding must key to 0")
	}
}

func TestKeyerInternedWideBindings(t *testing.T) {
	k := NewKeyer()
	a := Binding{1, 2, 3, NoID}
	b := Binding{1, 2, 3, NoID}
	c := Binding{1, 2, NoID, 3}
	if k.Key(a) != k.Key(b) {
		t.Fatal("equal wide bindings produced different keys")
	}
	if k.Key(a) == k.Key(c) {
		t.Fatal("distinct wide bindings collided")
	}
	// Interned identities are dense and stable across repeats.
	first := k.Key(a)
	for i := 0; i < 10; i++ {
		if k.Key(b) != first {
			t.Fatal("re-keying drifted")
		}
	}
}

func TestKeyerProjection(t *testing.T) {
	k := NewProjKeyer([]int{0, 2})
	a := Binding{1, 99, 3}
	b := Binding{1, 42, 3} // differs only outside the projection
	c := Binding{1, 99, 4}
	if k.Key(a) != k.Key(b) {
		t.Fatal("projection must ignore unprojected positions")
	}
	if k.Key(a) == k.Key(c) {
		t.Fatal("projected difference lost")
	}
	// Empty projection: every binding keys identically (cartesian joins).
	e := NewProjKeyer(nil)
	if e.Key(a) != e.Key(c) {
		t.Fatal("empty projection must collapse all bindings")
	}
	// Wide projections go through the interner with the same semantics.
	w := NewProjKeyer([]int{0, 1, 2, 3})
	x := Binding{1, 2, 3, 4, 77}
	y := Binding{1, 2, 3, 4, 88}
	z := Binding{1, 2, 3, 5, 77}
	if w.Key(x) != w.Key(y) || w.Key(x) == w.Key(z) {
		t.Fatal("wide projection semantics broken")
	}
}

// TestKeyerMatchesStringKeyOracle cross-checks Keyer equality classes
// against Binding.Key() on random bindings, packed and interned widths.
func TestKeyerMatchesStringKeyOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, width := range []int{1, 2, 3, 5} {
		k := NewKeyer()
		byString := map[string]BindingKey{}
		for i := 0; i < 2000; i++ {
			b := make(Binding, width)
			for j := range b {
				if rng.Intn(4) == 0 {
					b[j] = NoID
				} else {
					b[j] = ID(rng.Intn(6))
				}
			}
			got := k.Key(b)
			if prev, ok := byString[b.Key()]; ok {
				if prev != got {
					t.Fatalf("width %d: binding %v keyed %d then %d", width, b, prev, got)
				}
			} else {
				for s, id := range byString {
					if id == got {
						t.Fatalf("width %d: distinct bindings %q and %v share key %d", width, s, b, got)
					}
				}
				byString[b.Key()] = got
			}
		}
	}
}
