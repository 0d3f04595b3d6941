package kg

// This file implements the packed binding-key scheme used by the operator
// layer for deduplication and join probing. Binding.Key() builds a fresh
// string per call — one heap allocation per probe, which dominates operator
// cost once list retrieval is allocation-free. BindingKey replaces it with a
// plain uint64: bindings (or projections of bindings) over at most two
// variables pack the raw IDs directly into the key, and wider tuples go
// through a per-operator interner that assigns dense integer identities
// backed by a flat arena. Either way, map probes are integer-keyed and the
// steady state allocates nothing.

// BindingKey is a compact comparable key for a binding, or for a fixed
// projection of one. Keys are produced by a Keyer; two keys from the same
// Keyer are equal iff the (projected) bindings bind the same values. Keys
// from different Keyers are not comparable unless both Keyers are packed
// (at most two projected variables), in which case the key is a pure
// function of the projected IDs.
type BindingKey uint64

// Keyer produces BindingKeys for bindings of one query. The zero value is
// not usable; construct with NewKeyer or NewProjKeyer. A Keyer is not safe
// for concurrent use — operators own one each, matching their existing
// single-goroutine contract.
type Keyer struct {
	vars  []int // projection; nil = identity over the whole binding
	arena []ID  // interned tuples, width IDs each (interned mode only)
	table map[uint64][]BindingKey
}

// NewKeyer returns a Keyer over the whole binding (every variable of the
// query). Bindings of at most two variables never touch the interner.
func NewKeyer() *Keyer { return &Keyer{} }

// NewProjKeyer returns a Keyer over the given variable indexes (e.g. a rank
// join's shared variables). The projection slice is retained; callers must
// not mutate it. An empty (or nil) projection keys every binding identically
// — a rank join with no shared variables degrades to a cartesian product.
func NewProjKeyer(vars []int) *Keyer {
	if vars == nil {
		vars = []int{}
	}
	return &Keyer{vars: vars}
}

// Packed reports whether keys for width-w tuples avoid the interner.
func packed(w int) bool { return w <= 2 }

// Key returns the key for b's projection. Packed mode is allocation-free;
// interned mode allocates only when the tuple is new (amortised zero in the
// steady state of a dedup map).
func (k *Keyer) Key(b Binding) BindingKey {
	if k.vars == nil {
		if packed(len(b)) {
			switch len(b) {
			case 0:
				return 0
			case 1:
				return BindingKey(uint32(b[0]))
			default:
				return BindingKey(uint32(b[0])) | BindingKey(uint32(b[1]))<<32
			}
		}
		return k.intern(b, nil)
	}
	if packed(len(k.vars)) {
		switch len(k.vars) {
		case 0:
			return 0
		case 1:
			return BindingKey(uint32(b[k.vars[0]]))
		default:
			return BindingKey(uint32(b[k.vars[0]])) | BindingKey(uint32(b[k.vars[1]]))<<32
		}
	}
	return k.intern(b, k.vars)
}

// intern maps the projected tuple to a dense identity, probing an
// fnv-hashed bucket table with full equality checks so hash collisions can
// never conflate distinct tuples.
func (k *Keyer) intern(b Binding, vars []int) BindingKey {
	w := len(b)
	if vars != nil {
		w = len(vars)
	}
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	if vars == nil {
		for _, v := range b {
			h = (h ^ uint64(uint32(v))) * fnvPrime
		}
	} else {
		for _, i := range vars {
			h = (h ^ uint64(uint32(b[i]))) * fnvPrime
		}
	}
	if k.table == nil {
		k.table = make(map[uint64][]BindingKey)
	}
	for _, id := range k.table[h] {
		off := int(id) * w
		stored := k.arena[off : off+w]
		if vars == nil {
			if equalIDs(stored, b) {
				return id
			}
		} else {
			match := true
			for j, i := range vars {
				if stored[j] != b[i] {
					match = false
					break
				}
			}
			if match {
				return id
			}
		}
	}
	id := BindingKey(len(k.arena) / w)
	if vars == nil {
		k.arena = append(k.arena, b...)
	} else {
		for _, i := range vars {
			k.arena = append(k.arena, b[i])
		}
	}
	k.table[h] = append(k.table[h], id)
	return id
}

func equalIDs(a []ID, b []ID) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
