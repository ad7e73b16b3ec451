package table

import "sync/atomic"

// Profile is a column's values deduplicated once: every row's value as a
// first-occurrence code, and the distinct values with their counts and
// first rows. The detectors and the token-prevalence featurization read
// it instead of deduplicating or tokenizing the column again, so a
// column costs one dedup per detect call (DESIGN.md §12).
//
// A Profile is immutable once built, apart from its memo slot, and safe
// for concurrent use.
type Profile struct {
	// Codes[r] is the index in Distinct of row r's value.
	Codes []int32
	// Distinct holds the column's distinct values in first-occurrence
	// order.
	Distinct []Distinct

	memo atomic.Pointer[profileMemo]
}

// Distinct is one distinct value of a profiled column.
type Distinct struct {
	Value string
	First int32 // first row holding the value
	Count int32 // rows holding it
}

// profileMemo is one memoized float derived from the profile under an
// opaque key.
type profileMemo struct {
	key any
	v   float64
}

// NewProfile deduplicates vals in first-occurrence order.
//
// alloc-budget: 4 the profile, its codes, its distinct-value table and the dedup map, once per column per detect call
func NewProfile(vals []string) *Profile {
	p := &Profile{Codes: make([]int32, len(vals))}
	ids := make(map[string]int32, len(vals))
	for row, v := range vals {
		id, seen := ids[v]
		if !seen {
			id = int32(len(p.Distinct))
			ids[v] = id
			p.Distinct = append(p.Distinct, Distinct{Value: v, First: int32(row)})
		}
		p.Distinct[id].Count++
		p.Codes[row] = id
	}
	return p
}

// Memo returns the value memoized under key, if it is the one held. The
// key is opaque so that packages this one cannot import (the corpus's
// token index) can memoize what they derive from the column.
func (p *Profile) Memo(key any) (float64, bool) {
	if m := p.memo.Load(); m != nil && m.key == key {
		return m.v, true
	}
	return 0, false
}

// SetMemo memoizes v under key, replacing any value held under another
// key. Concurrent callers computing the same derivation store equal
// values, so the last store winning is harmless.
func (p *Profile) SetMemo(key any, v float64) {
	p.memo.Store(&profileMemo{key: key, v: v})
}
