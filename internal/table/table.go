// Package table provides the relational table model used throughout
// Uni-Detect: typed columns, value type inference, numeric parsing
// (including thousands separators), tokenization and CSV/TSV IO.
//
// Tables are stored column-major because every Uni-Detect metric function
// operates on columns; rows are materialized on demand.
package table

import (
	"fmt"
	"strings"
	"sync/atomic"
)

// ValueType classifies the dominant value type of a column, following the
// featurization dimensions of the paper (Figure 5 and §3.1–3.4):
// string vs. integer vs. floating-point vs. mixed-alphanumeric.
type ValueType uint8

const (
	// TypeEmpty marks a column with no non-empty values.
	TypeEmpty ValueType = iota
	// TypeString marks columns of plain (letters/punctuation) strings.
	TypeString
	// TypeInt marks integer-valued numeric columns.
	TypeInt
	// TypeFloat marks floating-point numeric columns.
	TypeFloat
	// TypeMixed marks mixed-alphanumeric columns (IDs, codes, part
	// numbers), which the paper singles out as likely key columns.
	TypeMixed
	numValueTypes
)

// NumValueTypes is the number of distinct ValueType values, for use as an
// array dimension by featurization code.
const NumValueTypes = int(numValueTypes)

// String returns a short human-readable name for the type.
func (t ValueType) String() string {
	switch t {
	case TypeEmpty:
		return "empty"
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeMixed:
		return "mixed"
	default:
		return fmt.Sprintf("ValueType(%d)", uint8(t))
	}
}

// Column is a named, typed column of string cell values.
//
// A Column may be read from many goroutines at once (the predictor runs
// detectors concurrently over shared tables), so the caches below are
// atomic. Mutating Values concurrently with readers is still the caller's
// responsibility, and a caller that mutates Values must call Invalidate,
// which drops the cached type, profile and fingerprint.
type Column struct {
	Name   string
	Values []string

	// typ caches the inferred ValueType in its low byte, with bit 8 set
	// once computed (0 therefore means "not yet computed"). It is atomic
	// because concurrent detector goroutines race to fill the cache;
	// InferType is deterministic, so a duplicated computation is harmless.
	typ atomic.Uint32
	// profile caches Profile's dedup the same way: two workers racing to
	// build it build equal profiles, and one of them is kept.
	profile atomic.Pointer[Profile]
	// fp1, fp2 hold a content fingerprint once fpSet is true; see
	// Fingerprint.
	fp1, fp2 atomic.Uint64
	fpSet    atomic.Bool
}

// NewColumn builds a column from a name and values.
func NewColumn(name string, values []string) *Column {
	return &Column{Name: name, Values: values}
}

// Len returns the number of cells in the column.
func (c *Column) Len() int { return len(c.Values) }

// typComputed is OR-ed into the cached type word to distinguish a cached
// TypeEmpty (value 0) from "not yet computed".
const typComputed = 1 << 8

// Type returns the inferred ValueType of the column, computing and caching
// it on first use. It is safe for concurrent use.
func (c *Column) Type() ValueType {
	if v := c.typ.Load(); v&typComputed != 0 {
		return ValueType(v)
	}
	t := InferType(c.Values)
	c.typ.Store(typComputed | uint32(t))
	return t
}

// Profile returns the column's dedup, building and caching it on first
// use. It is safe for concurrent use. A profile is as large as the
// column's codes and distinct values, so whoever keeps a column past
// the work that profiled it calls Release.
func (c *Column) Profile() *Profile {
	if p := c.profile.Load(); p != nil {
		return p
	}
	p := NewProfile(c.Values)
	c.profile.Store(p)
	return p
}

// Fingerprint returns the content fingerprint memoized by
// SetFingerprint, if one is held. The column does not compute it: the
// measurement cache does, and memoizes it here for the rest of one
// detect call, without allocating.
func (c *Column) Fingerprint() (h1, h2 uint64, ok bool) {
	if !c.fpSet.Load() {
		return 0, 0, false
	}
	return c.fp1.Load(), c.fp2.Load(), true
}

// SetFingerprint memoizes the column's content fingerprint. Concurrent
// callers store the same fingerprint of the same content, so a reader
// seeing the flag set reads a whole one.
func (c *Column) SetFingerprint(h1, h2 uint64) {
	c.fp1.Store(h1)
	c.fp2.Store(h2)
	c.fpSet.Store(true)
}

// Release drops the column's profile and fingerprint memo, keeping the
// cached type; the next Profile or fingerprint builds afresh. It is safe
// for concurrent use: a reader racing it at worst builds them again.
func (c *Column) Release() {
	c.profile.Store(nil)
	c.fpSet.Store(false)
}

// Invalidate drops cached derived state after the Values slice is
// mutated: the type, the profile and the fingerprint memo.
func (c *Column) Invalidate() {
	c.typ.Store(0)
	c.Release()
}

// Drop returns a copy of the column with the cells at the given row indices
// removed. Indices outside the column are ignored. The receiver is not
// modified; this implements the ε-perturbation D \ O of Definition 2.
func (c *Column) Drop(rows ...int) *Column {
	if len(rows) == 0 {
		out := NewColumn(c.Name, append([]string(nil), c.Values...))
		return out
	}
	drop := make(map[int]bool, len(rows))
	for _, r := range rows {
		drop[r] = true
	}
	vals := make([]string, 0, len(c.Values))
	for i, v := range c.Values {
		if !drop[i] {
			vals = append(vals, v)
		}
	}
	return NewColumn(c.Name, vals)
}

// Table is a named collection of equally long columns.
type Table struct {
	Name    string
	Columns []*Column
}

// New builds a table and validates that all columns have equal length.
func New(name string, cols ...*Column) (*Table, error) {
	if len(cols) > 0 {
		n := cols[0].Len()
		for _, c := range cols[1:] {
			if c.Len() != n {
				return nil, fmt.Errorf("table %q: column %q has %d rows, want %d", name, c.Name, c.Len(), n)
			}
		}
	}
	return &Table{Name: name, Columns: cols}, nil
}

// MustNew is New but panics on ragged columns; for tests and literals.
func MustNew(name string, cols ...*Column) *Table {
	t, err := New(name, cols...)
	if err != nil {
		panic(err)
	}
	return t
}

// NumRows returns the row count (0 for a table with no columns).
func (t *Table) NumRows() int {
	if len(t.Columns) == 0 {
		return 0
	}
	return t.Columns[0].Len()
}

// NumCols returns the column count.
func (t *Table) NumCols() int { return len(t.Columns) }

// Release drops every column's profile and fingerprint memo (see
// Column.Release).
func (t *Table) Release() {
	for _, c := range t.Columns {
		c.Release()
	}
}

// Row materializes row i as a slice of cell values, one per column.
func (t *Table) Row(i int) []string {
	row := make([]string, len(t.Columns))
	for j, c := range t.Columns {
		row[j] = c.Values[i]
	}
	return row
}

// Column returns the column with the given name, or nil if absent.
func (t *Table) Column(name string) *Column {
	for _, c := range t.Columns {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// DropRows returns a copy of the table with the given row indices removed
// from every column (the table-level ε-perturbation).
func (t *Table) DropRows(rows ...int) *Table {
	cols := make([]*Column, len(t.Columns))
	for j, c := range t.Columns {
		cols[j] = c.Drop(rows...)
	}
	return &Table{Name: t.Name, Columns: cols}
}

// CellRef identifies a single cell in a named table.
type CellRef struct {
	Table  string
	Column string
	Row    int
}

// String renders the reference as table!column[row].
func (r CellRef) String() string {
	return fmt.Sprintf("%s!%s[%d]", r.Table, r.Column, r.Row)
}

// Tokenize splits a cell value into lowercase tokens on any non-alphanumeric
// rune. Tokens are the unit of the paper's token-prevalence featurization
// (Prev(C), §3.3) and of the differing-token analysis for spelling (§3.2).
func Tokenize(v string) []string {
	var toks []string
	start := -1
	lower := strings.ToLower(v)
	for i, r := range lower {
		alnum := r >= 'a' && r <= 'z' || r >= '0' && r <= '9'
		if alnum {
			if start < 0 {
				start = i
			}
			continue
		}
		if start >= 0 {
			toks = append(toks, lower[start:i])
			start = -1
		}
	}
	if start >= 0 {
		toks = append(toks, lower[start:])
	}
	return toks
}
