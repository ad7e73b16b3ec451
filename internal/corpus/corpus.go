// Package corpus holds the background table corpus T and the
// token-prevalence index that the paper's featurization needs: Prev(C)
// (§3.3) averages, over the tokens of a column, the number of corpus
// tables each token occurs in — low-prevalence tokens mark "ID"-like
// columns that are intended to be unique.
package corpus

import (
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/unidetect/unidetect/internal/table"
)

// Corpus is a set of background tables with a token-prevalence index.
type Corpus struct {
	Name   string
	Tables []*table.Table

	idxOnce sync.Once
	idx     *TokenIndex
}

// New wraps tables into a Corpus.
func New(name string, tables []*table.Table) *Corpus {
	return &Corpus{Name: name, Tables: tables}
}

// NumTables returns the table count.
func (c *Corpus) NumTables() int { return len(c.Tables) }

// NumColumns returns the total column count across tables.
func (c *Corpus) NumColumns() int {
	n := 0
	for _, t := range c.Tables {
		n += t.NumCols()
	}
	return n
}

// AvgCols returns the mean columns per table.
func (c *Corpus) AvgCols() float64 {
	if len(c.Tables) == 0 {
		return 0
	}
	return float64(c.NumColumns()) / float64(len(c.Tables))
}

// AvgRows returns the mean rows per table.
func (c *Corpus) AvgRows() float64 {
	if len(c.Tables) == 0 {
		return 0
	}
	rows := 0
	for _, t := range c.Tables {
		rows += t.NumRows()
	}
	return float64(rows) / float64(len(c.Tables))
}

// Index returns the corpus's token-prevalence index, building it on first
// use (concurrently, via the mapreduce engine).
func (c *Corpus) Index() *TokenIndex {
	c.idxOnce.Do(func() {
		c.idx = BuildTokenIndex(c.Tables)
	})
	return c.idx
}

// TokenIndex maps tokens to the number of distinct corpus tables they
// appear in. Tokens are stored as 64-bit FNV hashes: the index only ever
// answers count queries, a rare collision merely perturbs one prevalence
// estimate, and hashing keeps the memory of near-unique ID tokens bounded.
type TokenIndex struct {
	counts    map[uint64]int32
	numTables int
}

// BuildTokenIndex scans every cell of every table, deduplicating tokens
// within a table so the count is "number of tables containing the token".
// Workers count into per-worker maps that are merged at the end, keeping
// the hot path lock-free (the same shard-then-merge shape the mapreduce
// engine uses, but with in-mapper combining so near-unique ID tokens cost
// one map entry instead of one emission each).
func BuildTokenIndex(tables []*table.Table) *TokenIndex {
	nw := runtime.GOMAXPROCS(0)
	if nw > len(tables) && len(tables) > 0 {
		nw = len(tables)
	}
	if nw < 1 {
		nw = 1
	}
	shards := make([]map[uint64]int32, nw)
	var wg sync.WaitGroup
	chunk := (len(tables) + nw - 1) / nw
	for w := 0; w < nw; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > len(tables) {
			hi = len(tables)
		}
		if lo >= hi {
			shards[w] = map[uint64]int32{}
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			local := make(map[uint64]int32, 1024)
			seen := make(map[uint64]bool, 128)
			var hs []uint64
			for _, t := range tables[lo:hi] {
				clear(seen)
				for _, col := range t.Columns {
					for _, v := range col.Values {
						hs = appendTokenHashes(hs[:0], v)
						for _, h := range hs {
							if !seen[h] {
								seen[h] = true
								local[h]++
							}
						}
					}
				}
			}
			shards[w] = local
		}(w, lo, hi)
	}
	wg.Wait()
	counts := shards[0]
	for _, s := range shards[1:] {
		for h, n := range s {
			counts[h] += n
		}
	}
	if counts == nil {
		counts = map[uint64]int32{}
	}
	return &TokenIndex{counts: counts, numTables: len(tables)}
}

// NumTables returns the number of tables the index was built over.
func (ix *TokenIndex) NumTables() int { return ix.numTables }

// Count returns the number of tables containing the token.
func (ix *TokenIndex) Count(tok string) int {
	return int(ix.counts[hashToken(tok)])
}

// Prevalence returns Prev(C) for a column: the average, over cells and
// their tokens, of the token's table count (§3.3). Columns with no tokens
// get prevalence 0. It is computed once per column profile and index
// and memoized on the profile, so every detector featurizing the column
// in one detect call shares one pass.
func (ix *TokenIndex) Prevalence(c *table.Column) float64 {
	p := c.Profile()
	if v, ok := p.Memo(ix); ok {
		return v
	}
	v := ix.prevalence(p)
	p.SetMemo(ix, v)
	return v
}

// prevalence computes Prevalence over a profile: one term, the mean
// table count of a value's tokens, per distinct value, added over the
// rows in row order — the same float additions in the same order as a
// per-cell pass, so the result is bit-identical to it.
//
// alloc-budget: 1 one term per distinct value; the token-hash buffer starts on the stack
func (ix *TokenIndex) prevalence(p *table.Profile) float64 {
	terms := make([]float64, len(p.Distinct))
	var buf [16]uint64
	hs := buf[:0]
	for i, d := range p.Distinct {
		hs = appendTokenHashes(hs[:0], d.Value)
		if len(hs) == 0 {
			terms[i] = -1 // no tokens: the value's rows are not averaged
			continue
		}
		var s float64
		for _, h := range hs {
			s += float64(ix.counts[h])
		}
		terms[i] = s / float64(len(hs))
	}
	var total float64
	var n int
	for _, code := range p.Codes {
		if t := terms[code]; t >= 0 {
			total += t
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Merge returns a new index combining both indexes' counts, as if built
// over the union of their corpora (assuming disjoint table sets).
func (ix *TokenIndex) Merge(other *TokenIndex) *TokenIndex {
	counts := make(map[uint64]int32, len(ix.counts)+len(other.counts))
	for h, n := range ix.counts {
		counts[h] = n
	}
	for h, n := range other.counts {
		counts[h] += n
	}
	return &TokenIndex{counts: counts, numTables: ix.numTables + other.numTables}
}

// RelPrevalence returns Prev(C) normalized by the corpus size: the
// average fraction of tables an average token of the column occurs in.
func (ix *TokenIndex) RelPrevalence(c *table.Column) float64 {
	if ix.numTables == 0 {
		return 0
	}
	return ix.Prevalence(c) / float64(ix.numTables)
}

// tokenIndexWire is the gob wire format of a TokenIndex: parallel
// hash/count slices sorted by hash, rather than a map, so the encoding
// is deterministic (gob writes maps in randomized iteration order, and
// model files promise byte-stable serialization).
type tokenIndexWire struct {
	Hashes    []uint64
	Counts    []int32
	NumTables int
}

// Encode writes the index to w (gob), so a trained model can carry its
// featurization context. The encoding is deterministic.
func (ix *TokenIndex) Encode(w io.Writer) error {
	wire := tokenIndexWire{
		Hashes:    make([]uint64, 0, len(ix.counts)),
		Counts:    make([]int32, 0, len(ix.counts)),
		NumTables: ix.numTables,
	}
	for h := range ix.counts {
		wire.Hashes = append(wire.Hashes, h)
	}
	sort.Slice(wire.Hashes, func(i, j int) bool { return wire.Hashes[i] < wire.Hashes[j] })
	for _, h := range wire.Hashes {
		wire.Counts = append(wire.Counts, ix.counts[h])
	}
	return gob.NewEncoder(w).Encode(wire)
}

// DecodeTokenIndex reads an index written by Encode.
func DecodeTokenIndex(r io.Reader) (*TokenIndex, error) {
	var w tokenIndexWire
	if err := gob.NewDecoder(r).Decode(&w); err != nil {
		return nil, fmt.Errorf("corpus: decode token index: %w", err)
	}
	if len(w.Hashes) != len(w.Counts) {
		return nil, fmt.Errorf("corpus: token index hash/count length mismatch (%d vs %d)", len(w.Hashes), len(w.Counts))
	}
	counts := make(map[uint64]int32, len(w.Hashes))
	for i, h := range w.Hashes {
		counts[h] = w.Counts[i]
	}
	return &TokenIndex{counts: counts, numTables: w.NumTables}, nil
}

func hashToken(tok string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(tok))
	return h.Sum64()
}

// FNV-1a 64-bit parameters, as hash/fnv's New64a uses them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// appendTokenHashes appends to hs the hashToken of every token of v, in
// order, exactly as over table.Tokenize(v), without building the
// tokens. Tokens are runs of ASCII letters and digits after lowercasing.
// An ASCII value is lowercased byte by byte on the fly; any other goes
// through strings.ToLower as Tokenize's does, because lowercasing can
// turn a non-ASCII rune into ASCII (the Kelvin sign into 'k'). Every
// byte of a multi-byte or invalid sequence is at least utf8.RuneSelf, so
// scanning bytes splits where Tokenize's rune scan does.
//
// alloc-budget: 2 non-ASCII values are lowercased as Tokenize does; the caller's hash buffer grows to its steady state
func appendTokenHashes(hs []uint64, v string) []uint64 {
	for i := 0; i < len(v); i++ {
		if v[i] >= utf8.RuneSelf {
			v = strings.ToLower(v)
			break
		}
	}
	h, in := uint64(fnvOffset64), false
	for i := 0; i < len(v); i++ {
		b := v[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if 'a' <= b && b <= 'z' || '0' <= b && b <= '9' {
			h, in = (h^uint64(b))*fnvPrime64, true
			continue
		}
		if in {
			hs = append(hs, h)
			h, in = fnvOffset64, false
		}
	}
	if in {
		hs = append(hs, h)
	}
	return hs
}
