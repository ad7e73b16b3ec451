package corpus

import (
	"math"
	"testing"

	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/table"
)

// This file keeps the per-cell token pass that Prevalence and
// BuildTokenIndex replaced — a table.Tokenize slice per cell, hashed
// token by token — as their oracle.

// tokenizePrevalence is Prevalence as the per-cell pass computed it.
func tokenizePrevalence(ix *TokenIndex, c *table.Column) float64 {
	var total float64
	var n int
	for _, v := range c.Values {
		toks := table.Tokenize(v)
		if len(toks) == 0 {
			continue
		}
		var s float64
		for _, tok := range toks {
			s += float64(ix.counts[hashToken(tok)])
		}
		total += s / float64(len(toks))
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// tokenizeCounts is BuildTokenIndex's count map as the per-cell pass
// built it.
func tokenizeCounts(tables []*table.Table) map[uint64]int32 {
	counts := map[uint64]int32{}
	for _, t := range tables {
		seen := map[uint64]bool{}
		for _, col := range t.Columns {
			for _, v := range col.Values {
				for _, tok := range table.Tokenize(v) {
					if h := hashToken(tok); !seen[h] {
						seen[h] = true
						counts[h]++
					}
				}
			}
		}
	}
	return counts
}

// adversarialValues lowercase, split or decode differently from ASCII:
// a dotted capital I that lowercases to two runes, the Kelvin sign that
// lowercases to ASCII 'k', sharp s, a ligature, invalid UTF-8, CJK and
// mixed-case ASCII with punctuation.
var adversarialValues = []string{
	"İstanbul", "İİ", "K", "Kelvin 12K", "Straße", "STRASSE", "ﬁle", "ﬁ",
	"\xff", "a\xffb", "\xc3", "x\xe2\x82", "東京 2020", "東京", "Hello, World!", "hello-world",
	"ABC_def.GHI", "A1b2-C3", "", "   ", "--", "Ünïcödé Tëxt", "ǅemal", "ΣΊΣΥΦΟΣ",
}

// TestPrevalenceMatchesTokenize holds Prevalence to the per-cell pass,
// float64 bit for bit, on every column of the WEB, WIKI and Enterprise
// test samples and on a column of adversarial values, and the index's
// counts to the per-cell build.
func TestPrevalenceMatchesTokenize(t *testing.T) {
	var tables []*table.Table
	for _, spec := range []datagen.Spec{datagen.WebSpec(), datagen.WikiSpec(), datagen.EnterpriseSpec()} {
		spec = datagen.TestSample(spec)
		if testing.Short() {
			spec.NumTables = min(spec.NumTables, 100)
		}
		tables = append(tables, datagen.Generate(spec).Tables...)
	}
	adv := table.NewColumn("adversarial", append(adversarialValues, adversarialValues...))
	tables = append(tables, table.MustNew("adversarial", adv))
	ix := BuildTokenIndex(tables)
	if want := tokenizeCounts(tables); len(ix.counts) != len(want) {
		t.Fatalf("index holds %d tokens, the per-cell build %d", len(ix.counts), len(want))
	} else {
		for h, n := range want {
			if ix.counts[h] != n {
				t.Fatalf("token %#x: count %d, the per-cell build %d", h, ix.counts[h], n)
			}
		}
	}
	cols := 0
	for _, tbl := range tables {
		for _, c := range tbl.Columns {
			got, want := ix.Prevalence(c), tokenizePrevalence(ix, c)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s/%s: Prevalence = %v, per-cell %v", tbl.Name, c.Name, got, want)
			}
			// The second call reads the profile's memo.
			if again := ix.Prevalence(c); math.Float64bits(again) != math.Float64bits(want) {
				t.Fatalf("%s/%s: memoized Prevalence = %v, per-cell %v", tbl.Name, c.Name, again, want)
			}
			cols++
		}
	}
	if tokenizePrevalence(ix, adv) == 0 {
		t.Fatal("the adversarial column has no indexed tokens")
	}
	t.Logf("%d columns", cols)
}

// TestPrevalenceMemoPerIndex checks that the profile's memo answers only
// the index that filled it.
func TestPrevalenceMemoPerIndex(t *testing.T) {
	c := table.NewColumn("x", []string{"alpha beta", "beta", "gamma"})
	a := BuildTokenIndex([]*table.Table{mkTable("a", table.NewColumn("x", []string{"alpha", "beta"}))})
	b := BuildTokenIndex([]*table.Table{mkTable("b", table.NewColumn("x", []string{"gamma"}))})
	for _, ix := range []*TokenIndex{a, b, a} {
		got, want := ix.Prevalence(c), tokenizePrevalence(ix, c)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Prevalence = %v, per-cell %v", got, want)
		}
	}
}

// FuzzTokenHashes holds the in-place token hashes to hashToken over
// table.Tokenize, for any string.
func FuzzTokenHashes(f *testing.F) {
	for _, v := range adversarialValues {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		toks := table.Tokenize(v)
		hs := appendTokenHashes(nil, v)
		if len(hs) != len(toks) {
			t.Fatalf("%q: %d hashes, Tokenize gives %d tokens %q", v, len(hs), len(toks), toks)
		}
		for i, tok := range toks {
			if hs[i] != hashToken(tok) {
				t.Fatalf("%q: hash %d is %#x, hashToken(%q) = %#x", v, i, hs[i], tok, hashToken(tok))
			}
		}
	})
}
