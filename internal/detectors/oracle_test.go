package detectors

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/corpus"
	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/feature"
	"github.com/unidetect/unidetect/internal/synth"
	"github.com/unidetect/unidetect/internal/table"
)

// This file keeps the string-map FD and uniqueness implementations as
// the oracles the profile-based detectors are held to.

// frStats summarizes one candidate FD (Cl -> Cr).
type frStats struct {
	fr         float64 // FR over distinct tuples (§3.4)
	violations []int   // minority rows of violating groups
	groupRows  []int   // all rows of violating groups (for reporting)
	groups     int     // number of violating lhs groups
}

// computeFR evaluates FR_D(Cl, Cr) and the natural perturbation O: within
// each lhs group carrying more than one rhs value, every row not holding
// the group's majority rhs is suspect.
func computeFR(lhs, rhs []string) frStats {
	type group struct {
		rhsCount map[string]int
		rows     map[string][]int
	}
	groups := make(map[string]*group)
	for i := range lhs {
		g := groups[lhs[i]]
		if g == nil {
			g = &group{rhsCount: map[string]int{}, rows: map[string][]int{}}
			groups[lhs[i]] = g
		}
		g.rhsCount[rhs[i]]++
		g.rows[rhs[i]] = append(g.rows[rhs[i]], i)
	}
	var distinctTuples, conformingTuples int
	var st frStats
	for _, g := range groups {
		distinctTuples += len(g.rhsCount)
		if len(g.rhsCount) == 1 {
			conformingTuples++
			continue
		}
		st.groups++
		// Keep the majority rhs (ties broken by first occurrence) and
		// mark the rest.
		var majority string
		best := -1
		for v, rowList := range g.rows {
			c := g.rhsCount[v]
			if c > best || (c == best && rowList[0] < g.rows[majority][0]) {
				best, majority = c, v
			}
		}
		for v, rowList := range g.rows {
			st.groupRows = append(st.groupRows, rowList...)
			if v != majority {
				st.violations = append(st.violations, rowList...)
			}
		}
	}
	sort.Ints(st.violations)
	sort.Ints(st.groupRows)
	if distinctTuples > 0 {
		st.fr = float64(conformingTuples) / float64(distinctTuples)
	}
	return st
}

// oracleFD is FD.Measure as the string-map implementation computed it.
func oracleFD(d *FD, t *table.Table, env *core.Env) []core.Measurement {
	var out []core.Measurement
	n := t.NumRows()
	if n < d.Cfg.MinRows {
		return nil
	}
	pairs := 0
	for li, lc := range t.Columns {
		for ri, rc := range t.Columns {
			if li == ri {
				continue
			}
			if pairs >= d.Cfg.MaxFDPairs {
				return out
			}
			pairs++
			st := computeFR(lc.Values, rc.Values)
			eps := d.Cfg.Epsilon(n)
			valid := len(st.violations) > 0 && len(st.violations) <= eps
			theta2 := 1.0
			if len(st.violations) > eps {
				theta2 = st.fr
			}
			m := core.Measurement{
				Key: feature.Key{
					Type: lc.Type(),
					Rows: feature.RowBucket(n),
					A:    feature.RelPrevalenceBucket(prevalenceOf(env, lc)),
					B:    feature.LeftnessBucket(li),
				},
				Theta1: st.fr,
				Theta2: theta2,
				Valid:  valid,
				Column: lc.Name + "→" + rc.Name,
				Detail: fmt.Sprintf("FR=%.4f with %d violating group(s)", st.fr, st.groups),
			}
			if valid {
				m.Rows = st.groupRows
				for _, r := range st.groupRows {
					m.Values = append(m.Values, lc.Values[r]+"/"+rc.Values[r])
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// oracleFDSynth is FDSynth.Measure as it was assembled before
// prevalence moved to once per lhs column and fmt left the pair loop.
// synth's own tests hold Learn to the synthesis it replaced.
func oracleFDSynth(d *FDSynth, t *table.Table, env *core.Env) []core.Measurement {
	var out []core.Measurement
	n := t.NumRows()
	if n < d.Cfg.MinRows {
		return nil
	}
	pairs := 0
	for li, lc := range t.Columns {
		for ri, rc := range t.Columns {
			if li == ri {
				continue
			}
			if pairs >= d.Cfg.MaxFDPairs {
				return out
			}
			pairs++
			lhs := synth.NewLhs(lc.Values)
			fit, ok := synth.Learn(&lhs, rc.Values, d.minConforming())
			if !ok {
				continue
			}
			if _, isID := fit.Program.(synth.Identity); isID {
				continue
			}
			eps := d.Cfg.Epsilon(n)
			valid := len(fit.Violations) > 0 && len(fit.Violations) <= eps
			theta2 := 1.0
			if len(fit.Violations) > eps {
				theta2 = fit.Conforming
			}
			m := core.Measurement{
				Key: feature.Key{
					Type: lc.Type(),
					Rows: feature.RowBucket(n),
					A:    feature.RelPrevalenceBucket(prevalenceOf(env, lc)),
					B:    feature.LeftnessBucket(li),
				},
				Theta1: fit.Conforming,
				Theta2: theta2,
				Valid:  valid,
				Column: lc.Name + "→" + rc.Name,
				Detail: fmt.Sprintf("program %s conforms %.4f", fit.Program, fit.Conforming),
			}
			if valid {
				m.Rows = fit.Violations
				for _, r := range fit.Violations {
					m.Values = append(m.Values, rc.Values[r])
				}
			}
			out = append(out, m)
		}
	}
	return out
}

// duplicateRows returns (a) the row indices of every value occurrence
// beyond the first — the natural O to drop — and (b) all rows holding a
// duplicated value, for reporting.
func duplicateRows(vals []string) (drop, groups []int) {
	first := make(map[string]int, len(vals))
	counted := make(map[string]bool)
	for i, v := range vals {
		j, seen := first[v]
		if !seen {
			first[v] = i
			continue
		}
		drop = append(drop, i)
		if !counted[v] {
			counted[v] = true
			groups = append(groups, j)
		}
		groups = append(groups, i)
	}
	sort.Ints(groups)
	return drop, groups
}

// oracleUniqueness is Uniqueness.MeasureColumn as the string-map
// implementation computed it.
func oracleUniqueness(d *Uniqueness, t *table.Table, pos int, env *core.Env) []core.Measurement {
	c := t.Columns[pos]
	n := c.Len()
	if n < d.Cfg.MinRows {
		return nil
	}
	typ := c.Type()
	if typ == table.TypeEmpty {
		return nil
	}
	dup, dupGroups := duplicateRows(c.Values)
	distinct := n - len(dup)
	theta1 := float64(distinct) / float64(n)
	eps := d.Cfg.Epsilon(n)
	k := len(dup)
	valid := k > 0 && k <= eps
	if k > eps {
		k = eps
	}
	m := core.Measurement{
		Key: feature.Key{
			Type: typ,
			Rows: feature.RowBucket(n),
			A:    feature.RelPrevalenceBucket(prevalenceOf(env, c)),
			B:    feature.LeftnessBucket(pos),
		},
		Theta1: theta1,
		Theta2: float64(distinct) / float64(n-k),
		Valid:  valid,
		Column: c.Name,
		Detail: fmt.Sprintf("%.4f unique; %d duplicate row(s)", theta1, len(dup)),
	}
	if valid {
		m.Rows = dupGroups
		for _, r := range dupGroups {
			m.Values = append(m.Values, c.Values[r])
		}
	}
	return []core.Measurement{m}
}

// oracleTables are generated tables of every profile, with errors.
func oracleTables(t *testing.T) []*table.Table {
	var out []*table.Table
	for _, spec := range []datagen.Spec{datagen.WebSpec(), datagen.WikiSpec(), datagen.EnterpriseSpec()} {
		spec.NumTables = 60
		if testing.Short() {
			spec.NumTables = 15
		}
		spec.ErrorRate = 1
		out = append(out, datagen.Generate(spec).Tables...)
	}
	return out
}

// TestFDMatchesOracle holds FD.Measure to the string-map implementation
// on every measured pair of generated tables, featurization included.
func TestFDMatchesOracle(t *testing.T) {
	tables := oracleTables(t)
	env := &core.Env{Index: corpus.BuildTokenIndex(tables)}
	wide := cfg()
	wide.MaxFDPairs, wide.EpsilonFrac = 1000, 0.2
	for _, c := range []core.Config{cfg(), wide} {
		d := &FD{Cfg: c}
		valid := 0
		for _, tbl := range tables {
			got, want := d.Measure(tbl, env), oracleFD(d, tbl, env)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("table %s: FD.Measure differs from the oracle\n got %+v\nwant %+v", tbl.Name, got, want)
			}
			valid += countValid(got)
		}
		if valid == 0 {
			t.Errorf("no valid FD measurement at ε=%v: the sweep does not reach row reporting", c.EpsilonFrac)
		}
	}
}

func countValid(ms []core.Measurement) int {
	n := 0
	for _, m := range ms {
		if m.Valid {
			n++
		}
	}
	return n
}

// TestFDSynthMatchesOracle does the same for FD-synthesis.
func TestFDSynthMatchesOracle(t *testing.T) {
	tables := oracleTables(t)
	env := &core.Env{Index: corpus.BuildTokenIndex(tables)}
	d := &FDSynth{Cfg: cfg()}
	measured, valid := 0, 0
	for _, tbl := range tables {
		got, want := d.Measure(tbl, env), oracleFDSynth(d, tbl, env)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("table %s: FDSynth.Measure differs from the oracle\n got %+v\nwant %+v", tbl.Name, got, want)
		}
		measured, valid = measured+len(got), valid+countValid(got)
	}
	if measured == 0 || valid == 0 {
		t.Errorf("%d measurements, %d valid: the sweep does not reach row reporting", measured, valid)
	}
}

// TestUniquenessMatchesOracle holds Uniqueness.MeasureColumn to the
// string-map implementation on every column of the tables the FD oracle
// test uses, at the default ε and at a wide one that validates more
// columns.
func TestUniquenessMatchesOracle(t *testing.T) {
	tables := oracleTables(t)
	env := &core.Env{Index: corpus.BuildTokenIndex(tables)}
	wide := cfg()
	wide.EpsilonFrac = 0.2
	for _, c := range []core.Config{cfg(), wide} {
		d := &Uniqueness{Cfg: c}
		measured, valid := 0, 0
		for _, tbl := range tables {
			for pos := range tbl.Columns {
				got, want := d.MeasureColumn(tbl, pos, env, nil), oracleUniqueness(d, tbl, pos, env)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s column %d: MeasureColumn differs from the oracle\n got %+v\nwant %+v", tbl.Name, pos, got, want)
				}
				measured, valid = measured+len(got), valid+countValid(got)
			}
		}
		if measured == 0 || valid == 0 {
			t.Errorf("ε=%v: %d measurements, %d valid: the sweep does not reach row reporting", c.EpsilonFrac, measured, valid)
		}
	}
}

// TestFDPairKernelAllocs pins the pair kernel allocation-free once the
// table's scratch is built and its columns encoded.
func TestFDPairKernelAllocs(t *testing.T) {
	var tbl *table.Table
	for _, c := range oracleTables(t) {
		if len(c.Columns) >= 3 && c.NumRows() >= 50 {
			tbl = c
			break
		}
	}
	fs := newFDScratch(tbl)
	fs.groupBy(0)
	fs.count(fs.column(1))
	fs.count(fs.column(2))
	if n := testing.AllocsPerRun(50, func() {
		fs.count(fs.column(1))
		fs.count(fs.column(2))
	}); n != 0 {
		t.Errorf("FD pair counting on a warm scratch: %v allocs/op, want 0", n)
	}
}
