package detectors

import (
	"strings"
	"testing"

	"github.com/unidetect/unidetect/internal/core"
	"github.com/unidetect/unidetect/internal/table"
	"github.com/unidetect/unidetect/internal/wordlist"
)

func cfg() core.Config { return core.DefaultConfig() }

func col(name string, vals ...string) *table.Column { return table.NewColumn(name, vals) }

func TestOutlierMeasure(t *testing.T) {
	d := &Outlier{Cfg: cfg()}
	tbl := table.MustNew("t",
		col("Pop", "8011", "8.716", "9954", "11895", "11329", "11352", "11709", "10100"),
		col("Name", "a", "b", "c", "d", "e", "f", "g", "h"),
	)
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d, want 1 (numeric column only)", len(ms))
	}
	m := ms[0]
	if m.Column != "Pop" || !m.Valid {
		t.Errorf("m = %+v", m)
	}
	if len(m.Rows) != 1 || m.Rows[0] != 1 {
		t.Errorf("Rows = %v, want [1] (the 8.716 cell)", m.Rows)
	}
	if m.Theta1 <= m.Theta2 {
		t.Errorf("theta1 %v should exceed theta2 %v after dropping the outlier", m.Theta1, m.Theta2)
	}
}

func TestOutlierSkipsShortAndNonNumeric(t *testing.T) {
	d := &Outlier{Cfg: cfg()}
	tbl := table.MustNew("t",
		col("Few", "1", "2", "3"),
		col("Words", "x", "y", "z"),
	)
	if ms := d.Measure(tbl, nil); len(ms) != 0 {
		t.Errorf("measurements = %v", ms)
	}
}

func TestOutlierSDVariantDiffers(t *testing.T) {
	mad := &Outlier{Cfg: cfg()}
	sd := &Outlier{Cfg: cfg(), Metric: DispersionSD}
	tbl := table.MustNew("t",
		col("V", "10", "11", "12", "10", "11", "12", "11", "1000"),
	)
	mm := mad.Measure(tbl, nil)
	ms := sd.Measure(tbl, nil)
	if len(mm) != 1 || len(ms) != 1 {
		t.Fatal("expected one measurement each")
	}
	if mm[0].Theta1 <= ms[0].Theta1 {
		t.Errorf("MAD score %v should exceed SD score %v for a masked outlier", mm[0].Theta1, ms[0].Theta1)
	}
}

func TestSpellingMeasureFindsTypoPair(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	tbl := table.MustNew("t", col("Director",
		"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow", "Lesli Glatter", "Peter Bonerz"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	m := ms[0]
	if m.Theta1 != 1 {
		t.Errorf("theta1 = %v, want 1", m.Theta1)
	}
	if m.Theta2 < 5 {
		t.Errorf("theta2 = %v, want large jump", m.Theta2)
	}
	if len(m.Rows) != 2 || m.Rows[0] != 0 || m.Rows[1] != 1 {
		t.Errorf("Rows = %v", m.Rows)
	}
}

func TestSpellingSkipsNumericColumns(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	tbl := table.MustNew("t", col("N", "100", "101", "102", "103", "104", "105"))
	if ms := d.Measure(tbl, nil); len(ms) != 0 {
		t.Errorf("numeric column measured: %v", ms)
	}
}

func TestSpellingRomanColumnNotSurprising(t *testing.T) {
	d := &Spelling{Cfg: cfg()}
	tbl := table.MustNew("t", col("SB",
		"Super Bowl XX", "Super Bowl XXI", "Super Bowl XXII", "Super Bowl XXV", "Super Bowl XXVI", "Super Bowl XXVII"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	// MPD stays tiny after perturbation: theta2 - theta1 small.
	if ms[0].Theta2 > ms[0].Theta1+1 {
		t.Errorf("roman column jumped: theta1=%v theta2=%v", ms[0].Theta1, ms[0].Theta2)
	}
}

func TestSpellingDictRefutesWordPairs(t *testing.T) {
	d := &Spelling{Cfg: cfg(), Dict: wordlist.Dictionary()}
	tbl := table.MustNew("t", col("Course",
		"Macroeconomics", "Microeconomics", "Ancient History", "Linear Algebra Basics", "Organic Chemistry", "World Geography"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Valid {
		t.Error("dictionary-word pair should be refuted (Valid=false)")
	}
	if !strings.Contains(ms[0].Detail, "refuted") {
		t.Errorf("Detail = %q", ms[0].Detail)
	}
	// Without the dictionary the pair stays a candidate.
	d2 := &Spelling{Cfg: cfg()}
	ms2 := d2.Measure(tbl, nil)
	if !ms2[0].Valid {
		t.Error("without Dict the pair should remain valid")
	}
}

func TestUniquenessMeasure(t *testing.T) {
	d := &Uniqueness{Cfg: cfg()}
	vals := make([]string, 0, 100)
	for i := 0; i < 100; i++ {
		vals = append(vals, string(rune('A'+i%26))+string(rune('0'+i/26))+"x")
	}
	vals[50] = vals[10] // one duplicate
	tbl := table.MustNew("t", col("ID", vals...))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	m := ms[0]
	if !m.Valid {
		t.Fatal("one duplicate within epsilon should be valid")
	}
	if m.Theta1 != 0.99 {
		t.Errorf("theta1 = %v", m.Theta1)
	}
	if m.Theta2 != 1 {
		t.Errorf("theta2 = %v", m.Theta2)
	}
	// Both colliding rows are reported.
	if len(m.Rows) != 2 || m.Rows[0] != 10 || m.Rows[1] != 50 {
		t.Errorf("Rows = %v, want [10 50]", m.Rows)
	}
}

func TestUniquenessTooManyDuplicatesInvalid(t *testing.T) {
	d := &Uniqueness{Cfg: cfg()}
	vals := make([]string, 100)
	for i := range vals {
		vals[i] = string(rune('A' + i%10)) // 10 distinct values
	}
	tbl := table.MustNew("t", col("Cat", vals...))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Valid {
		t.Error("90 duplicates cannot fit the ε budget")
	}
	if ms[0].Theta1 != 0.1 {
		t.Errorf("theta1 = %v", ms[0].Theta1)
	}
}

func TestUniquenessFullyUniqueEvidenceOnly(t *testing.T) {
	d := &Uniqueness{Cfg: cfg()}
	tbl := table.MustNew("t", col("ID", "a1", "b2", "c3", "d4", "e5", "f6"))
	ms := d.Measure(tbl, nil)
	if len(ms) != 1 {
		t.Fatalf("measurements = %d", len(ms))
	}
	if ms[0].Valid {
		t.Error("fully unique column must be evidence-only")
	}
	if ms[0].Theta1 != 1 || ms[0].Theta2 != 1 {
		t.Errorf("thetas = %v, %v", ms[0].Theta1, ms[0].Theta2)
	}
}

func TestFDMeasureDetectsViolation(t *testing.T) {
	d := &FD{Cfg: cfg()}
	city := col("City", "Paris", "Lyon", "Paris", "Nice", "Lyon", "Paris")
	country := col("Country", "France", "France", "France", "France", "France", "Italy")
	tbl := table.MustNew("t", city, country)
	ms := d.Measure(tbl, nil)
	var m *core.Measurement
	for i := range ms {
		if ms[i].Column == "City→Country" {
			m = &ms[i]
		}
	}
	if m == nil {
		t.Fatal("no City→Country measurement")
	}
	if !m.Valid {
		t.Fatalf("violation should be a valid candidate: %+v", m)
	}
	// The full violating group (all Paris rows) is reported; which side
	// is wrong is left to the user, as in the paper's examples.
	if len(m.Rows) != 3 || m.Rows[0] != 0 || m.Rows[1] != 2 || m.Rows[2] != 5 {
		t.Errorf("Rows = %v, want [0 2 5] (the Paris group)", m.Rows)
	}
	if m.Values[2] != "Paris/Italy" {
		t.Errorf("Values = %v", m.Values)
	}
	// Distinct tuples: (Paris,France),(Paris,Italy),(Lyon,France),(Nice,France) = 4;
	// conforming lhs groups: Lyon, Nice = 2 tuples. FR = 2/4.
	if m.Theta1 != 0.5 {
		t.Errorf("theta1 = %v, want 0.5", m.Theta1)
	}
	if m.Theta2 != 1 {
		t.Errorf("theta2 = %v, want 1", m.Theta2)
	}
}

func TestComputeFRCleanPair(t *testing.T) {
	st := computeFR(
		[]string{"a", "b", "a", "c"},
		[]string{"1", "2", "1", "3"},
	)
	if st.fr != 1 || len(st.violations) != 0 || st.groups != 0 {
		t.Errorf("st = %+v", st)
	}
}

func TestComputeFRMajorityKept(t *testing.T) {
	st := computeFR(
		[]string{"x", "x", "x", "y"},
		[]string{"1", "1", "2", "3"},
	)
	if len(st.violations) != 1 || st.violations[0] != 2 {
		t.Errorf("violations = %v, want the minority row [2]", st.violations)
	}
}

func TestFDSynthMeasure(t *testing.T) {
	d := &FDSynth{Cfg: cfg()}
	num := col("Num", "736", "737", "738", "739", "740", "741")
	title := col("Title",
		"Federal Route 736", "Federal Route 737", "Federal Route 748",
		"Federal Route 739", "Federal Route 740", "Federal Route 741")
	tbl := table.MustNew("t", num, title)
	ms := d.Measure(tbl, nil)
	var m *core.Measurement
	for i := range ms {
		if ms[i].Column == "Num→Title" {
			m = &ms[i]
		}
	}
	if m == nil {
		t.Fatalf("no Num→Title measurement in %v", ms)
	}
	if !m.Valid {
		t.Fatalf("violation should be valid: %+v", m)
	}
	if len(m.Rows) != 1 || m.Rows[0] != 2 {
		t.Errorf("Rows = %v, want [2]", m.Rows)
	}
	if !strings.Contains(m.Detail, "concat") {
		t.Errorf("Detail = %q", m.Detail)
	}
}

func TestFDSynthIgnoresUnrelatedColumns(t *testing.T) {
	d := &FDSynth{Cfg: cfg()}
	tbl := table.MustNew("t",
		col("A", "alpha", "beta", "gamma", "delta", "epsilon", "zeta"),
		col("B", "1", "77", "42", "9000", "3", "12"),
	)
	if ms := d.Measure(tbl, nil); len(ms) != 0 {
		t.Errorf("unrelated columns measured: %v", ms)
	}
}

func TestAllReturnsFiveDetectors(t *testing.T) {
	ds := All(cfg(), Options{})
	if len(ds) != 5 {
		t.Fatalf("detectors = %d", len(ds))
	}
	classes := map[core.Class]bool{}
	for _, d := range ds {
		classes[d.Class()] = true
	}
	for c := core.Class(0); int(c) < core.NumClasses; c++ {
		if !classes[c] {
			t.Errorf("missing detector for class %v", c)
		}
	}
	if len(All(cfg(), Options{SkipFDSynth: true})) != 4 {
		t.Error("SkipFDSynth should drop one detector")
	}
	if ByClass(cfg(), Options{}, core.ClassOutlier) == nil {
		t.Error("ByClass failed")
	}
}
