package synth

import (
	"reflect"
	"testing"
)

func TestLearnConcat(t *testing.T) {
	// Figure 13: id -> "Malaysia Federal Route <id>".
	xs := []string{"736", "737", "738", "739", "740"}
	ys := []string{
		"Malaysia Federal Route 736",
		"Malaysia Federal Route 737",
		"Malaysia Federal Route 738",
		"Malaysia Federal Route 739",
		"Malaysia Federal Route 740",
	}
	fit, ok := learn(xs, ys, 0.6)
	if !ok {
		t.Fatal("Learn failed")
	}
	if fit.Conforming != 1 {
		t.Errorf("Conforming = %v", fit.Conforming)
	}
	c, isConcat := fit.Program.(Concat)
	if !isConcat || c.Prefix != "Malaysia Federal Route " || c.Suffix != "" {
		t.Errorf("program = %v", fit.Program)
	}
}

func TestLearnConcatDetectsViolation(t *testing.T) {
	// Figure 13's real error: shield "738" next to "...Route 748".
	xs := []string{"736", "737", "738", "739", "740"}
	ys := []string{
		"Malaysia Federal Route 736",
		"Malaysia Federal Route 737",
		"Malaysia Federal Route 748", // mismatch
		"Malaysia Federal Route 739",
		"Malaysia Federal Route 740",
	}
	fit, ok := learn(xs, ys, 0.6)
	if !ok {
		t.Fatal("Learn failed")
	}
	if !reflect.DeepEqual(fit.Violations, []int{2}) {
		t.Errorf("Violations = %v", fit.Violations)
	}
	if fit.Conforming != 0.8 {
		t.Errorf("Conforming = %v", fit.Conforming)
	}
}

func TestLearnSplit(t *testing.T) {
	// Appendix D: "Doe, John" -> "Doe".
	xs := []string{"Doe, John", "Smith, Jane", "Keane, Andrew"}
	ys := []string{"Doe", "Smith", "Keane"}
	fit, ok := learn(xs, ys, 0.9)
	if !ok {
		t.Fatal("Learn failed")
	}
	s, isSplit := fit.Program.(SplitSelect)
	if !isSplit || s.Sep != ", " || s.Index != 0 {
		t.Errorf("program = %v", fit.Program)
	}
	if fit.Conforming != 1 {
		t.Errorf("Conforming = %v", fit.Conforming)
	}
}

func TestLearnSplitSecondField(t *testing.T) {
	xs := []string{"Doe, John", "Smith, Jane"}
	ys := []string{"John", "Jane"}
	fit, ok := learn(xs, ys, 0.9)
	if !ok {
		t.Fatal("Learn failed")
	}
	s, isSplit := fit.Program.(SplitSelect)
	if !isSplit || s.Index != 1 {
		t.Errorf("program = %v", fit.Program)
	}
}

func TestLearnIdentityAndCase(t *testing.T) {
	fit, ok := learn([]string{"a", "b"}, []string{"a", "b"}, 1)
	if !ok {
		t.Fatal("identity not learned")
	}
	if _, isID := fit.Program.(Identity); !isID {
		t.Errorf("program = %v", fit.Program)
	}
	fit, ok = learn([]string{"ab", "cd"}, []string{"AB", "CD"}, 1)
	if !ok {
		t.Fatal("upper not learned")
	}
	if c, isCase := fit.Program.(CaseTransform); !isCase || !c.Upper {
		t.Errorf("program = %v", fit.Program)
	}
}

func TestLearnRejectsUnrelated(t *testing.T) {
	xs := []string{"alpha", "beta", "gamma", "delta"}
	ys := []string{"1", "7", "42", "9000"}
	if fit, ok := learn(xs, ys, 0.6); ok {
		t.Errorf("unrelated columns learned program %v (%.2f conforming)", fit.Program, fit.Conforming)
	}
}

func TestLearnDegenerate(t *testing.T) {
	if _, ok := learn(nil, nil, 0.5); ok {
		t.Error("empty input should fail")
	}
	if _, ok := learn([]string{"a"}, []string{"a", "b"}, 0.5); ok {
		t.Error("length mismatch should fail")
	}
}

func TestSplitSelectDomain(t *testing.T) {
	p := SplitSelect{Sep: ", ", Index: 1}
	if _, ok := p.Apply("no separator here"); ok {
		t.Error("missing separator should be out of domain")
	}
	if out, ok := p.Apply("a, b"); !ok || out != "b" {
		t.Errorf("Apply = %q, %v", out, ok)
	}
}

func TestProgramStrings(t *testing.T) {
	progs := []Program{
		Identity{},
		Concat{Prefix: "p", Suffix: "s"},
		SplitSelect{Sep: ",", Index: 2},
		CaseTransform{Upper: true},
		CaseTransform{},
	}
	for _, p := range progs {
		if p.String() == "" {
			t.Errorf("%T has empty String()", p)
		}
	}
}

func TestLearnSkipsEmptyRows(t *testing.T) {
	xs := []string{"736", "", "738"}
	ys := []string{"Route 736", "", "Route 738"}
	fit, ok := learn(xs, ys, 0.9)
	if !ok {
		t.Fatal("Learn failed")
	}
	if fit.Conforming != 1 {
		t.Errorf("Conforming = %v (empty rows must not count as violations)", fit.Conforming)
	}
}

// learn prepares xs and runs Learn, for pairs tried once.
func learn(xs, ys []string, minConforming float64) (Fit, bool) {
	lhs := NewLhs(xs)
	return Learn(&lhs, ys, minConforming)
}
