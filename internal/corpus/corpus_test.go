package corpus

import (
	"fmt"
	"testing"

	"github.com/unidetect/unidetect/internal/table"
)

func mkTable(name string, cols ...*table.Column) *table.Table {
	return table.MustNew(name, cols...)
}

func TestCorpusStats(t *testing.T) {
	c := New("c", []*table.Table{
		mkTable("a", table.NewColumn("x", []string{"1", "2"})),
		mkTable("b",
			table.NewColumn("x", []string{"1", "2", "3", "4"}),
			table.NewColumn("y", []string{"a", "b", "c", "d"})),
	})
	if c.NumTables() != 2 {
		t.Errorf("NumTables = %d", c.NumTables())
	}
	if c.NumColumns() != 3 {
		t.Errorf("NumColumns = %d", c.NumColumns())
	}
	if c.AvgCols() != 1.5 {
		t.Errorf("AvgCols = %v", c.AvgCols())
	}
	if c.AvgRows() != 3 {
		t.Errorf("AvgRows = %v", c.AvgRows())
	}
	empty := New("e", nil)
	if empty.AvgCols() != 0 || empty.AvgRows() != 0 {
		t.Error("empty corpus averages should be 0")
	}
}

func TestTokenIndexCounts(t *testing.T) {
	tables := []*table.Table{
		mkTable("t1", table.NewColumn("c", []string{"apple pie", "apple tart"})),
		mkTable("t2", table.NewColumn("c", []string{"apple", "banana"})),
		mkTable("t3", table.NewColumn("c", []string{"cherry"})),
	}
	ix := BuildTokenIndex(tables)
	if ix.NumTables() != 3 {
		t.Errorf("NumTables = %d", ix.NumTables())
	}
	// "apple" appears in t1 twice but must count once per table.
	if got := ix.Count("apple"); got != 2 {
		t.Errorf("Count(apple) = %d, want 2", got)
	}
	if got := ix.Count("banana"); got != 1 {
		t.Errorf("Count(banana) = %d, want 1", got)
	}
	if got := ix.Count("missing"); got != 0 {
		t.Errorf("Count(missing) = %d, want 0", got)
	}
	// Tokenization is case-insensitive.
	if got := ix.Count("APPLE"); got != 0 {
		t.Errorf("index stores lowercase tokens; Count(APPLE) = %d", got)
	}
}

func TestPrevalence(t *testing.T) {
	tables := make([]*table.Table, 0, 10)
	for i := 0; i < 10; i++ {
		tables = append(tables, mkTable(fmt.Sprintf("t%d", i),
			table.NewColumn("c", []string{"common value"})))
	}
	tables = append(tables, mkTable("rare",
		table.NewColumn("c", []string{"zzqx917"})))
	ix := BuildTokenIndex(tables)

	common := table.NewColumn("c", []string{"common value", "common value"})
	rare := table.NewColumn("c", []string{"zzqx917"})
	pc := ix.Prevalence(common)
	pr := ix.Prevalence(rare)
	if pc <= pr {
		t.Errorf("Prevalence(common)=%v should exceed Prevalence(rare)=%v", pc, pr)
	}
	if pc != 10 {
		t.Errorf("Prevalence(common) = %v, want 10", pc)
	}
	if pr != 1 {
		t.Errorf("Prevalence(rare) = %v, want 1", pr)
	}
	emptyCol := table.NewColumn("c", []string{"", "--"})
	if got := ix.Prevalence(emptyCol); got != 0 {
		t.Errorf("Prevalence(tokenless) = %v, want 0", got)
	}
}

func TestIndexLazyBuildIsStable(t *testing.T) {
	c := New("c", []*table.Table{
		mkTable("t", table.NewColumn("c", []string{"alpha beta"})),
	})
	a := c.Index()
	b := c.Index()
	if a != b {
		t.Error("Index must be built once and cached")
	}
	if a.Count("alpha") != 1 {
		t.Errorf("Count(alpha) = %d", a.Count("alpha"))
	}
}

func TestBuildTokenIndexEmpty(t *testing.T) {
	ix := BuildTokenIndex(nil)
	if ix.NumTables() != 0 || ix.Count("x") != 0 {
		t.Error("empty index should answer zero counts")
	}
}

func TestTokenIndexMerge(t *testing.T) {
	a := BuildTokenIndex([]*table.Table{
		mkTable("t1", table.NewColumn("c", []string{"alpha beta"})),
		mkTable("t2", table.NewColumn("c", []string{"alpha"})),
	})
	b := BuildTokenIndex([]*table.Table{
		mkTable("t3", table.NewColumn("c", []string{"alpha gamma"})),
	})
	m := a.Merge(b)
	if m.NumTables() != 3 {
		t.Errorf("NumTables = %d", m.NumTables())
	}
	if m.Count("alpha") != 3 || m.Count("beta") != 1 || m.Count("gamma") != 1 {
		t.Errorf("counts = %d/%d/%d", m.Count("alpha"), m.Count("beta"), m.Count("gamma"))
	}
	// Originals untouched.
	if a.Count("gamma") != 0 || b.Count("beta") != 0 {
		t.Error("merge mutated inputs")
	}
}

func TestRelPrevalence(t *testing.T) {
	tables := make([]*table.Table, 10)
	for i := range tables {
		tables[i] = mkTable(fmt.Sprintf("t%d", i), table.NewColumn("c", []string{"common"}))
	}
	ix := BuildTokenIndex(tables)
	c := table.NewColumn("c", []string{"common"})
	if got := ix.RelPrevalence(c); got != 1 {
		t.Errorf("RelPrevalence = %v, want 1", got)
	}
	empty := BuildTokenIndex(nil)
	if got := empty.RelPrevalence(c); got != 0 {
		t.Errorf("empty corpus RelPrevalence = %v", got)
	}
}
