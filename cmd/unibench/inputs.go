package main

import (
	"bytes"
	"fmt"
	"hash/fnv"

	"github.com/unidetect/unidetect/internal/datagen"
	"github.com/unidetect/unidetect/internal/table"
)

// genTable is one generated input: the table, the labels of the errors
// planted in it, and its CSV encoding (what the HTTP and job paths are
// sent). The program under test only ever sees the table or the CSV.
type genTable struct {
	t      *table.Table
	labels []datagen.Label
	csv    []byte
}

// cells is the input size a throughput counts.
func (g genTable) cells() int64 { return int64(g.t.NumRows() * g.t.NumCols()) }

// shape is one table family of the workload mix.
type shape struct {
	name    string
	profile datagen.Profile
	rows    float64 // target rows; kept tables have rows/2..2*rows
	cols    float64 // target columns; kept tables have cols-1..cols+1
	errors  float64 // planted errors per table
	weight  int     // slots out of mixSlots
}

// mix is the table mix of batch_fresh, serve_hot and serve_fresh: 60%
// web-profile tables of about 40×5, 25% enterprise-profile tables of
// about 150×5, and 15% wide tables of about 60×12, which exercise FD's
// cols² candidate space. Sizes are held to a band around the target so
// that a tail percentile measures the mix, not the one outsized table a
// seed happens to draw.
var mix = []shape{
	{name: "web", profile: datagen.ProfileWeb, rows: 40, cols: 5, errors: 1, weight: 12},
	{name: "ent", profile: datagen.ProfileEnterprise, rows: 150, cols: 5, errors: 3, weight: 5},
	{name: "wide", profile: datagen.ProfileWeb, rows: 60, cols: 12, errors: 2, weight: 3},
}

const mixSlots = 20

// mixPattern interleaves the shapes evenly over mixSlots positions, so
// every prefix of a stream holds the mix in proportion.
var mixPattern = func() [mixSlots]int {
	var pat [mixSlots]int
	acc := make([]int, len(mix))
	for k := range pat {
		best := 0
		for i, s := range mix {
			acc[i] += s.weight
			if acc[i] > acc[best] {
				best = i
			}
		}
		acc[best] -= mixSlots
		pat[k] = best
	}
	return pat
}()

// seedFor derives a generator seed from the workload seed and a label, so
// each stream, shape and block draws from its own sequence.
func seedFor(seed int64, parts ...any) int64 {
	h := fnv.New64a()
	fmt.Fprint(h, seed)
	for _, p := range parts {
		fmt.Fprint(h, "/", p)
	}
	return int64(h.Sum64() >> 1)
}

// tableStream yields an endless, seeded sequence of distinct mix tables.
// Table k of a stream is the same for a given (seed, purpose) whatever
// else the run does, so two commits measured with one seed see the same
// inputs in the same order.
type tableStream struct {
	seed    int64
	purpose string
	csv     bool // encode each table as CSV too
	queues  [][]genTable
	blocks  []int
	emitted []int
	n       int
}

func newTableStream(seed int64, purpose string, csv bool) *tableStream {
	return &tableStream{
		seed:    seed,
		purpose: purpose,
		csv:     csv,
		queues:  make([][]genTable, len(mix)),
		blocks:  make([]int, len(mix)),
		emitted: make([]int, len(mix)),
	}
}

// next returns the stream's next table.
func (s *tableStream) next() genTable {
	si := mixPattern[s.n%mixSlots]
	s.n++
	for len(s.queues[si]) == 0 {
		s.queues[si] = s.generate(si)
	}
	g := s.queues[si][0]
	s.queues[si] = s.queues[si][1:]
	name := fmt.Sprintf("%s-%s-%d", s.purpose, mix[si].name, s.emitted[si])
	s.emitted[si]++
	g.t.Name = name
	for i := range g.labels {
		g.labels[i].Table = name
	}
	if s.csv {
		g.csv = encodeCSV(g.t)
	}
	return g
}

// take returns the stream's next n tables.
func (s *tableStream) take(n int) []genTable {
	out := make([]genTable, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// generate draws one block of tables of shape si and keeps those inside
// the shape's size band.
func (s *tableStream) generate(si int) []genTable {
	sh := mix[si]
	block := s.blocks[si]
	s.blocks[si]++
	res := datagen.Generate(datagen.Spec{
		Name:      sh.name,
		Profile:   sh.profile,
		NumTables: 64,
		AvgRows:   sh.rows,
		AvgCols:   sh.cols,
		ErrorRate: sh.errors,
		Seed:      seedFor(s.seed, s.purpose, sh.name, block),
	})
	byTable := map[string][]datagen.Label{}
	for _, l := range res.Labels {
		byTable[l.Table] = append(byTable[l.Table], l)
	}
	var out []genTable
	for _, t := range res.Tables {
		r, c := float64(t.NumRows()), float64(t.NumCols())
		if r < sh.rows/2 || r > 2*sh.rows || c < sh.cols-1 || c > sh.cols+1 {
			continue
		}
		out = append(out, genTable{t: t, labels: byTable[t.Name]})
	}
	return out
}

// jobSchema is the column recipe of every jobs_large table, by datagen
// column name: a row number, a person name, a city→country pair (a real FD), a
// count and a date — a database extract. What a scan costs depends mostly
// on the kinds of its columns, so one recipe makes every job cost about
// the same and the job stream of one seed like that of another.
var jobSchema = []string{"Num", "Name", "City", "Country", "Count", "Date"}

// jobTable generates the k-th large enterprise-profile table of a
// purpose: exactly rows rows with the jobSchema columns, cut from a larger
// seeded table that has them all.
func jobTable(seed int64, purpose string, k, rows int) genTable {
	for attempt := 0; ; attempt++ {
		spec := datagen.Spec{
			Name:      "job",
			Profile:   datagen.ProfileEnterprise,
			NumTables: 1,
			AvgRows:   0.9 * float64(rows),
			AvgCols:   9,
			ErrorRate: 3,
			Seed:      seedFor(seed, purpose, "job", k, attempt),
		}
		// datagen draws a table's columns before its rows, so a small
		// table of the same seed shows cheaply whether the recipe fits.
		// The row mean stays under a thirtieth of 26⁴: datagen caps a
		// table at 30 means, and a column of unique 4-letter codes longer
		// than 26⁴ rows never finishes.
		probe := spec
		probe.AvgRows = 8
		if jobColumns(datagen.Generate(probe).Tables[0], 0) == nil {
			continue
		}
		res := datagen.Generate(spec)
		cols := jobColumns(res.Tables[0], rows)
		if cols == nil {
			continue
		}
		name := fmt.Sprintf("%s-job-%d", purpose, k)
		t := table.MustNew(name, cols...)
		var labels []datagen.Label
		for _, l := range res.Labels {
			if t.Column(l.Column) != nil && l.Row < rows {
				l.Table = name
				labels = append(labels, l)
			}
		}
		return genTable{t: t, labels: labels, csv: encodeCSV(t)}
	}
}

// jobColumns returns the jobSchema columns of src cut to rows rows (all
// rows for 0), or nil when src lacks a column or rows.
func jobColumns(src *table.Table, rows int) []*table.Column {
	if src.NumRows() < rows {
		return nil
	}
	if rows == 0 {
		rows = src.NumRows()
	}
	cols := make([]*table.Column, len(jobSchema))
	for i, name := range jobSchema {
		c := src.Column(name)
		if c == nil {
			return nil
		}
		cols[i] = table.NewColumn(name, c.Values[:rows])
	}
	return cols
}

func encodeCSV(t *table.Table) []byte {
	var buf bytes.Buffer
	if err := table.WriteCSV(t, &buf); err != nil {
		// WriteCSV fails only on a failing writer; a bytes.Buffer never fails.
		panic(fmt.Sprintf("unibench: encode %s: %v", t.Name, err))
	}
	return buf.Bytes()
}
