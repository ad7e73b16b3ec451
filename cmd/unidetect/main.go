// Command unidetect trains Uni-Detect models and detects errors in CSV
// tables.
//
//	unidetect train   -out model.bin [-tables 20000] [-profile web] [-csv dir]
//	unidetect detect  -model model.bin [-alpha 0.05] [-dict] file.csv...
//	unidetect scan    [-tables 8000] file.csv...     (train-and-detect in one shot)
//	unidetect convert -out data.ucol file.csv        (re-encode as columnar .ucol)
//
// Training uses the built-in synthetic background corpus unless -csv
// points at a directory of CSV files to use as the corpus. Inputs may be
// CSV, NDJSON (.ndjson/.jsonl), Excel (.xlsx), or columnar (.ucol);
// detect/scan with -chunk N stream each file chunk by chunk instead of
// loading it whole, so files larger than RAM can be scanned.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"github.com/unidetect/unidetect"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "train":
		err = runTrain(os.Args[2:])
	case "detect":
		err = runDetect(os.Args[2:])
	case "scan":
		err = runScan(os.Args[2:])
	case "convert":
		err = runConvert(os.Args[2:])
	case "info":
		err = runInfo(os.Args[2:])
	case "profile":
		err = runProfile(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "unidetect: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "unidetect:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  unidetect train   -out model.bin [-tables N] [-profile web|wiki|enterprise] [-csv dir] [-dict]
  unidetect detect  -model model.bin [-alpha A] [-dict] [-repair] [-rules] [-json] [-chunk N] file.csv|file.ndjson|file.ucol|file.xlsx...
  unidetect scan    [-tables N] [-dict] [-repair] [-rules] [-chunk N] file.csv|file.ndjson|file.ucol|file.xlsx...
  unidetect convert -out file.ucol [-chunk N] file.csv|file.ndjson
  unidetect info    -model model.bin
  unidetect profile file.csv...

-chunk N streams each input N rows at a time through the columnar scan
driver (constant memory; incompatible with -repair/-rules/.xlsx).`)
}

func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no input files")
	}
	for _, p := range fs.Args() {
		t, err := unidetect.ReadCSVFile(p)
		if err != nil {
			return err
		}
		fmt.Printf("== %s (%d columns × %d rows)\n", t.Name, t.NumCols(), t.NumRows())
		for _, cp := range unidetect.ProfileTable(t) {
			fmt.Print(cp.Render())
		}
	}
	return nil
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	modelPath := fs.String("model", "model.bin", "trained model path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := unidetect.Load(f, nil)
	if err != nil {
		return err
	}
	fmt.Printf("model %s: trained on %d background tables\n", *modelPath, m.CorpusTables())
	fmt.Printf("%-14s %12s %10s\n", "class", "samples", "buckets")
	for _, s := range m.Stats() {
		fmt.Printf("%-14s %12d %10d\n", s.Class, s.Samples, s.Buckets)
	}
	return nil
}

func profileFlag(s string) unidetect.CorpusProfile {
	switch s {
	case "wiki":
		return unidetect.WikiProfile
	case "enterprise":
		return unidetect.EnterpriseProfile
	default:
		return unidetect.WebProfile
	}
}

func loadCorpus(dir string) ([]*unidetect.Table, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.csv"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no CSV files in %s", dir)
	}
	sort.Strings(paths)
	tables := make([]*unidetect.Table, 0, len(paths))
	for _, p := range paths {
		t, err := unidetect.ReadCSVFile(p)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	out := fs.String("out", "model.bin", "output model path")
	tables := fs.Int("tables", 20000, "synthetic background corpus size")
	profile := fs.String("profile", "web", "synthetic corpus profile: web|wiki|enterprise")
	csvDir := fs.String("csv", "", "directory of CSV files to use as the background corpus")
	seed := fs.Int64("seed", 1, "synthetic corpus seed")
	dict := fs.Bool("dict", false, "enable the dictionary spelling refinement")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var bg []*unidetect.Table
	var err error
	if *csvDir != "" {
		bg, err = loadCorpus(*csvDir)
		if err != nil {
			return err
		}
	} else {
		bg = unidetect.SyntheticCorpus(profileFlag(*profile), *tables, *seed)
	}
	fmt.Fprintf(os.Stderr, "training on %d background tables...\n", len(bg))
	m, err := unidetect.Train(context.Background(), bg, &unidetect.Options{UseDictionary: *dict})
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := m.Save(f); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "model written to %s\n", *out)
	return f.Close()
}

func runDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	modelPath := fs.String("model", "model.bin", "trained model path")
	alpha := fs.Float64("alpha", 0, "significance level override (0 keeps the model's)")
	dict := fs.Bool("dict", false, "enable the dictionary spelling refinement")
	repairs := fs.Bool("repair", false, "print repair suggestions under each finding")
	rules := fs.Bool("rules", false, "also run the curated Excel-style rules")
	asJSON := fs.Bool("json", false, "emit findings as JSON lines")
	chunk := fs.Int("chunk", 0, "stream each file this many rows at a time (0 loads whole files)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := unidetect.Load(f, &unidetect.Options{Alpha: *alpha, UseDictionary: *dict})
	if err != nil {
		return err
	}
	return detectFiles(m, fs.Args(), options{repairs: *repairs, rules: *rules, json: *asJSON, chunk: *chunk})
}

type options struct {
	repairs, rules, json bool
	chunk                int // >0 streams via DetectSource instead of loading whole tables
}

func runScan(args []string) error {
	fs := flag.NewFlagSet("scan", flag.ExitOnError)
	tables := fs.Int("tables", 8000, "synthetic background corpus size")
	dict := fs.Bool("dict", false, "enable the dictionary spelling refinement")
	repairs := fs.Bool("repair", false, "print repair suggestions under each finding")
	rules := fs.Bool("rules", false, "also run the curated Excel-style rules")
	chunk := fs.Int("chunk", 0, "stream each file this many rows at a time (0 loads whole files)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "training throwaway model on %d synthetic tables...\n", *tables)
	bg := unidetect.SyntheticCorpus(unidetect.WebProfile, *tables, 1)
	m, err := unidetect.Train(context.Background(), bg, &unidetect.Options{UseDictionary: *dict})
	if err != nil {
		return err
	}
	return detectFiles(m, fs.Args(), options{repairs: *repairs, rules: *rules, chunk: *chunk})
}

// runConvert re-encodes a CSV or NDJSON file into the `.ucol` columnar
// format, streaming chunk by chunk so the input never has to fit in RAM.
func runConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	out := fs.String("out", "", "output .ucol path (required)")
	chunk := fs.Int("chunk", 0, "rows per stored chunk (0 = default budget)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("convert: -out is required")
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("convert: exactly one input file expected")
	}
	in := fs.Arg(0)
	switch strings.ToLower(filepath.Ext(in)) {
	case ".ucol", ".xlsx":
		return fmt.Errorf("convert: input must be CSV or NDJSON, got %s", in)
	}
	src, err := openSource(in, *chunk)
	if err != nil {
		return err
	}
	defer src.Close()
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := unidetect.WriteUcolSource(src, f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonFinding is the -json wire shape for one finding.
type jsonFinding struct {
	Kind    string             `json:"kind"` // "finding" or "rule"
	Class   string             `json:"class"`
	Table   string             `json:"table"`
	Column  string             `json:"column"`
	Rows    []int              `json:"rows"`
	Values  []string           `json:"values,omitempty"`
	Score   float64            `json:"score,omitempty"`
	Detail  string             `json:"detail,omitempty"`
	Repairs []unidetect.Repair `json:"repairs,omitempty"`
}

// openSource opens one input file as a streaming chunked source,
// dispatching on extension (CSV is the default).
func openSource(p string, chunkRows int) (unidetect.Source, error) {
	switch strings.ToLower(filepath.Ext(p)) {
	case ".ucol":
		return unidetect.OpenUcolSource(p)
	case ".ndjson", ".jsonl":
		return unidetect.OpenNDJSONSource(p, chunkRows)
	case ".xlsx":
		return nil, fmt.Errorf("%s: xlsx workbooks cannot stream; omit -chunk to load them in memory", p)
	default:
		return unidetect.OpenCSVSource(p, chunkRows)
	}
}

// detectStreams runs the chunk-at-a-time scan over each file: one chunk
// resident per column at a time, so inputs larger than RAM still scan.
func detectStreams(m *unidetect.Model, paths []string, opts options) error {
	if opts.repairs || opts.rules {
		return fmt.Errorf("-repair and -rules need whole tables in memory; drop them or drop -chunk")
	}
	enc := json.NewEncoder(os.Stdout)
	n := 0
	for _, p := range paths {
		src, err := openSource(p, opts.chunk)
		if err != nil {
			return err
		}
		findings, err := m.DetectSource(context.Background(), src)
		if cerr := src.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
		for _, f := range findings {
			if opts.json {
				if err := enc.Encode(jsonFinding{
					Kind: "finding", Class: f.Class.String(), Table: f.Table,
					Column: f.Column, Rows: f.Rows, Values: f.Values,
					Score: f.Score, Detail: f.Detail,
				}); err != nil {
					return err
				}
				continue
			}
			n++
			fmt.Printf("%3d. %s\n", n, f)
		}
	}
	if n == 0 && !opts.json {
		fmt.Println("no errors detected")
	}
	return nil
}

func detectFiles(m *unidetect.Model, paths []string, opts options) error {
	if len(paths) == 0 {
		return fmt.Errorf("no input files")
	}
	if opts.chunk > 0 {
		return detectStreams(m, paths, opts)
	}
	ts := make([]*unidetect.Table, 0, len(paths))
	for _, p := range paths {
		switch strings.ToLower(filepath.Ext(p)) {
		case ".xlsx":
			sheets, err := unidetect.ReadXLSXFile(p)
			if err != nil {
				return err
			}
			ts = append(ts, sheets...)
		case ".ndjson", ".jsonl":
			t, err := unidetect.ReadNDJSONFile(p)
			if err != nil {
				return err
			}
			ts = append(ts, t)
		case ".ucol":
			src, err := unidetect.OpenUcolSource(p)
			if err != nil {
				return err
			}
			t, err := unidetect.ReadSource(src)
			if cerr := src.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			ts = append(ts, t)
		default:
			t, err := unidetect.ReadCSVFile(p)
			if err != nil {
				return err
			}
			ts = append(ts, t)
		}
	}
	byName := map[string]*unidetect.Table{}
	for _, t := range ts {
		byName[t.Name] = t
	}
	findings := m.DetectAll(context.Background(), ts)
	enc := json.NewEncoder(os.Stdout)
	if len(findings) == 0 && !opts.json {
		fmt.Println("no errors detected")
	}
	for i, f := range findings {
		var rs []unidetect.Repair
		if opts.repairs {
			rs = unidetect.SuggestRepairs(byName[f.Table], f)
		}
		if opts.json {
			if err := enc.Encode(jsonFinding{
				Kind: "finding", Class: f.Class.String(), Table: f.Table,
				Column: f.Column, Rows: f.Rows, Values: f.Values,
				Score: f.Score, Detail: f.Detail, Repairs: rs,
			}); err != nil {
				return err
			}
			continue
		}
		fmt.Printf("%3d. %s\n", i+1, f)
		for _, r := range rs {
			fmt.Printf("     fix: %s[%d] %q -> %q (%s)\n", r.Column, r.Row, r.Old, r.New, r.Rationale)
		}
	}
	if opts.rules {
		n := len(findings)
		for _, t := range ts {
			for _, rf := range unidetect.CheckRules(t) {
				if opts.json {
					if err := enc.Encode(jsonFinding{
						Kind: "rule", Class: rf.Rule, Table: rf.Table,
						Column: rf.Column, Rows: []int{rf.Row},
						Values: []string{rf.Value}, Detail: rf.Detail,
					}); err != nil {
						return err
					}
					continue
				}
				n++
				fmt.Printf("%3d. [rule:%s] %s!%s[%d] %q %s\n", n, rf.Rule, rf.Table, rf.Column, rf.Row, rf.Value, rf.Detail)
			}
		}
	}
	return nil
}
