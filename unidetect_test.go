package unidetect_test

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/unidetect/unidetect"
)

var (
	apiModelOnce sync.Once
	apiModel     *unidetect.Model
)

func apiTrain(t testing.TB) *unidetect.Model {
	t.Helper()
	apiModelOnce.Do(func() {
		bg := unidetect.SyntheticCorpus(unidetect.WebProfile, 3000, 11)
		m, err := unidetect.Train(context.Background(), bg, nil)
		if err != nil {
			panic(err)
		}
		apiModel = m
	})
	return apiModel
}

func TestTrainEmptyCorpus(t *testing.T) {
	if _, err := unidetect.Train(context.Background(), nil, nil); err == nil {
		t.Error("empty corpus should error")
	}
}

func TestDetectTypo(t *testing.T) {
	m := apiTrain(t)
	tbl, err := unidetect.NewTable("directors",
		unidetect.NewColumn("Name", []string{
			"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow",
			"Lesli Glatter", "Peter Bonerz", "Nick Marck", "Matthew Diamond",
		}))
	if err != nil {
		t.Fatal(err)
	}
	fs := m.Detect(context.Background(), tbl)
	if len(fs) == 0 {
		t.Fatal("no findings")
	}
	f := fs[0]
	if f.Class != unidetect.Spelling {
		t.Errorf("class = %v", f.Class)
	}
	if len(f.Rows) != 2 || f.Rows[0] != 0 || f.Rows[1] != 1 {
		t.Errorf("rows = %v", f.Rows)
	}
	if f.Score > 0.05 {
		t.Errorf("score = %v", f.Score)
	}
	if !strings.Contains(f.String(), "spelling") {
		t.Errorf("String = %q", f.String())
	}
}

func TestDetectDuplicateKey(t *testing.T) {
	m := apiTrain(t)
	ids := make([]string, 0, 40)
	for i := 0; i < 40; i++ {
		ids = append(ids, "QZ"+string(rune('A'+i%26))+string(rune('A'+i/26))+"73"+string(rune('0'+i%10)))
	}
	ids[31] = ids[4]
	tbl, _ := unidetect.NewTable("parts", unidetect.NewColumn("Part No.", ids))
	fs := m.Detect(context.Background(), tbl)
	found := false
	for _, f := range fs {
		if f.Class == unidetect.Uniqueness {
			found = true
			if len(f.Rows) != 2 || f.Rows[0] != 4 || f.Rows[1] != 31 {
				t.Errorf("rows = %v", f.Rows)
			}
		}
	}
	if !found {
		t.Errorf("no uniqueness finding in %v", fs)
	}
}

func TestDetectSuppressesChanceDuplicates(t *testing.T) {
	m := apiTrain(t)
	// A Titanic-passenger-style name column (hundreds of rows, as in
	// Figure 2a) with one chance duplicate: must NOT be flagged as a
	// uniqueness violation — from a long list of names, a small fraction
	// will inevitably be identical by chance.
	firsts := []string{"James", "Mary", "John", "Emma", "Grace", "Ali",
		"Hans", "Eva", "Jan", "Raj", "Noor", "Arthur", "Andrew"}
	lasts := []string{"Kelly", "Keane", "Keefe", "Kennedy", "King",
		"Knox", "Kumar", "Khan", "Kim", "Klein", "Koch", "Kowalski"}
	names := make([]string, 0, 151)
	for i := 0; len(names) < 150; i++ {
		names = append(names, lasts[i%len(lasts)]+", "+firsts[(i/len(lasts))%len(firsts)])
	}
	names = append(names, names[3]) // the one chance collision
	tbl, _ := unidetect.NewTable("passengers", unidetect.NewColumn("Name", names))
	for _, f := range m.Detect(context.Background(), tbl) {
		if f.Class == unidetect.Uniqueness {
			t.Errorf("chance duplicate flagged: %v", f)
		}
	}
}

func TestDetectOutlierDecimalError(t *testing.T) {
	m := apiTrain(t)
	tbl, _ := unidetect.NewTable("population",
		unidetect.NewColumn("2013 Pop", []string{
			"8011", "87.16", "9954", "11895", "11329", "11352", "11709",
			"10233", "9871", "12004",
		}))
	fs := m.Detect(context.Background(), tbl)
	found := false
	for _, f := range fs {
		if f.Class == unidetect.Outlier && len(f.Rows) == 1 && f.Rows[0] == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("decimal-point outlier not detected: %v", fs)
	}
}

func TestDetectRomanColumnNotFlagged(t *testing.T) {
	m := apiTrain(t)
	// Figure 2(h): a Super Bowl column full of distance-1 pairs must not
	// be flagged as misspelled.
	tbl, _ := unidetect.NewTable("superbowls",
		unidetect.NewColumn("Super Bowl", []string{
			"Super Bowl XX", "Super Bowl XXI", "Super Bowl XXII",
			"Super Bowl XXV", "Super Bowl XXVI", "Super Bowl XXVII",
		}))
	for _, f := range m.Detect(context.Background(), tbl) {
		if f.Class == unidetect.Spelling {
			t.Errorf("roman-numeral column flagged: %v", f)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := apiTrain(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := unidetect.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.CorpusTables() != m.CorpusTables() {
		t.Errorf("CorpusTables = %d, want %d", loaded.CorpusTables(), m.CorpusTables())
	}
	tbl, _ := unidetect.NewTable("directors",
		unidetect.NewColumn("Name", []string{
			"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow",
			"Lesli Glatter", "Peter Bonerz",
		}))
	a := m.Detect(context.Background(), tbl)
	b := loaded.Detect(context.Background(), tbl)
	if len(a) != len(b) {
		t.Fatalf("finding counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Score != b[i].Score || a[i].Column != b[i].Column {
			t.Errorf("finding %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestLoadCorrupt(t *testing.T) {
	if _, err := unidetect.Load(bytes.NewReader([]byte("nope")), nil); err == nil {
		t.Error("garbage should not load")
	}
	// A long-enough stream with a wrong magic must be rejected with the
	// version message, not a gob error.
	junk := bytes.Repeat([]byte("X"), 64)
	if _, err := unidetect.Load(bytes.NewReader(junk), nil); err == nil || !strings.Contains(err.Error(), "not a model file") {
		t.Errorf("err = %v", err)
	}
}

func TestModelStats(t *testing.T) {
	m := apiTrain(t)
	stats := m.Stats()
	if len(stats) != 5 {
		t.Fatalf("stats = %v", stats)
	}
	for _, s := range stats {
		if s.Samples == 0 {
			t.Errorf("class %v has no samples", s.Class)
		}
		if s.Buckets == 0 {
			t.Errorf("class %v has no buckets", s.Class)
		}
	}
}

func TestDiscoverFDs(t *testing.T) {
	tbl, _ := unidetect.NewTable("geo",
		unidetect.NewColumn("City", []string{"Paris", "Lyon", "Paris", "Nice", "Lyon"}),
		unidetect.NewColumn("Country", []string{"France", "France", "France", "France", "France"}),
	)
	fds := unidetect.DiscoverFDs(tbl, unidetect.FDDiscoveryOptions{MaxLhs: 1})
	found := false
	for _, fd := range fds {
		if len(fd.Lhs) == 1 && fd.Lhs[0] == "City" && fd.Rhs == "Country" && fd.Error == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("City→Country not discovered: %v", fds)
	}
}

func TestReadCSVAndDetect(t *testing.T) {
	m := apiTrain(t)
	csv := "Name,Age\nKevin Doeling,41\nKevin Dowling,52\nAlan Myerson,63\nRob Morrow,44\nLesli Glatter,50\nPeter Bonerz,47\n"
	tbl, err := unidetect.ReadCSV("cast", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	fs := m.Detect(context.Background(), tbl)
	if len(fs) == 0 || fs[0].Class != unidetect.Spelling {
		t.Errorf("findings = %v", fs)
	}
}

func TestOptionsDictionary(t *testing.T) {
	bg := unidetect.SyntheticCorpus(unidetect.WebProfile, 1200, 13)
	m, err := unidetect.Train(context.Background(), bg, &unidetect.Options{UseDictionary: true})
	if err != nil {
		t.Fatal(err)
	}
	tbl, _ := unidetect.NewTable("courses",
		unidetect.NewColumn("Course", []string{
			"Macroeconomics", "Microeconomics", "Ancient History",
			"Linear Algebra", "Organic Chemistry", "World Geography",
		}))
	for _, f := range m.Detect(context.Background(), tbl) {
		if f.Class == unidetect.Spelling {
			t.Errorf("dictionary should refute Macro/Microeconomics: %v", f)
		}
	}
}

func TestErrorClassStrings(t *testing.T) {
	want := map[unidetect.ErrorClass]string{
		unidetect.Spelling:    "spelling",
		unidetect.Outlier:     "outlier",
		unidetect.Uniqueness:  "uniqueness",
		unidetect.FD:          "fd",
		unidetect.FDSynthesis: "fd-synthesis",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

func TestPatternModel(t *testing.T) {
	bg := unidetect.SyntheticCorpus(unidetect.WebProfile, 4000, 17)
	pm := unidetect.TrainPatterns(bg)
	tbl, _ := unidetect.NewTable("mixed",
		unidetect.NewColumn("Date", []string{
			"2001-01-01", "2002-02-02", "2003-03-03", "2004-04-04",
			"2005-05-05", "2006-Jun-06",
		}))
	fs := pm.Detect(context.Background(), tbl, 0)
	if len(fs) == 0 {
		t.Fatal("date-format incompatibility not detected")
	}
	f := fs[0]
	if len(f.Rows) != 1 || f.Rows[0] != 5 {
		t.Errorf("rows = %v", f.Rows)
	}
	if f.MinorityPattern != "d-l-d" {
		t.Errorf("minority pattern = %q", f.MinorityPattern)
	}
}

func TestSuggestRepairs(t *testing.T) {
	m := apiTrain(t)
	tbl, _ := unidetect.NewTable("directors",
		unidetect.NewColumn("Director", []string{
			"Kevin Dowling", "Kevin Doeling", "Kevin Dowling", "Rob Morrow",
			"Lesli Glatter", "Peter Bonerz", "Alan Myerson", "Nick Marck",
		}))
	fs := m.Detect(context.Background(), tbl)
	if len(fs) == 0 || fs[0].Class != unidetect.Spelling {
		t.Fatalf("findings = %v", fs)
	}
	rs := unidetect.SuggestRepairs(tbl, fs[0])
	if len(rs) != 1 {
		t.Fatalf("repairs = %v", rs)
	}
	// "Kevin Dowling" recurs; the one-off "Kevin Doeling" is the typo.
	if rs[0].Old != "Kevin Doeling" || rs[0].New != "Kevin Dowling" {
		t.Errorf("repair = %+v", rs[0])
	}
}

func TestWithPatternsOption(t *testing.T) {
	ctx := context.Background()
	bg := unidetect.SyntheticCorpus(unidetect.WebProfile, 4000, 61)
	m, err := unidetect.Train(ctx, bg, &unidetect.Options{WithPatterns: true})
	if err != nil {
		t.Fatal(err)
	}
	mixed, _ := unidetect.NewTable("dates",
		unidetect.NewColumn("When", []string{
			"2001-01-01", "2002-02-02", "2003-03-03", "2004-04-04",
			"2005-05-05", "2006-Jun-06",
		}))
	fs := m.Detect(ctx, mixed)
	found := false
	for _, f := range fs {
		if f.Class == unidetect.PatternIncompatibility {
			found = true
			if len(f.Rows) != 1 || f.Rows[0] != 5 {
				t.Errorf("pattern rows = %v", f.Rows)
			}
			if f.Class.String() != "pattern" {
				t.Errorf("class string = %q", f.Class.String())
			}
		}
	}
	if !found {
		t.Fatalf("no pattern finding in %v", fs)
	}
	// Pattern statistics survive a save/load round trip.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := unidetect.Load(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	found = false
	for _, f := range loaded.Detect(ctx, mixed) {
		if f.Class == unidetect.PatternIncompatibility {
			found = true
		}
	}
	if !found {
		t.Error("loaded model lost the pattern statistics")
	}
	// Models trained without the option emit no pattern findings.
	plain := apiTrain(t)
	for _, f := range plain.Detect(ctx, mixed) {
		if f.Class == unidetect.PatternIncompatibility {
			t.Errorf("plain model emitted a pattern finding: %v", f)
		}
	}
}

func TestMergeModels(t *testing.T) {
	ctx := context.Background()
	shard1 := unidetect.SyntheticCorpus(unidetect.WebProfile, 800, 31)
	shard2 := unidetect.SyntheticCorpus(unidetect.WebProfile, 800, 32)
	a, err := unidetect.Train(ctx, shard1, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := unidetect.Train(ctx, shard2, nil)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := unidetect.Merge(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if merged.CorpusTables() != 1600 {
		t.Errorf("CorpusTables = %d", merged.CorpusTables())
	}
	sa, sb, sm := a.Stats(), b.Stats(), merged.Stats()
	for i := range sm {
		if sm[i].Samples != sa[i].Samples+sb[i].Samples {
			t.Errorf("class %v samples %d != %d + %d", sm[i].Class, sm[i].Samples, sa[i].Samples, sb[i].Samples)
		}
	}
	// The merged model still detects.
	tbl, _ := unidetect.NewTable("directors",
		unidetect.NewColumn("Name", []string{
			"Kevin Doeling", "Kevin Dowling", "Alan Myerson", "Rob Morrow",
			"Lesli Glatter", "Peter Bonerz",
		}))
	fs := merged.Detect(ctx, tbl)
	if len(fs) == 0 || fs[0].Class != unidetect.Spelling {
		t.Errorf("merged model findings = %v", fs)
	}
	// A merged model survives a save/load round trip.
	var buf bytes.Buffer
	if err := merged.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := unidetect.Load(&buf, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCheckRules(t *testing.T) {
	tbl, _ := unidetect.NewTable("sheet",
		unidetect.NewColumn("Year", []string{"1995", "1996", "97", "1998", "1999", "2000", "2001", "2002", "2003", "2004"}),
		unidetect.NewColumn("City", []string{"Paris", " Lyon", "Nice", "Oslo", "Rome", "Bern", "Kiev", "Riga", "Baku", "Oslo"}),
	)
	fs := unidetect.CheckRules(tbl)
	rules := map[string]bool{}
	for _, f := range fs {
		rules[f.Rule] = true
	}
	if !rules["two-digit-year"] || !rules["stray-whitespace"] {
		t.Errorf("rules fired: %v", fs)
	}
	clean, _ := unidetect.NewTable("c", unidetect.NewColumn("A", []string{"x", "y"}))
	if fs := unidetect.CheckRules(clean); len(fs) != 0 {
		t.Errorf("clean table flagged: %v", fs)
	}
}

func TestSyntheticCorpusProfiles(t *testing.T) {
	for _, p := range []unidetect.CorpusProfile{unidetect.WebProfile, unidetect.WikiProfile, unidetect.EnterpriseProfile} {
		ts := unidetect.SyntheticCorpus(p, 20, 3)
		if len(ts) != 20 {
			t.Errorf("profile %d: %d tables", p, len(ts))
		}
	}
}
