package datagen

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"github.com/unidetect/unidetect/internal/wordlist"
)

// colKind enumerates column archetypes. Each archetype reproduces one of
// the data families the paper's analysis hinges on.
type colKind uint8

const (
	colCode       colKind = iota // unique mixed-alphanumeric ID (Figure 6)
	colICAO                      // unique short letter codes (Figure 4a)
	colSeq                       // sequential integers (row ids)
	colFullName                  // person names, chance dups (Figure 2a)
	colCity                      // toponyms incl. rare ones (Figure 3b)
	colCountry                   // country names
	colWordPhrase                // short english phrases
	colDateISO                   // dates, chance dups (Figure 2b)
	colYear                      // years in a narrow range
	colIntUniform                // uniform integers
	colIntSmall                  // narrow-range counts/ratings
	colIntSparse                 // zero-inflated counts (medals, goals)
	colIntHeavy                  // log-normal heavy-tailed ints (Fig 2f bait)
	colFloat                     // gaussian measurements
	colPercent                   // election-style skewed percents (Fig 2e bait)
	colRoman                     // roman-numeral titles (Figure 2h bait)
	colChem                      // chemical formulas (Figure 2g bait)
	colAlias                     // idiosyncratic aliases "JenniferA" (Speller bait)
	colEmail                     // addresses like j.doe@example.com
	colPhone                     // formatted phone numbers
	colCurrency                  // "$1,234.56"-style amounts
	numColKinds
)

// relKind marks structural relationships between generated columns.
type relKind uint8

const (
	relGeoFD    relKind = iota // city -> country, a true FD
	relSynthCat                // id -> "<prefix> <id>" concat program (Fig 13)
	relSynthName
	// relSynthName: "Last, First" -> last-name column split program (App D)
)

// relation links a lhs column index to a rhs column index in a schema.
type relation struct {
	kind     relKind
	lhs, rhs int
}

// schema describes one generated table's column plan.
type schema struct {
	kinds     []colKind
	relations []relation
}

// weights per profile; indexed by colKind.
func kindWeights(p Profile) []int {
	w := make([]int, numColKinds)
	switch p {
	case ProfileWeb:
		w[colCode] = 8
		w[colICAO] = 2
		w[colSeq] = 4
		w[colFullName] = 12
		w[colCity] = 8
		w[colCountry] = 5
		w[colWordPhrase] = 14
		w[colDateISO] = 8
		w[colYear] = 5
		w[colIntUniform] = 12
		w[colIntSmall] = 8
		w[colIntSparse] = 6
		w[colIntHeavy] = 6
		w[colFloat] = 8
		w[colPercent] = 4
		w[colRoman] = 2
		w[colChem] = 2
		w[colAlias] = 2
		w[colEmail] = 3
		w[colPhone] = 3
		w[colCurrency] = 3
	case ProfileWiki:
		w[colCode] = 4
		w[colICAO] = 3
		w[colSeq] = 4
		w[colFullName] = 16
		w[colCity] = 10
		w[colCountry] = 8
		w[colWordPhrase] = 14
		w[colDateISO] = 8
		w[colYear] = 8
		w[colIntUniform] = 8
		w[colIntSmall] = 6
		w[colIntSparse] = 7
		w[colIntHeavy] = 6
		w[colFloat] = 5
		w[colPercent] = 5
		w[colRoman] = 4
		w[colChem] = 3
		w[colAlias] = 1
		w[colEmail] = 1
		w[colPhone] = 1
		w[colCurrency] = 2
	case ProfileEnterprise:
		w[colCode] = 18
		w[colICAO] = 2
		w[colSeq] = 10
		w[colFullName] = 8
		w[colCity] = 5
		w[colCountry] = 3
		w[colWordPhrase] = 8
		w[colDateISO] = 10
		w[colYear] = 3
		w[colIntUniform] = 14
		w[colIntSmall] = 8
		w[colIntSparse] = 5
		w[colIntHeavy] = 8
		w[colFloat] = 10
		w[colPercent] = 2
		w[colRoman] = 0
		w[colChem] = 1
		w[colAlias] = 6
		w[colEmail] = 6
		w[colPhone] = 5
		w[colCurrency] = 6
	}
	return w
}

func pickKind(rng *rand.Rand, weights []int) colKind {
	total := 0
	for _, v := range weights {
		total += v
	}
	r := rng.Intn(total)
	for k, v := range weights {
		if r < v {
			return colKind(k)
		}
		r -= v
	}
	return colWordPhrase
}

// colName returns a header for a column of the given kind, unique within
// the table via the position suffix when needed.
func colName(k colKind, pos int, used map[string]bool) string {
	base := map[colKind]string{
		colCode:       "ID",
		colICAO:       "Code",
		colSeq:        "Num",
		colFullName:   "Name",
		colCity:       "City",
		colCountry:    "Country",
		colWordPhrase: "Title",
		colDateISO:    "Date",
		colYear:       "Year",
		colIntUniform: "Count",
		colIntSmall:   "Rank",
		colIntSparse:  "Goals",
		colIntHeavy:   "Population",
		colFloat:      "Value",
		colPercent:    "Percent",
		colRoman:      "Edition",
		colChem:       "Formula",
		colAlias:      "Alias",
		colEmail:      "Email",
		colPhone:      "Phone",
		colCurrency:   "Amount",
	}[k]
	name := base
	for i := 2; used[name]; i++ {
		name = fmt.Sprintf("%s%d", base, i)
	}
	used[name] = true
	_ = pos
	return name
}

// cityCountry returns the fixed, globally consistent country for city
// index i — the ground-truth mapping that makes city->country a real FD.
func cityCountry(i int) string {
	cs := wordlist.Countries()
	return cs[(i*2654435761)%len(cs)]
}

// genColumn generates n clean values of the given kind.
func genColumn(rng *rand.Rand, k colKind, n int) []string {
	switch k {
	case colCode:
		return genCodes(rng, n)
	case colICAO:
		return genLetterCodes(rng, n, 4)
	case colSeq:
		start := rng.Intn(5000) + 1
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%d", start+i)
		}
		return out
	case colFullName:
		return genNames(rng, n)
	case colCity:
		cs := wordlist.Cities()
		out := make([]string, n)
		for i := range out {
			out[i] = cs[skewedIndex(rng, len(cs))]
		}
		return out
	case colCountry:
		cs := wordlist.Countries()
		out := make([]string, n)
		for i := range out {
			out[i] = cs[rng.Intn(len(cs))]
		}
		return out
	case colWordPhrase:
		return genPhrases(rng, n)
	case colDateISO:
		return genDates(rng, n)
	case colYear:
		base := 1900 + rng.Intn(100)
		span := 5 + rng.Intn(60)
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%d", base+rng.Intn(span))
		}
		return out
	case colIntUniform:
		mag := []int{100, 1000, 10000, 100000}[rng.Intn(4)]
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%d", rng.Intn(mag))
		}
		return out
	case colIntSmall:
		// Ratings, jersey numbers, small counts: narrow ranges whose
		// max-MAD scores are tiny — they populate the low tail of the
		// evidence grids.
		base := rng.Intn(20)
		span := 3 + rng.Intn(30)
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%d", base+rng.Intn(span))
		}
		return out
	case colIntSparse:
		// Zero-inflated counts: most rows are 0, a few are large. The
		// isolated top value is legitimate, but its normalized gap makes
		// it prime DBOD/LOF bait; MAD-based methods see a zero MAD and
		// stand down.
		zeroFrac := 0.5 + rng.Float64()*0.4
		mag := []int{5, 20, 200}[rng.Intn(3)]
		out := make([]string, n)
		for i := range out {
			if rng.Float64() < zeroFrac {
				out[i] = "0"
				continue
			}
			out[i] = fmt.Sprintf("%d", 1+rng.Intn(mag))
		}
		return out
	case colIntHeavy:
		// Occasionally extreme tails: the Figure 2(e,f) bait that makes
		// naive gap/dispersion detectors false-positive.
		mu := 7 + rng.Float64()*3
		sigma := 0.9 + rng.Float64()*1.4
		out := make([]string, n)
		for i := range out {
			v := int(math.Exp(rng.NormFloat64()*sigma + mu))
			if v < 1 {
				v = 1
			}
			out[i] = fmt.Sprintf("%d", v)
		}
		return out
	case colFloat:
		mean := 10 + rng.Float64()*500
		sd := mean * (0.05 + rng.Float64()*0.3)
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%.2f", math.Abs(rng.NormFloat64()*sd+mean))
		}
		return out
	case colPercent:
		return genElectionPercents(rng, n)
	case colRoman:
		return genRomanTitles(rng, n)
	case colChem:
		return sampleDistinct(rng, wordlist.ChemicalFormulas(), n)
	case colAlias:
		return genAliases(rng, n)
	case colEmail:
		return genEmails(rng, n)
	case colPhone:
		return genPhones(rng, n)
	case colCurrency:
		return genCurrency(rng, n)
	default:
		return genPhrases(rng, n)
	}
}

// genCodes produces unique mixed-alphanumeric IDs like "KV214-310B8K2" or
// "S042091" (Figure 6).
func genCodes(rng *rand.Rand, n int) []string {
	style := rng.Intn(3)
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for len(out) < n {
		var v string
		switch style {
		case 0:
			v = fmt.Sprintf("%s%03d-%03d%s", randLetters(rng, 2), rng.Intn(1000), rng.Intn(1000), randLetters(rng, 2))
		case 1:
			v = fmt.Sprintf("S%06d", rng.Intn(1000000))
		default:
			v = fmt.Sprintf("%s%04d%s", randLetters(rng, 2), rng.Intn(10000), randLetters(rng, 2))
		}
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out
}

// genLetterCodes produces unique uppercase codes of the given length
// (ICAO-like, Figure 4a). Past 26^length codes the rest are one letter
// longer, since no more fit.
func genLetterCodes(rng *rand.Rand, n, length int) []string {
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	left := codeSpace(length, n) // codes of this length not drawn yet, capped at n
	for len(out) < n {
		if left == 0 {
			// Every code of this length is taken: lengthen the rest
			// instead of drawing forever.
			length++
			left = codeSpace(length, n-len(out))
		}
		v := randLetters(rng, length)
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
		left--
	}
	return out
}

// codeSpace returns min(26^length, limit).
func codeSpace(length, limit int) int {
	space := 1
	for i := 0; i < length && space < limit; i++ {
		space *= 26
	}
	return min(space, limit)
}

// genNames produces person names sampled with replacement — from a long
// enough list two passengers named "Kelly, Mr. James" will eventually
// coincide by chance (Figure 2a), which is exactly the bait naive
// uniqueness detectors fall for.
func genNames(rng *rand.Rand, n int) []string {
	first, last := wordlist.FirstNames(), wordlist.LastNames()
	comma := rng.Intn(2) == 0
	// Large rosters usually carry fuller names (middle initials), which
	// keeps chance near-collisions realistic as columns grow.
	initials := n > 60 && rng.Intn(2) == 0
	out := make([]string, n)
	for i := range out {
		f := first[rng.Intn(len(first))]
		l := last[rng.Intn(len(last))]
		if initials {
			f += " " + string(rune('A'+rng.Intn(26))) + "."
		}
		if comma {
			out[i] = l + ", " + f
		} else {
			out[i] = f + " " + l
		}
	}
	return out
}

// genCommaNames produces "Last, First" names: the lhs of the synthesizable
// name relationship of Appendix D.
func genCommaNames(rng *rand.Rand, n int) []string {
	first, last := wordlist.FirstNames(), wordlist.LastNames()
	out := make([]string, n)
	for i := range out {
		out[i] = last[rng.Intn(len(last))] + ", " + first[rng.Intn(len(first))]
	}
	return out
}

func genPhrases(rng *rand.Rand, n int) []string {
	words := wordlist.English()
	out := make([]string, n)
	for i := range out {
		k := 1 + rng.Intn(3)
		parts := make([]string, k)
		for j := range parts {
			parts[j] = words[rng.Intn(len(words))]
		}
		parts[0] = strings.Title(parts[0]) //nolint:staticcheck // ASCII-only input
		out[i] = strings.Join(parts, " ")
	}
	// About one phrase column in seven carries a legitimate inflected
	// variant of one of its rows ("Annual report" / "Annual reports") —
	// the "Macroeconomics"/"Microeconomics" family of §4.3: word pairs
	// at tiny edit distances that are NOT misspellings.
	if n >= 4 && rng.Intn(7) == 0 {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if dst == src {
			dst = (dst + 1) % n
		}
		if v := pluralizeLast(out[src]); v != "" {
			out[dst] = v
		}
	}
	return out
}

// pluralizeLast appends "s" to the final word of a phrase, or returns ""
// when the phrase already ends in s.
func pluralizeLast(phrase string) string {
	if phrase == "" || strings.HasSuffix(phrase, "s") {
		return ""
	}
	return phrase + "s"
}

func genDates(rng *rand.Rand, n int) []string {
	base := time.Date(1990+rng.Intn(30), time.January, 1, 0, 0, 0, 0, time.UTC)
	span := 200 + rng.Intn(2000)
	// Each column commits to one format; different columns disagree —
	// the pattern heterogeneity Auto-Detect-style detection relies on.
	layout := []string{"2006-01-02", "2006-01-02", "2006-Jan-02", "01/02/2006"}[rng.Intn(4)]
	out := make([]string, n)
	for i := range out {
		d := base.AddDate(0, 0, rng.Intn(span))
		out[i] = d.Format(layout)
	}
	return out
}

// genElectionPercents produces the Figure 2(e) pattern: one dominant value
// and a long tail of tiny ones summing to <= 100, all legitimate. High
// exponents give landslide distributions whose top value dwarfs the rest —
// the gap-based detectors' classic false positive.
func genElectionPercents(rng *rand.Rand, n int) []string {
	raw := make([]float64, n)
	var sum float64
	exp := 1.3 + rng.Float64()*1.2
	for i := range raw {
		raw[i] = 1 / math.Pow(float64(i+1), exp)
		sum += raw[i]
	}
	out := make([]string, n)
	for i := range raw {
		out[i] = fmt.Sprintf("%.2f", 100*raw[i]/sum)
	}
	return out
}

// genRomanTitles produces sequential "<prefix> <roman>" values whose
// pairwise edit distances are inherently tiny (Figure 2h).
func genRomanTitles(rng *rand.Rand, n int) []string {
	prefixes := []string{"Super Bowl", "Chapter", "Part", "Volume", "Final", "Act", "Book", "Season"}
	p := prefixes[rng.Intn(len(prefixes))]
	start := 1 + rng.Intn(30)
	nums := wordlist.RomanNumerals(start + n)
	out := make([]string, n)
	for i := range out {
		out[i] = p + " " + nums[start+i-1]
	}
	return out
}

// genAliases produces idiosyncratic employee-alias-like values
// ("JenniferA", "SmithB") that are OOV for any dictionary or speller.
func genAliases(rng *rand.Rand, n int) []string {
	first := wordlist.FirstNames()
	out := make([]string, n)
	for i := range out {
		out[i] = first[rng.Intn(len(first))] + randLetters(rng, 1)
	}
	return out
}

// sampleDistinct samples up to n distinct values from pool (with
// replacement once the pool is exhausted).
func sampleDistinct(rng *rand.Rand, pool []string, n int) []string {
	idx := rng.Perm(len(pool))
	out := make([]string, n)
	for i := range out {
		if i < len(idx) {
			out[i] = pool[idx[i]]
		} else {
			out[i] = pool[rng.Intn(len(pool))]
		}
	}
	return out
}

// skewedIndex draws an index with a Zipf-like head bias: early list
// entries (major cities) occur often, tail entries (rare toponyms, the
// Figure 3 bait) only occasionally.
func skewedIndex(rng *rand.Rand, n int) int {
	r := rng.Float64()
	i := int(float64(n) * r * r * r)
	if i >= n {
		i = n - 1
	}
	return i
}

func randLetters(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('A' + rng.Intn(26))
	}
	return string(b)
}

// genEmails produces firstname.lastname@domain addresses: idiosyncratic
// mixed values with a fixed structural pattern. A quarter of columns
// contain a numbered sibling of one of their rows ("mary.meyer2@…") —
// the standard name-taken convention, a legitimate distance-1 pair that
// differs only in a digit.
func genEmails(rng *rand.Rand, n int) []string {
	first, last := wordlist.FirstNames(), wordlist.LastNames()
	domains := []string{"example.com", "corp.example.com", "mail.example.org", "dept.example.net"}
	domain := domains[rng.Intn(len(domains))]
	out := make([]string, n)
	for i := range out {
		out[i] = strings.ToLower(first[rng.Intn(len(first))]) + "." +
			strings.ToLower(last[rng.Intn(len(last))]) + "@" + domain
	}
	if n >= 4 && rng.Intn(4) == 0 {
		src := rng.Intn(n)
		dst := rng.Intn(n)
		if dst == src {
			dst = (dst + 1) % n
		}
		if at := strings.IndexByte(out[src], '@'); at > 0 {
			out[dst] = out[src][:at] + fmt.Sprint(2+rng.Intn(3)) + out[src][at:]
		}
	}
	return out
}

// genPhones produces phone numbers in one per-column format.
func genPhones(rng *rand.Rand, n int) []string {
	layout := rng.Intn(3)
	out := make([]string, n)
	for i := range out {
		a, b, c := 200+rng.Intn(800), rng.Intn(1000), rng.Intn(10000)
		switch layout {
		case 0:
			out[i] = fmt.Sprintf("(%03d) %03d-%04d", a, b, c)
		case 1:
			out[i] = fmt.Sprintf("%03d-%03d-%04d", a, b, c)
		default:
			out[i] = fmt.Sprintf("+1 %03d %03d %04d", a, b, c)
		}
	}
	return out
}

// genCurrency produces "$1,234.56"-style amounts; the thousands separator
// and two-decimal suffix exercise the numeric parser's grouping rules.
func genCurrency(rng *rand.Rand, n int) []string {
	scale := []float64{100, 1000, 100000}[rng.Intn(3)]
	out := make([]string, n)
	for i := range out {
		v := rng.Float64() * scale
		whole := int64(v)
		cents := int(v*100) % 100
		out[i] = "$" + groupThousands(whole) + fmt.Sprintf(".%02d", cents)
	}
	return out
}

// groupThousands renders 1234567 as "1,234,567".
func groupThousands(v int64) string {
	s := fmt.Sprint(v)
	if len(s) <= 3 {
		return s
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	return s + "," + strings.Join(parts, ",")
}
