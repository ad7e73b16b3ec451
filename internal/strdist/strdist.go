// Package strdist implements the string-distance primitives behind the
// spelling-error detector and the Fuzzy-Cluster baseline: Levenshtein edit
// distance (full and early-exit bounded variants), minimum pairwise distance
// over a column, and extraction of the differing tokens of a value pair
// (used by the §3.2 featurization on token lengths).
package strdist

import "unicode/utf8"

// Levenshtein returns the edit distance (unit-cost insert/delete/substitute)
// between a and b, computed over runes.
func Levenshtein(a, b string) int {
	ra, rb := runes(a), runes(b)
	la, lb := len(ra), len(rb)
	if la == 0 {
		return lb
	}
	if lb == 0 {
		return la
	}
	prev := make([]int, lb+1)
	cur := make([]int, lb+1)
	for j := 0; j <= lb; j++ {
		prev[j] = j
	}
	for i := 1; i <= la; i++ {
		cur[0] = i
		for j := 1; j <= lb; j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[lb]
}

// LevenshteinBounded returns the edit distance between a and b if it is at
// most maxDist, and (maxDist+1, false) otherwise. It prunes with the
// length-difference lower bound and a banded DP, making it cheap to reject
// distant pairs — the common case in the O(n²) column scans of MPD and
// Fuzzy-Cluster.
func LevenshteinBounded(a, b string, maxDist int) (int, bool) {
	if maxDist < 0 {
		return maxDist + 1, false
	}
	var rows dpRows
	return rows.banded(runes(a), runes(b), maxDist)
}

// Pair is an unordered pair of distinct column row indices with their edit
// distance.
type Pair struct {
	I, J int
	Dist int
}

// MinPairDist returns the minimum pairwise edit distance over the distinct
// values of vals (the paper's MPD metric, §3.2) and one pair achieving it.
// Rows holding equal values are skipped: MPD is defined over u != v.
// It returns ok=false when fewer than two distinct values exist.
//
// The scan carries the best-so-far bound into LevenshteinBounded, so the
// common case is O(n² · band) instead of O(n² · |u||v|).
func MinPairDist(vals []string) (p Pair, ok bool) {
	best := -1
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] == vals[j] {
				continue
			}
			bound := best - 1
			if best < 0 {
				bound = maxLen(vals[i], vals[j])
			}
			d, within := LevenshteinBounded(vals[i], vals[j], bound)
			if !within {
				continue
			}
			if best < 0 || d < best {
				best = d
				p = Pair{I: i, J: j, Dist: d}
				if best == 1 {
					return p, true // cannot do better between distinct values
				}
			}
		}
	}
	return p, best >= 0
}

// SecondMinPairDist returns the minimum pairwise edit distance over the
// distinct values of vals after removing the value at row `drop`. This is
// the perturbed MPD(D_O^P) of §3.2.
func SecondMinPairDist(vals []string, drop int) (p Pair, ok bool) {
	kept := make([]string, 0, len(vals)-1)
	idx := make([]int, 0, len(vals)-1)
	for i, v := range vals {
		if i == drop {
			continue
		}
		kept = append(kept, v)
		idx = append(idx, i)
	}
	q, ok := MinPairDist(kept)
	if !ok {
		return Pair{}, false
	}
	return Pair{I: idx[q.I], J: idx[q.J], Dist: q.Dist}, true
}

// DifferingTokens returns the tokens of a and b that are not shared between
// them, splitting on spaces. It is used to measure "the average length of
// the tokens that differ between the MPD pair" (§3.2): an edit inside long
// tokens ("Doeling"/"Dowling") suggests a typo, while short differing
// tokens ("XXI"/"XXII") suggest legitimate near-identical values.
func DifferingTokens(a, b string) (onlyA, onlyB []string) {
	ta, tb := fields(a), fields(b)
	countB := make(map[string]int, len(tb))
	for _, t := range tb {
		countB[t]++
	}
	for _, t := range ta {
		if countB[t] > 0 {
			countB[t]--
		} else {
			onlyA = append(onlyA, t)
		}
	}
	countA := make(map[string]int, len(ta))
	for _, t := range ta {
		countA[t]++
	}
	for _, t := range tb {
		if countA[t] > 0 {
			countA[t]--
		} else {
			onlyB = append(onlyB, t)
		}
	}
	return onlyA, onlyB
}

// AvgDifferingTokenLen returns the mean rune length of the differing tokens
// of the pair (0 when the values are identical token-wise).
func AvgDifferingTokenLen(a, b string) float64 {
	onlyA, onlyB := DifferingTokens(a, b)
	n := len(onlyA) + len(onlyB)
	if n == 0 {
		return 0
	}
	total := 0
	for _, t := range onlyA {
		total += utf8.RuneCountInString(t)
	}
	for _, t := range onlyB {
		total += utf8.RuneCountInString(t)
	}
	return float64(total) / float64(n)
}

func fields(s string) []string {
	var out []string
	start := -1
	for i, r := range s {
		if r == ' ' || r == '\t' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
			continue
		}
		if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// runes decomposes s into a fresh rune slice.
//
// alloc-budget: 2 per-call decomposition of LevenshteinBounded, which the MPD kernel does not call
func runes(s string) []rune {
	// Fast path for ASCII.
	ascii := true
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			ascii = false
			break
		}
	}
	if ascii {
		r := make([]rune, len(s))
		for i := 0; i < len(s); i++ {
			r[i] = rune(s[i])
		}
		return r
	}
	return []rune(s)
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxLen(a, b string) int {
	la, lb := utf8.RuneCountInString(a), utf8.RuneCountInString(b)
	if la > lb {
		return la
	}
	return lb
}
