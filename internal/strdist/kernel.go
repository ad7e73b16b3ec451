package strdist

import (
	"math/bits"
	"sort"
	"unicode/utf8"

	"github.com/unidetect/unidetect/internal/table"
)

// Scratch is the reusable state of SpellingMPD: the distance metadata
// of the column's distinct values, in the profile's first-occurrence
// order, and the distance buffers. Every buffer grows to the largest
// column the owner has seen and is reused after that. A Scratch belongs
// to one goroutine at a time.
type Scratch struct {
	vals      []value  // distinct values in first-occurrence order
	code      []int32  // per row: its value's index in vals (the profile's codes)
	runes     []rune   // decoded runes of every value, for the DP fallback
	keys      []string // reversed values (blocked scan's suffix order), by value index
	keysReady bool
	collide   bool    // some value decodes to utf8.RuneError, so distinct values can be 0 apart
	ord       []int32 // scan order: value indexes (exact scans) or rows (blocked scans)
	rows      dpRows
	peq       [256]uint64
}

// value is one distinct value of the column being scanned.
type value struct {
	s      string
	first  int32  // first row holding the value
	count  int32  // rows holding it
	n      int32  // length in runes
	lo, hi int32  // the value's runes in Scratch.runes
	sig    uint64 // character-set signature (charBit of every rune)
	ascii  bool
}

// SpellingMPD computes both metrics of the spelling detector (§3.2) in
// one pass over a column's profile: the closest pair p of its values,
// exactly as MinPairDistCapped returns it over the column's rows, and
// θ2, the larger of the Dist values that SecondMinPairDistCapped returns
// for dropping row p.I and row p.J. ok is false when no pair exists or
// when neither drop leaves one.
//
// Columns of at most cap rows (cap <= 0 means ExactMPDCap) are scanned
// over their distinct values: the first minimal pair over distinct
// values in first-occurrence order, mapped to first rows, is exactly
// the reference's first minimal row pair. Dropping a row whose value
// occurs again leaves MPD unchanged, so θ2 needs a scan only for pair
// values that occur once; one joint scan serves both. Longer columns
// keep the sorted-neighbourhood scan over rows, duplicates included.
func SpellingMPD(prof *table.Profile, cap int, sc *Scratch) (p Pair, theta2 int, ok bool) {
	if cap <= 0 {
		cap = ExactMPDCap
	}
	sc.index(prof)
	rows := len(sc.code)
	exact := rows <= cap
	if exact {
		sc.ord = identity(sc.ord, len(sc.vals))
		st := [1]scanState{{skip: -1, stop: 1, best: -1}}
		sc.scan(sc.ord, st[:])
		if st[0].best < 0 {
			return Pair{}, 0, false
		}
		p = Pair{I: int(sc.vals[st[0].x].first), J: int(sc.vals[st[0].y].first), Dist: st[0].best}
	} else if p, ok = sc.blocked(-1); !ok {
		return Pair{}, 0, false
	}
	theta2 = -1
	if rows-1 > cap {
		for _, drop := range [2]int{p.I, p.J} {
			if q, ok := sc.blocked(drop); ok && q.Dist > theta2 {
				theta2 = q.Dist
			}
		}
	} else {
		theta2 = sc.perturbed(p, exact)
	}
	if theta2 < 0 {
		return Pair{}, 0, false
	}
	return p, theta2, true
}

// index describes the profile's distinct values into sc.vals and takes
// its codes as sc.code.
//
// alloc-budget: 1 the distinct-value table grows to the most distinct values the scratch has seen, then is reused
func (s *Scratch) index(prof *table.Profile) {
	s.vals, s.runes = s.vals[:0], s.runes[:0]
	s.keysReady, s.collide = false, false
	s.code = prof.Codes
	for _, d := range prof.Distinct {
		v := s.describe(d.Value, int(d.First))
		v.count = d.Count
		s.vals = append(s.vals, v)
	}
}

// describe computes the distance metadata of a new distinct value and
// decodes its runes into sc.runes, as []rune(v) would decode them.
//
// alloc-budget: 1 the rune arena grows to the largest column the scratch has seen, then is reused
func (s *Scratch) describe(v string, row int) value {
	d := value{s: v, first: int32(row), lo: int32(len(s.runes)), ascii: true}
	for _, r := range v {
		s.runes = append(s.runes, r)
		d.sig |= charBit(r)
		if r >= utf8.RuneSelf {
			d.ascii = false
			s.collide = s.collide || r == utf8.RuneError
		}
	}
	d.hi = int32(len(s.runes))
	d.n = d.hi - d.lo
	return d
}

// charBit maps a rune to one bit of a 64-bit character-set signature:
// letters and digits get bits of their own, other runes share the rest.
// An edit changes at most two bits of the signature, so
// ceil(popcount(sigA^sigB)/2) never exceeds the edit distance.
func charBit(r rune) uint64 {
	switch {
	case 'a' <= r && r <= 'z':
		return 1 << uint(r-'a')
	case 'A' <= r && r <= 'Z':
		return 1 << uint(r-'A'+26)
	case '0' <= r && r <= '9':
		return 1 << uint(r-'0'+52)
	}
	return 1 << (62 + uint(r)&1)
}

// scanState is one run of MinPairDist's rule over a scan order: pairs
// visited in order, the running minimum carried as the bound, and the
// run final once best <= stop.
type scanState struct {
	skip int32 // value index left out of this run (-1: none)
	stop int
	best int   // -1 before the first pair
	x, y int32 // first pair reaching best
}

func (st *scanState) live() bool { return st.best < 0 || st.best > st.stop }

// scan runs every state over the pairs of ord (value indexes) at once:
// a pair's distance is computed once, under the widest bound of the
// states that still take it.
func (s *Scratch) scan(ord []int32, sts []scanState) {
	live := len(sts)
	for i, x := range ord {
		for _, y := range ord[i+1:] {
			bound := -1
			for k := range sts {
				st := &sts[k]
				if !st.live() || st.skip == x || st.skip == y {
					continue
				}
				b := st.best - 1
				if st.best < 0 {
					b = int(max(s.vals[x].n, s.vals[y].n))
				}
				bound = max(bound, b)
			}
			if bound < 0 {
				continue
			}
			d, within := s.dist(x, y, bound)
			if !within {
				continue
			}
			for k := range sts {
				st := &sts[k]
				if !st.live() || st.skip == x || st.skip == y || (st.best >= 0 && d >= st.best) {
					continue
				}
				st.best, st.x, st.y = d, x, y
				if !st.live() {
					if live--; live == 0 {
						return
					}
				}
			}
		}
	}
}

// perturbed returns the larger MPD left after dropping row p.I or row
// p.J (SecondMinPairDist), or -1 when neither drop leaves a pair, for a
// column whose perturbed scans are exact. exact reports whether p came
// from the exact scan too, in which case p.Dist is a floor for both.
//
// A drop of a value that occurs again keeps the distinct values. Their
// order changes only when the dropped row was the value's first, and
// the order matters only when two distinct values are 0 apart (collide)
// and the minimum is at most 1: the scan stops at the first pair at
// distance 1 even if a pair at 0 follows.
func (s *Scratch) perturbed(p Pair, exact bool) int {
	stop := 1
	if exact {
		stop = max(p.Dist, 1)
	}
	orderFree := !s.collide || (exact && p.Dist >= 2)
	theta2 := -1
	var joint [2]scanState
	k := 0
	for _, drop := range [2]int{p.I, p.J} {
		u := s.code[drop]
		v := &s.vals[u]
		switch {
		case v.count == 1:
			joint[k] = scanState{skip: u, stop: stop, best: -1}
			k++
		case int(v.first) == drop && !orderFree:
			theta2 = max(theta2, s.moved(u, drop, stop))
		case exact:
			theta2 = max(theta2, p.Dist)
		default:
			joint[k] = scanState{skip: -1, stop: stop, best: -1}
			k++
		}
	}
	if k > 0 {
		s.ord = identity(s.ord, len(s.vals))
		s.scan(s.ord, joint[:k])
		for _, st := range joint[:k] {
			theta2 = max(theta2, st.best)
		}
	}
	return theta2
}

// moved scans the distinct values as they stand once row drop, the
// first row of value u, is gone while u occurs again: u moves to the
// place of its second row in first-occurrence order.
func (s *Scratch) moved(u int32, drop, stop int) int {
	second := drop + 1
	for second < len(s.code) && s.code[second] != u {
		second++
	}
	ord := growInt32(s.ord, len(s.vals))
	k, placed := 0, false
	for id := range s.vals {
		if int32(id) == u {
			continue
		}
		if !placed && int(s.vals[id].first) > second {
			ord[k], k, placed = u, k+1, true
		}
		ord[k], k = int32(id), k+1
	}
	if !placed {
		ord[k] = u
	}
	s.ord = ord
	st := [1]scanState{{skip: -1, stop: stop, best: -1}}
	s.scan(ord, st[:])
	return st[0].best
}

// blocked is minPairDistBlocked over the rows of the column other than
// drop (drop < 0 keeps them all), duplicates included. It sorts the
// same row sequence with comparators that answer exactly as the
// reference's, so sort.Slice yields the same permutations and the
// windows visit the same pairs; only the distance is the kernel's.
//
// alloc-budget: 6 sort.Slice boxing and comparators pin the reference permutations; the row order grows once per scratch
func (s *Scratch) blocked(drop int) (Pair, bool) {
	order := s.ord[:0]
	for i := range s.code {
		if i != drop {
			order = append(order, int32(i))
		}
	}
	s.ord = order
	best := -1
	var bestPair Pair
	scan := func(less func(i, j int32) bool) {
		sort.Slice(order, func(a, b int) bool { return less(order[a], order[b]) })
		for a := range order {
			hi := min(a+blockWindow, len(order)-1)
			for b := a + 1; b <= hi; b++ {
				i, j := order[a], order[b]
				x, y := s.code[i], s.code[j]
				if x == y {
					continue
				}
				bound := best - 1
				if best < 0 {
					bound = int(max(s.vals[x].n, s.vals[y].n))
				}
				d, within := s.dist(x, y, bound)
				if !within {
					continue
				}
				if best < 0 || d < best {
					best = d
					bestPair = Pair{I: int(i), J: int(j), Dist: d}
				}
			}
		}
	}
	scan(func(i, j int32) bool { return s.vals[s.code[i]].s < s.vals[s.code[j]].s })
	if best != 1 {
		s.reverseKeys()
		scan(func(i, j int32) bool { return s.keys[s.code[i]] < s.keys[s.code[j]] })
	}
	if bestPair.I > bestPair.J {
		bestPair.I, bestPair.J = bestPair.J, bestPair.I
	}
	return bestPair, best >= 0
}

// reverseKeys fills sc.keys with each distinct value reversed, once per
// column.
//
// alloc-budget: 1 the key table grows to the most distinct values the scratch has seen, then is reused
func (s *Scratch) reverseKeys() {
	if s.keysReady {
		return
	}
	if cap(s.keys) < len(s.vals) {
		s.keys = make([]string, len(s.vals))
	}
	s.keys = s.keys[:len(s.vals)]
	for i := range s.vals {
		s.keys[i] = reverseString(s.vals[i].s)
	}
	s.keysReady = true
}

// dist returns the edit distance between distinct values x and y when
// it is at most bound, and (bound+1, false) otherwise, as
// LevenshteinBounded does. Pairs whose length difference or
// character-set difference already exceeds bound cost nothing more;
// ASCII pairs whose shorter side, after common prefix and suffix are
// stripped, fits a machine word take the bit-parallel distance, and the
// rest the banded DP over runes.
func (s *Scratch) dist(x, y int32, bound int) (int, bool) {
	a, b := &s.vals[x], &s.vals[y]
	lower := int(a.n - b.n)
	if lower < 0 {
		lower = -lower
	}
	if c := (bits.OnesCount64(a.sig^b.sig) + 1) / 2; c > lower {
		lower = c
	}
	if lower > bound {
		return bound + 1, false
	}
	if a.ascii && b.ascii {
		p, t := trimCommon(a.s, b.s)
		if len(p) > len(t) {
			p, t = t, p
		}
		if len(p) <= 64 {
			return s.myers(p, t, bound)
		}
	}
	return s.rows.banded(s.runes[a.lo:a.hi], s.runes[b.lo:b.hi], bound)
}

// trimCommon strips the common prefix and suffix of two ASCII strings;
// the edit distance of what remains is the edit distance of a and b.
func trimCommon(a, b string) (string, string) {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	a, b = a[i:], b[i:]
	for len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		a, b = a[:len(a)-1], b[:len(b)-1]
	}
	return a, b
}

// myers is the bit-parallel edit distance of Myers (1999) in Hyyrö's
// formulation for whole strings: the DP column over pattern p (at most
// 64 ASCII bytes) is one pair of delta words, and each byte of t
// advances it in a few word operations. It stops once the distance can
// no longer come back within bound.
func (s *Scratch) myers(p, t string, bound int) (int, bool) {
	if len(p) == 0 {
		if len(t) > bound {
			return bound + 1, false
		}
		return len(t), true
	}
	for i := 0; i < len(p); i++ {
		s.peq[p[i]] |= 1 << uint(i)
	}
	pv, mv := ^uint64(0), uint64(0)
	last := uint64(1) << uint(len(p)-1)
	d := len(p)
	for j := 0; j < len(t); j++ {
		eq := s.peq[t[j]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			d++
		} else if mh&last != 0 {
			d--
		}
		if d-(len(t)-1-j) > bound {
			break
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	for i := 0; i < len(p); i++ {
		s.peq[p[i]] = 0
	}
	if d > bound {
		return bound + 1, false
	}
	return d, true
}

// dpRows are the two rows of the banded DP, grown to the longest value
// seen and reused.
type dpRows struct {
	prev, cur []int
}

// banded is the banded edit-distance DP over runes behind both
// LevenshteinBounded and the kernel's fallback: only cells with
// |i-j| <= maxDist can be <= maxDist. It strips the common prefix and
// suffix first, which leaves the distance unchanged.
func (r *dpRows) banded(ra, rb []rune, maxDist int) (int, bool) {
	for len(ra) > 0 && len(rb) > 0 && ra[0] == rb[0] {
		ra, rb = ra[1:], rb[1:]
	}
	for len(ra) > 0 && len(rb) > 0 && ra[len(ra)-1] == rb[len(rb)-1] {
		ra, rb = ra[:len(ra)-1], rb[:len(rb)-1]
	}
	la, lb := len(ra), len(rb)
	if abs(la-lb) > maxDist {
		return maxDist + 1, false
	}
	if la == 0 {
		return lb, true
	}
	if lb == 0 {
		return la, true
	}
	const inf = 1 << 29
	r.prev = growInt(r.prev, lb+1)
	r.cur = growInt(r.cur, lb+1)
	prev, cur := r.prev, r.cur
	for j := 0; j <= lb; j++ {
		if j <= maxDist {
			prev[j] = j
		} else {
			prev[j] = inf
		}
	}
	for i := 1; i <= la; i++ {
		lo := max(i-maxDist, 1)
		hi := min(i+maxDist, lb)
		rowMin := inf
		if lo > 1 {
			cur[lo-1] = inf
		} else {
			//lint:ignore hotpanic cur has lb+1 >= 2 entries (lb == 0 returns above)
			cur[0] = i
			rowMin = i
		}
		for j := lo; j <= hi; j++ {
			v := prev[j-1]
			if ra[i-1] != rb[j-1] {
				v++
			}
			if c := cur[j-1] + 1; c < v {
				v = c
			}
			if c := prev[j] + 1; c < v {
				v = c
			}
			cur[j] = v
			rowMin = min(rowMin, v)
		}
		if hi < lb {
			cur[hi+1] = inf
		}
		if rowMin > maxDist {
			return maxDist + 1, false
		}
		prev, cur = cur, prev
	}
	if prev[lb] > maxDist {
		return maxDist + 1, false
	}
	return prev[lb], true
}

// identity returns buf holding 0..n-1.
func identity(buf []int32, n int) []int32 {
	buf = growInt32(buf, n)
	for i := range buf {
		buf[i] = int32(i)
	}
	return buf
}

// growInt32 returns buf resized to n, reallocating only to grow.
//
// alloc-budget: 1 grows to the largest column the scratch has seen, then reuses
func growInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growInt is growInt32 for the DP rows.
//
// alloc-budget: 1 grows to the longest value the scratch has seen, then reuses
func growInt(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	return buf[:n]
}
