package datagen

import (
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// TestGenLetterCodesBeyondCodeSpace asks for more codes than 26^length
// distinct ones exist: the generator must finish, with unique codes.
func TestGenLetterCodesBeyondCodeSpace(t *testing.T) {
	const n, length = 26*26 + 50, 2
	done := make(chan []string, 1)
	go func() { done <- genLetterCodes(rand.New(rand.NewSource(1)), n, length) }()
	var out []string
	select {
	case out = <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("genLetterCodes did not finish for n > 26^length")
	}
	if len(out) != n {
		t.Fatalf("got %d codes, want %d", len(out), n)
	}
	seen := map[string]bool{}
	for i, v := range out {
		if seen[v] {
			t.Fatalf("code %q repeats", v)
		}
		seen[v] = true
		if want := length + btoi(i >= 26*26); len(v) != want {
			t.Fatalf("code %d = %q, want length %d", i, v, want)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestGenLetterCodesUnchangedWithinCodeSpace pins the output for
// n <= 26^length to the loop that drew until unique, so generated
// corpora stay byte-identical.
func TestGenLetterCodesUnchangedWithinCodeSpace(t *testing.T) {
	drawUntilUnique := func(rng *rand.Rand, n, length int) []string {
		seen := make(map[string]bool, n)
		out := make([]string, 0, n)
		for len(out) < n {
			v := randLetters(rng, length)
			if seen[v] {
				continue
			}
			seen[v] = true
			out = append(out, v)
		}
		return out
	}
	for _, c := range []struct{ n, length int }{{0, 4}, {1, 1}, {26, 1}, {300, 2}, {676, 2}, {2000, 4}} {
		want := drawUntilUnique(rand.New(rand.NewSource(7)), c.n, c.length)
		got := genLetterCodes(rand.New(rand.NewSource(7)), c.n, c.length)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("n=%d length=%d: output changed", c.n, c.length)
		}
	}
}
