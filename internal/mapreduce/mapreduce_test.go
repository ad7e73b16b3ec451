package mapreduce

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
)

func TestWordCount(t *testing.T) {
	inputs := []string{"a b a", "b c", "a"}
	got, err := Run(context.Background(), Config{Workers: 3}, inputs,
		func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		func(_ string, vs []int) (int, error) {
			total := 0
			for _, v := range vs {
				total += v
			}
			return total, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"a": 3, "b": 2, "c": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v, want %v", got, want)
	}
}

func TestEmptyInputs(t *testing.T) {
	got, err := Run(context.Background(), Config{}, nil,
		func(int, func(string, int)) error { return nil },
		func(string, []int) (int, error) { return 0, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("got %v, want empty", got)
	}
}

func TestMapErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Workers: 2}, []int{1, 2, 3, 4},
		func(i int, emit func(string, int)) error {
			if i == 3 {
				return boom
			}
			emit("k", i)
			return nil
		},
		func(string, []int) (int, error) { return 0, nil })
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestReduceErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	_, err := Run(context.Background(), Config{Workers: 2}, []int{1, 2, 3},
		func(i int, emit func(int, int)) error { emit(i%2, i); return nil },
		func(k int, _ []int) (int, error) {
			if k == 1 {
				return 0, boom
			}
			return 0, nil
		})
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, want wrapped boom", err)
	}
}

func TestManyInputsFewWorkers(t *testing.T) {
	inputs := make([]int, 1000)
	for i := range inputs {
		inputs[i] = i
	}
	got, err := Run(context.Background(), Config{Workers: 4}, inputs,
		func(i int, emit func(string, int)) error { emit("sum", i); return nil },
		func(_ string, vs []int) (int, error) {
			s := 0
			for _, v := range vs {
				s += v
			}
			return s, nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got["sum"] != 999*1000/2 {
		t.Errorf("sum = %d", got["sum"])
	}
}

func TestMapShuffleGroups(t *testing.T) {
	groups, err := MapShuffle(context.Background(), Config{Workers: 2},
		[]int{1, 2, 3, 4, 5},
		func(i int, emit func(int, int)) error { emit(i%2, i); return nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(groups[0]) != 2 || len(groups[1]) != 3 {
		t.Errorf("groups = %v", groups)
	}
}

func TestContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	inputs := make([]int, 100000)
	_, err := MapShuffle(ctx, Config{Workers: 2}, inputs,
		func(i int, emit func(int, int)) error { emit(i, i); return nil })
	// Cancellation before start must not deadlock; partial results or an
	// empty group map are both acceptable, but the call must return.
	_ = err
}

func TestDefaultWorkers(t *testing.T) {
	// Workers <= 0 must still execute.
	got, err := Run(context.Background(), Config{Workers: -1}, []int{1, 2},
		func(i int, emit func(string, int)) error { emit("n", 1); return nil },
		func(_ string, vs []int) (int, error) { return len(vs), nil })
	if err != nil {
		t.Fatal(err)
	}
	if got["n"] != 2 {
		t.Errorf("n = %d", got["n"])
	}
}
