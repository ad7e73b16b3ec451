// Package mapreduce is a small in-process MapReduce-like execution engine.
//
// The paper implements Uni-Detect's offline learning component "as
// MapReduce-like jobs in order to crunch T" (§2.2.3, System Architecture).
// This package provides the same programming model — a Map phase that emits
// keyed values from each input shard, a shuffle that groups values by key,
// and a Reduce phase that folds each group — executed concurrently on a
// worker pool within one process.
package mapreduce

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/unidetect/unidetect/internal/obs"
)

// Mapper transforms one input into zero or more keyed values via emit.
// Mappers run concurrently and must not share mutable state.
type Mapper[I any, K comparable, V any] func(in I, emit func(K, V)) error

// Reducer folds all values for one key into a result.
type Reducer[K comparable, V any, R any] func(key K, values []V) (R, error)

// Config controls job execution.
type Config struct {
	// Workers is the map-phase parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// FT is the fault-tolerance configuration: per-unit retry with
	// capped exponential backoff, a failure policy with a loss budget,
	// and deterministic fault injection. The zero value preserves the
	// historical semantics (one attempt, first error aborts).
	FT FT
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Run executes a full map-shuffle-reduce job over the inputs and returns
// the per-key results. Under the default FT config map errors cancel the
// job and the first error wins; with retries configured a unit fails only
// after exhausting its attempts, and under SkipAndLog failed units are
// dropped (within the loss budget) instead of aborting.
func Run[I any, K comparable, V any, R any](
	ctx context.Context,
	cfg Config,
	inputs []I,
	m Mapper[I, K, V],
	r Reducer[K, V, R],
) (map[K]R, error) {
	groups, err := MapShuffle(ctx, cfg, inputs, m)
	if err != nil {
		return nil, err
	}
	return Reduce(ctx, cfg, groups, r)
}

// MapShuffle runs the map phase concurrently and groups emitted values by
// key.
func MapShuffle[I any, K comparable, V any](
	ctx context.Context,
	cfg Config,
	inputs []I,
	m Mapper[I, K, V],
) (map[K][]V, error) {
	jm := cfg.FT.metrics("map")
	sp := obs.StartSpan(ctx, "mapreduce/map")
	sp.Tag("shards", len(inputs))
	phaseStart := cfg.FT.Obs.Now()
	defer func() {
		jm.phase.Observe((cfg.FT.Obs.Now() - phaseStart).Seconds())
		sp.End()
	}()
	nw := cfg.workers()
	if nw > len(inputs) && len(inputs) > 0 {
		nw = len(inputs)
	}
	if len(inputs) == 0 {
		return map[K][]V{}, nil
	}

	type kv struct {
		k K
		v V
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Each worker accumulates locally, then the shards are merged: this
	// keeps the hot emit path lock-free.
	shards := make([][]kv, nw)
	errs := make([]error, nw)
	// The feeder joins the same WaitGroup as the workers: on the error
	// path it unblocks via ctx.Done (cancel happens before the worker
	// returns), so MapShuffle never returns with the feeder still live.
	var wg sync.WaitGroup
	next := make(chan int)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(next)
		for i := range inputs {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()
	lt := &lossTracker{ft: cfg.FT, jm: jm}
	var retries atomic.Int64
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			emit := func(k K, v V) { shards[w] = append(shards[w], kv{k, v}) }
			for i := range next {
				site := "mapreduce/map/shard=" + strconv.Itoa(i)
				mark := len(shards[w])
				err := runUnit(ctx, cfg.FT, jm, site, &retries,
					func() error { return m(inputs[i], emit) },
					func() { shards[w] = shards[w][:mark] })
				if err == nil {
					continue
				}
				if ctx.Err() != nil {
					// The job is already being cancelled; whoever
					// cancelled recorded the cause.
					return
				}
				if lerr := lt.lose(i, false, fmt.Errorf("map input %d: %w", i, err)); lerr != nil {
					errs[w] = lerr
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lt.flush()
	if cfg.FT.Stats != nil {
		cfg.FT.Stats.MapRetries += int(retries.Load())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil && err != context.Canceled {
		return nil, err
	}
	groups := make(map[K][]V)
	for _, shard := range shards {
		for _, e := range shard {
			groups[e.k] = append(groups[e.k], e.v)
		}
	}
	return groups, nil
}

// Reduce folds each key group concurrently.
func Reduce[K comparable, V any, R any](
	ctx context.Context,
	cfg Config,
	groups map[K][]V,
	r Reducer[K, V, R],
) (map[K]R, error) {
	return ReduceObserved(ctx, cfg, groups, r, nil)
}

// ReduceObserved folds each key group concurrently, calling observe(k,
// result) — serially, under the output lock — as each bucket completes.
// This is the hook checkpointing builds on: the observer durably records
// finished buckets so a killed job can resume instead of restarting.
// Unlike reducer errors, an observe error is never retried or skipped;
// it aborts the job (it signals broken persistence, not chaos).
func ReduceObserved[K comparable, V any, R any](
	ctx context.Context,
	cfg Config,
	groups map[K][]V,
	r Reducer[K, V, R],
	observe func(K, R) error,
) (map[K]R, error) {
	jm := cfg.FT.metrics("reduce")
	sp := obs.StartSpan(ctx, "mapreduce/reduce")
	sp.Tag("keys", len(groups))
	phaseStart := cfg.FT.Obs.Now()
	defer func() {
		jm.phase.Observe((cfg.FT.Obs.Now() - phaseStart).Seconds())
		sp.End()
	}()
	keys := make([]K, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	nw := cfg.workers()
	if nw > len(keys) && len(keys) > 0 {
		nw = len(keys)
	}
	out := make(map[K]R, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	errs := make([]error, nw)
	next := make(chan K)
	var wg sync.WaitGroup
	// As in MapShuffle, the feeder is part of the join set.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(next)
		for _, k := range keys {
			select {
			case next <- k:
			case <-ctx.Done():
				return
			}
		}
	}()
	lt := &lossTracker{ft: cfg.FT, jm: jm}
	var retries atomic.Int64
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range next {
				site := "mapreduce/reduce/key=" + fmt.Sprint(k)
				var res R
				err := runUnit(ctx, cfg.FT, jm, site, &retries,
					func() error {
						var rerr error
						res, rerr = r(k, groups[k])
						return rerr
					}, nil)
				if err == nil {
					mu.Lock()
					out[k] = res
					var oerr error
					if observe != nil {
						oerr = observe(k, res)
					}
					mu.Unlock()
					if oerr != nil {
						errs[w] = fmt.Errorf("reduce observer, key %v: %w", k, oerr)
						cancel()
						return
					}
					continue
				}
				if ctx.Err() != nil {
					return
				}
				if lerr := lt.lose(0, true, fmt.Errorf("reduce key %v: %w", k, err)); lerr != nil {
					errs[w] = lerr
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	lt.flush()
	if cfg.FT.Stats != nil {
		cfg.FT.Stats.ReduceRetries += int(retries.Load())
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil && err != context.Canceled {
		return nil, err
	}
	return out, nil
}

// runUnit executes one work unit under the retry policy: each attempt
// first passes the unit's injection site, then runs attempt (panics from
// either are recovered into retryable errors); on failure rollback (if
// any) undoes partial effects and runUnit sleeps the backoff on the FT
// clock before trying again, up to Retry.MaxAttempts total attempts.
func runUnit(ctx context.Context, ft FT, jm jobMetrics, site string, retries *atomic.Int64, attempt func() error, rollback func()) error {
	max := ft.Retry.attempts()
	for a := 1; ; a++ {
		err := recovered(func() error {
			if err := ft.Inject.Hit(ctx, site); err != nil {
				return err
			}
			return attempt()
		})
		if err == nil {
			return nil
		}
		if isPanicError(err) {
			jm.panics.Inc()
		}
		if rollback != nil {
			rollback()
		}
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if a >= max {
			return fmt.Errorf("after %d attempt(s): %w", a, err)
		}
		retries.Add(1)
		jm.retries.Inc()
		d := ft.Retry.backoff(ft.Seed, site, a)
		ft.logf("mapreduce: %s attempt %d/%d failed: %v; retrying in %v", site, a, max, err, d)
		if d > 0 {
			if serr := ft.clock().Sleep(ctx, d); serr != nil {
				return serr
			}
		}
	}
}
