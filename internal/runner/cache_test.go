package runner

import (
	"fmt"
	"sync/atomic"
	"testing"

	"anton3/internal/resultstore"
	"anton3/internal/sim"
)

// cacheableJobs builds n Run-only jobs with content-addressed keys and a
// shared execution counter, so tests can prove whether a run simulated or
// replayed.
func cacheableJobs(n int, executed *atomic.Int64) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		seed := uint64(3000 + i)
		jobs[i] = Job{
			Name:     fmt.Sprintf("cell%02d", i),
			Seed:     seed,
			CacheKey: resultstore.KeyFor("test/cell", seed, struct{ N int }{i}),
			Run: func() (Output, error) {
				executed.Add(1)
				return Output{Text: fmt.Sprintf("cell %d drew %d", i, sim.NewRand(seed).Uint64())}, nil
			},
		}
	}
	return jobs
}

// TestCacheShortCircuitsJobs checks the job-grain memoization end to end:
// a second run against the same store executes nothing, marks every
// result Cached, reports the traffic in Report.Cache, and renders output
// byte-identical to the first (uncached-path) run.
func TestCacheShortCircuitsJobs(t *testing.T) {
	store, err := resultstore.Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	var executed atomic.Int64

	first, err := Run(cacheableJobs(8, &executed), 4, Options{Cache: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 8 {
		t.Fatalf("cold run executed %d jobs, want 8", got)
	}
	if first.Cache == nil || first.Cache.Stored != 8 || first.Cache.Hits != 0 {
		t.Fatalf("cold run cache stats %+v, want 8 stored, 0 hits", first.Cache)
	}
	for _, r := range first.Results {
		if r.Cached {
			t.Fatalf("cold run result %s marked Cached", r.Name)
		}
	}

	second, err := Run(cacheableJobs(8, &executed), 4, Options{Cache: store}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 8 {
		t.Fatalf("warm run executed %d extra jobs, want 0", got-8)
	}
	if second.Cache == nil || second.Cache.Hits != 8 || second.Cache.Misses != 0 {
		t.Fatalf("warm run cache stats %+v, want 8 hits, 0 misses", second.Cache)
	}
	for _, r := range second.Results {
		if !r.Cached {
			t.Fatalf("warm run result %s not marked Cached", r.Name)
		}
	}
	if first.RenderAll() != second.RenderAll() {
		t.Fatalf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s",
			first.RenderAll(), second.RenderAll())
	}
}

// TestCacheIgnoredWithoutStore checks that a valid CacheKey is inert when
// the pool runs without Options.Cache — the default path must behave
// exactly as if the key were absent.
func TestCacheIgnoredWithoutStore(t *testing.T) {
	var executed atomic.Int64
	rep, err := Run(cacheableJobs(4, &executed), 2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := executed.Load(); got != 4 {
		t.Fatalf("executed %d jobs, want 4", got)
	}
	if rep.Cache != nil {
		t.Fatalf("Report.Cache %+v without a store, want nil", rep.Cache)
	}
	for _, r := range rep.Results {
		if r.Cached {
			t.Fatalf("result %s marked Cached without a store", r.Name)
		}
	}
}

// TestCacheKeyRejectedOnReducePaths checks the static validation that
// keeps memoized Data type-faithful: a cached Data round-trips as generic
// JSON, so a Reduce job may not be memoized and a memoized job may not
// feed one.
func TestCacheKeyRejectedOnReducePaths(t *testing.T) {
	run := func() (Output, error) { return Output{}, nil }
	red := func([]Result) (Output, error) { return Output{}, nil }
	key := resultstore.KeyFor("test/cell", 1, struct{}{})
	cases := []struct {
		name string
		jobs []Job
	}{
		{"key on reduce job", []Job{
			{Name: "a", Run: run},
			{Name: "agg", Needs: []string{"a"}, CacheKey: key, Reduce: red},
		}},
		{"key on job feeding a reduce", []Job{
			{Name: "a", CacheKey: key, Run: run},
			{Name: "agg", Needs: []string{"a"}, Reduce: red},
		}},
	}
	for _, c := range cases {
		if _, err := Run(c.jobs, 2, Options{}, nil); err == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}
