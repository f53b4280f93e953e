// Package runner executes independent experiments on a worker pool.
//
// Every experiment in this repository is a pure function of its
// configuration and seed: it builds a private sim.Kernel, runs it, and
// returns rows. Kernels share no state, so independent experiments can run
// on separate goroutines — the runner exploits that to use every core while
// keeping output deterministic:
//
//   - each Job draws its randomness from its own seed, so random streams
//     never depend on which worker runs the job or in what order jobs
//     finish;
//   - results are collected by job index and rendered in submission order,
//     so the concatenated output is byte-identical to a sequential run.
//
// The aggregated Report records per-job wall times, the pool's wall time
// and CPU time, and their ratio, and serializes to JSON for CI artifacts
// (BENCH_runner.json).
package runner

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"anton3/internal/cores"
	"anton3/internal/resultstore"
)

// Output is what a job's Run function produces: a rendered table/figure
// plus the typed rows behind it.
type Output struct {
	Text string // rendered table or figure, as printed by cmd/anton3
	Data any    // typed result rows, serialized into the JSON artifact
}

// Job is one self-contained experiment, or a reduction over other jobs.
type Job struct {
	// Name identifies the job in reports and artifacts ("fig5", "tables").
	// Names must be unique within one Run.
	Name string
	// Seed is reported with the job's result: the seed its experiment
	// draws from, for experiments that draw at all.
	Seed uint64
	// Cost is a relative expected-runtime hint. The pool starts expensive
	// jobs first so the long pole overlaps the small jobs instead of
	// trailing them; it has no effect on output, only on wall time.
	Cost float64
	// Hidden marks a job whose Result is recorded in the report but whose
	// Text is excluded from RenderAll and caller display — the shape of a
	// sub-job whose rows a Reduce job folds into one figure.
	Hidden bool
	// Run executes the experiment. Exactly one of Run, ShardRun and
	// Reduce must be set.
	Run func() (Output, error)
	// Needs lists jobs whose Results this job consumes; the pool holds
	// the job back until all of them have completed, then calls Reduce
	// with their Results in Needs order. Sharded experiments use this to
	// split a sweep into per-slice sub-jobs plus one assembling reducer
	// while keeping output byte-identical at any worker count.
	Needs  []string
	Reduce func(inputs []Result) (Output, error)
	// CacheKey, when valid and the pool runs with Options.Cache, lets
	// the job short-circuit: a stored Output under the key is returned
	// without calling Run (or ShardRun), and a computed Output is stored
	// back on success. The key must capture the job's entire
	// configuration and seed (resultstore.KeyFor); the job must be a
	// pure function of them. Only Run and ShardRun jobs may carry a key
	// — a cached Data field round-trips through JSON as generic values
	// (maps/slices), so jobs whose Results a Reduce consumes with type
	// assertions must not be memoized, and resolveDeps rejects both a
	// keyed Reduce job and a keyed dependency.
	CacheKey resultstore.Key
	// ShardRun executes an experiment whose simulated machines run
	// across kernel shards: the pool calls it with the shard count
	// Options.Shards sets or grants. The job must produce byte-identical
	// output at any shard count — the guarantee the sharded simulation
	// harnesses already carry — so the count changes wall time only,
	// never a digit of output.
	ShardRun func(shards int) (Output, error)
}

// Options tunes pool scheduling; the zero value grants shards from free
// cores and caches nothing.
type Options struct {
	// Shards is the kernel shard count of every ShardRun job when
	// positive. At 0, a ShardRun job gets its shards from the run's free
	// cores when it is handed to a worker: the free cores beyond its own
	// and one for each job still waiting for a worker (a grid smaller
	// than the budget, or the tail of a draining queue) make it run on 2
	// or 4 shards, and otherwise on 1. A running job is never re-sharded,
	// so a long pole gains only when the shortfall shows at its dispatch.
	// Output is byte-identical either way.
	Shards int
	// Cache arms Job.CacheKey memoization: jobs with a valid key consult
	// the store before running and record their Output after. nil (the
	// zero value) disables caching entirely — keys are ignored and every
	// job runs. Because stored outputs are exactly what the job
	// produced, Text output is byte-identical with the cache on, off,
	// cold or warm.
	Cache *resultstore.Store
}

// Result is one job's outcome inside a Report.
type Result struct {
	Name   string `json:"name"`
	Seed   uint64 `json:"seed"`
	Hidden bool   `json:"hidden,omitempty"`
	Text   string `json:"text"`
	Data   any    `json:"data,omitempty"`
	WallNs int64  `json:"wall_ns"`
	Err    string `json:"err,omitempty"`
	// Cached marks a result served from Options.Cache instead of a Run
	// call. Text is byte-identical to a fresh run; Data round-trips
	// through the store as generic JSON values.
	Cached bool `json:"cached,omitempty"`
}

// Report aggregates a pool run.
//
// Speedup is CPUNs/WallNs where process CPU accounting is available
// (unix): the mean number of cores the run kept busy, which honestly
// reports ~1x on a single-core machine. It is not the wall-clock speedup
// over a sequential run, because CPU seconds are not sequential work: the
// kernel shards a job is granted and the helper lanes of
// md.ComputeForces and traffic.Replayer.ReplayStep count too, and so do
// the force helper's yield loops. Both draw on cores of the run's budget
// that no job holds (see Run), so one worker reads at or below about 1x
// unless Options.Shards pins more shards. Compare wall times for a
// speedup; cmd/anton3 labels the ratio CPU/wall.
// SerialNs — the sum of per-job wall times — is the fallback divisor
// elsewhere; it inflates under core oversubscription.
type Report struct {
	Jobs     int      `json:"jobs"`
	Workers  int      `json:"workers"`
	WallNs   int64    `json:"wall_ns"`   // pool wall-clock time
	CPUNs    int64    `json:"cpu_ns"`    // process CPU consumed by the run
	SerialNs int64    `json:"serial_ns"` // sum of per-job wall times
	Speedup  float64  `json:"speedup"`   // CPUNs / WallNs (SerialNs fallback)
	Results  []Result `json:"results"`   // in submission order
	// Cache snapshots the result store's traffic for this run (job-level
	// hits plus any probe-level traffic the jobs generated inside the
	// same store); present only when the pool ran with Options.Cache.
	Cache *resultstore.Stats `json:"cache,omitempty"`
}

// Run executes jobs on a pool of workers goroutines, scheduled per opts,
// and returns the aggregated report. workers <= 0 means
// runtime.GOMAXPROCS(0), divided by opts.Shards when that is above 1. The
// first job error is returned (the report still carries every result,
// including the failed job's Err); a panicking job propagates its panic.
//
// The worker count, as requested and before it is clamped to the job
// count, is the run's core budget in package cores. While the pool runs,
// Run holds the GOMAXPROCS - workers cores outside the budget and lends
// its own goroutine's core, which only waits, to the workers; each
// running job holds the cores it was granted, one per kernel shard. A
// helper lane inside a job (md.ComputeForces, traffic.Replayer.ReplayStep)
// thus starts only on a core of the budget no job holds, and shard grants
// come from the same free cores: at one worker, each job runs on one
// core.
//
// emit (if non-nil) is called on the caller's goroutine with each Result in
// submission order, as soon as that result and all earlier ones have
// completed. A driver printing emitted texts (skipping Hidden ones)
// produces output byte-identical to a sequential run without waiting for
// the whole pool to drain.
func Run(jobs []Job, workers int, opts Options, emit func(Result)) (Report, error) {
	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/max(1, opts.Shards))
	}
	outside := runtime.GOMAXPROCS(0) - workers - 1
	cores.Hold(outside)
	defer cores.Hold(-outside)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	rep := Report{Jobs: len(jobs), Workers: workers, Results: make([]Result, len(jobs))}
	if len(jobs) == 0 {
		rep.Speedup = 1
		return rep, nil
	}

	var cacheStart resultstore.Stats
	if opts.Cache != nil {
		// Report.Cache is this run's traffic, so the store's counters —
		// cumulative over its lifetime, it may serve many runs — are
		// snapshotted here and the delta taken after the pool drains.
		cacheStart = opts.Cache.Stats()
	}
	deps, dependents, err := resolveDeps(jobs)
	if err != nil {
		return rep, err
	}

	// Among ready jobs, dispatch expensive ones first so the longest job
	// starts as early as its dependencies allow.
	byCostDesc := func(idxs []int) {
		sort.SliceStable(idxs, func(a, b int) bool {
			return jobs[idxs[a]].Cost > jobs[idxs[b]].Cost
		})
	}
	indeg := make([]int, len(jobs))
	var ready []int
	for i := range jobs {
		indeg[i] = len(deps[i])
		if indeg[i] == 0 {
			ready = append(ready, i)
		}
	}
	byCostDesc(ready)

	start := time.Now()
	cpu0 := processCPUNs()
	type work struct{ idx, shards int }
	next := make(chan work, len(jobs)) // buffered: the coordinator never blocks
	done := make(chan work, len(jobs)) // buffered: workers never block here
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wk := range next {
				idx := wk.idx
				job := jobs[idx]
				res := Result{Name: job.Name, Seed: job.Seed, Hidden: job.Hidden}
				t0 := time.Now()
				var out Output
				var err error
				memo := opts.Cache != nil && job.CacheKey.Valid()
				if memo {
					var co cachedOutput
					if opts.Cache.Get(job.CacheKey, &co) {
						out = Output{Text: co.Text, Data: co.Data}
						res.Cached = true
					}
				}
				switch {
				case res.Cached:
					// Memoized: the stored Output is what Run produced.
				case job.Reduce != nil:
					// The receive of each dependency's index on done
					// ordered its Results write before this job was
					// pushed onto next.
					inputs := make([]Result, len(deps[idx]))
					for i, d := range deps[idx] {
						inputs[i] = rep.Results[d]
					}
					out, err = job.Reduce(inputs)
				case job.ShardRun != nil:
					out, err = job.ShardRun(wk.shards)
				default:
					out, err = job.Run()
				}
				if memo && !res.Cached && err == nil {
					opts.Cache.Put(job.CacheKey, cachedOutput{Text: out.Text, Data: out.Data})
				}
				res.WallNs = time.Since(t0).Nanoseconds()
				if err != nil {
					res.Err = err.Error()
				} else {
					res.Text = out.Text
					res.Data = out.Data
				}
				rep.Results[idx] = res
				done <- wk
			}
		}()
	}
	// Ready jobs wait in a cost-sorted pending queue and are released to
	// the worker channel only up to the goroutine count: holding the rest
	// back lets every dispatch see the pool's true state, so shard grants
	// are decided at each job's start rather than once at startup. A
	// dispatched job holds its cores until the coordinator receives its
	// completion, so later grants count shards, not jobs.
	dispatched, closed, inFlight := 0, false, 0
	var pendingQ []int
	fill := func() {
		for len(pendingQ) > 0 && inFlight < workers {
			w := work{idx: pendingQ[0], shards: 1}
			pendingQ = pendingQ[1:]
			if jobs[w.idx].ShardRun != nil {
				// Free cores beyond this job's own and one for each job
				// still pending become this job's extra shards.
				switch spare := cores.Free() - 1 - len(pendingQ); {
				case opts.Shards > 0:
					w.shards = opts.Shards
				case spare >= 3:
					w.shards = 4
				case spare >= 1:
					w.shards = 2
				}
			}
			cores.Hold(w.shards)
			inFlight++
			next <- w
			dispatched++
		}
		if dispatched == len(jobs) && !closed {
			close(next)
			closed = true
		}
	}
	dispatch := func(idxs []int) {
		pendingQ = append(pendingQ, idxs...)
		byCostDesc(pendingQ)
		fill()
	}
	dispatch(ready)
	// Emit the contiguous completed prefix as completions arrive; the
	// receive on done orders each Results write before its read here.
	completed := make([]bool, len(jobs))
	emitted := 0
	for range jobs {
		wk := <-done
		idx := wk.idx
		inFlight--
		cores.Hold(-wk.shards)
		completed[idx] = true
		var unblocked []int
		for _, d := range dependents[idx] {
			if indeg[d]--; indeg[d] == 0 {
				unblocked = append(unblocked, d)
			}
		}
		byCostDesc(unblocked)
		dispatch(unblocked)
		for emitted < len(jobs) && completed[emitted] {
			if emit != nil {
				emit(rep.Results[emitted])
			}
			emitted++
		}
	}
	wg.Wait()
	rep.WallNs = time.Since(start).Nanoseconds()
	if cpu1 := processCPUNs(); cpu1 > cpu0 {
		rep.CPUNs = cpu1 - cpu0
	}
	if opts.Cache != nil {
		st := opts.Cache.Stats()
		st.Hits -= cacheStart.Hits
		st.Misses -= cacheStart.Misses
		st.Stored -= cacheStart.Stored
		rep.Cache = &st
	}

	var firstErr error
	for _, r := range rep.Results {
		rep.SerialNs += r.WallNs
		if r.Err != "" && firstErr == nil {
			firstErr = fmt.Errorf("runner: job %q: %s", r.Name, r.Err)
		}
	}
	if rep.WallNs > 0 {
		work := rep.CPUNs
		if work == 0 {
			work = rep.SerialNs
		}
		rep.Speedup = float64(work) / float64(rep.WallNs)
	}
	return rep, firstErr
}

// cachedOutput is the stored envelope of a memoized job: exactly the
// Output fields a fresh Run produces. Data comes back as generic JSON
// values, which is why memoization is restricted to jobs nothing
// type-asserts against.
type cachedOutput struct {
	Text string `json:"text"`
	Data any    `json:"data,omitempty"`
}

// resolveDeps validates names and Needs references and returns, per job,
// the indices it depends on and the indices depending on it. Unknown
// names, duplicate names, mis-set Run/ShardRun/Reduce, cache keys where
// a cached (generic-JSON) Data could leak into a Reduce's type
// assertions, and dependency cycles are errors — caught before any
// worker starts.
func resolveDeps(jobs []Job) (deps, dependents [][]int, err error) {
	idxByName := make(map[string]int, len(jobs))
	for i, j := range jobs {
		if _, dup := idxByName[j.Name]; dup {
			return nil, nil, fmt.Errorf("runner: duplicate job name %q", j.Name)
		}
		idxByName[j.Name] = i
	}
	deps = make([][]int, len(jobs))
	dependents = make([][]int, len(jobs))
	for i, j := range jobs {
		set := 0
		for _, f := range [...]bool{j.Run != nil, j.ShardRun != nil, j.Reduce != nil} {
			if f {
				set++
			}
		}
		if set != 1 {
			return nil, nil, fmt.Errorf("runner: job %q must set exactly one of Run, ShardRun and Reduce", j.Name)
		}
		if (j.Reduce != nil) != (len(j.Needs) > 0) {
			return nil, nil, fmt.Errorf("runner: job %q must set Needs exactly when it sets Reduce", j.Name)
		}
		if j.Reduce == nil {
			continue
		}
		if j.CacheKey.Valid() {
			return nil, nil, fmt.Errorf("runner: job %q sets CacheKey on a Reduce job", j.Name)
		}
		for _, name := range j.Needs {
			d, ok := idxByName[name]
			if !ok {
				return nil, nil, fmt.Errorf("runner: job %q needs unknown job %q", j.Name, name)
			}
			if d == i {
				return nil, nil, fmt.Errorf("runner: job %q needs itself", j.Name)
			}
			deps[i] = append(deps[i], d)
			dependents[d] = append(dependents[d], i)
		}
	}
	// A memoized dependency would hand its Reduce a Data field that
	// round-tripped through the store as generic JSON; reject the
	// combination outright rather than let type assertions panic on a
	// warm cache only.
	for i, j := range jobs {
		if j.CacheKey.Valid() && len(dependents[i]) > 0 {
			return nil, nil, fmt.Errorf("runner: job %q sets CacheKey but its Result feeds a Reduce job", j.Name)
		}
	}
	// Kahn's algorithm: if the peel doesn't consume every job, the rest
	// form a cycle.
	indeg := make([]int, len(jobs))
	var queue []int
	for i := range jobs {
		indeg[i] = len(deps[i])
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	seen := 0
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		seen++
		for _, d := range dependents[i] {
			if indeg[d]--; indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if seen != len(jobs) {
		return nil, nil, fmt.Errorf("runner: dependency cycle among jobs")
	}
	return deps, dependents, nil
}

// RenderAll concatenates the rendered outputs in submission order, one
// blank line between jobs — exactly what a sequential driver would print.
// Hidden results (sub-jobs folded by a reducer) are skipped.
func (r Report) RenderAll() string {
	var out []byte
	for _, res := range r.Results {
		if res.Hidden {
			continue
		}
		out = append(out, res.Text...)
		out = append(out, '\n')
	}
	return string(out)
}

// WriteJSON writes the report as indented JSON to path.
func (r Report) WriteJSON(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadJSON loads a report previously written with WriteJSON. Data fields
// round-trip as generic JSON values (maps/slices), not the original types.
func ReadJSON(path string) (Report, error) {
	var rep Report
	b, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	err = json.Unmarshal(b, &rep)
	return rep, err
}
