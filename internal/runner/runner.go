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
	// Run executes the experiment. Exactly one of Run and Reduce must be
	// set.
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
	// pure function of them. Only Run jobs may carry a key — a cached
	// Data field round-trips through JSON as generic values
	// (maps/slices), so jobs whose Results a Reduce consumes with type
	// assertions must not be memoized, and resolveDeps rejects both a
	// keyed Reduce job and a keyed dependency.
	CacheKey resultstore.Key
	// ShardRun, when set alongside Run, lets the pool run the job with
	// extra kernel shards when workers would otherwise idle (see
	// Options.AutoShard): the pool calls ShardRun(n) instead of Run
	// for some n in {2, 4} it budgeted from the spare workers. The job
	// must produce output byte-identical to Run at any shard count — the
	// guarantee the sharded simulation harnesses already carry — so the
	// promotion changes wall time only, never a digit of output.
	ShardRun func(shards int) (Output, error)
}

// Options tunes pool scheduling; the zero value is the historical
// behavior.
type Options struct {
	// AutoShard grants spare cores to shardable jobs at dispatch time:
	// whenever a job is handed to a worker while the core budget exceeds
	// the jobs available to run (a grid smaller than the machine, or the
	// trailing dispatches of a draining queue), it runs through ShardRun
	// with the spare capacity instead of on one core. Already-running
	// jobs are never re-sharded — the decision is made once, when the job
	// starts — so a long pole only benefits when the supply shortfall is
	// visible at its dispatch. Jobs without ShardRun are unaffected, and
	// output is byte-identical either way.
	AutoShard bool
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
// over a sequential run, because CPU seconds are not sequential work: a
// job may start goroutines of its own, such as the helper of
// md.ComputeForces, whose evaluation and yield loops count too, so even
// one worker can read above 1x. Compare wall times for a speedup.
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
// runtime.GOMAXPROCS(0). The first job error is returned (the report still
// carries every result, including the failed job's Err); a panicking job
// propagates its panic.
//
// emit (if non-nil) is called on the caller's goroutine with each Result in
// submission order, as soon as that result and all earlier ones have
// completed. A driver printing emitted texts (skipping Hidden ones)
// produces output byte-identical to a sequential run without waiting for
// the whole pool to drain.
func Run(jobs []Job, workers int, opts Options, emit func(Result)) (Report, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// capacity is the caller's core budget; the goroutine count below is
	// clamped to the job count, but auto-shard promotion spends the full
	// budget (a lone job on a 4-core budget runs 4-sharded).
	capacity := workers
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
	done := make(chan int, len(jobs))  // buffered: workers never block here
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
				case wk.shards > 1:
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
				done <- idx
			}
		}()
	}
	// Ready jobs wait in a cost-sorted pending queue and are released to
	// the worker channel only up to the goroutine count: holding the rest
	// back lets every dispatch see the pool's true state, so auto-shard
	// promotion is evaluated at each job's start rather than once at
	// startup.
	dispatched, closed, inFlight := 0, false, 0
	// Core accounting for auto-shard promotion: a promoted job holds
	// `shards` cores until it completes, not one, so the spare-capacity
	// check counts cores in flight (busyCores), never just jobs. Without
	// this, back-to-back promotions each see the previous promoted job as
	// one core and a 3-job queue on an 8-core budget dispatches 12 shard
	// goroutines.
	busyCores := 0
	coresOf := make([]int, len(jobs))
	var pendingQ []int
	fill := func() {
		for len(pendingQ) > 0 && inFlight < workers {
			idx := pendingQ[0]
			pendingQ = pendingQ[1:]
			w := work{idx: idx, shards: 1}
			// Spare capacity after this job and everything still pending
			// gets a core goes to this job as extra kernel shards. The
			// promotion spends idle cores, never contends for busy ones.
			if opts.AutoShard && jobs[idx].ShardRun != nil {
				if spare := capacity - busyCores - 1 - len(pendingQ); spare >= 3 {
					w.shards = 4
				} else if spare >= 1 {
					w.shards = 2
				}
			}
			inFlight++
			busyCores += w.shards
			coresOf[idx] = w.shards
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
		idx := <-done
		inFlight--
		busyCores -= coresOf[idx]
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
// names, duplicate names, mis-set Run/Reduce, cache keys where a cached
// (generic-JSON) Data could leak into a Reduce's type assertions, and
// dependency cycles are errors — caught before any worker starts.
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
		if len(j.Needs) == 0 {
			if j.Run == nil {
				return nil, nil, fmt.Errorf("runner: job %q has no Run function", j.Name)
			}
			if j.Reduce != nil {
				return nil, nil, fmt.Errorf("runner: job %q sets Reduce without Needs", j.Name)
			}
			continue
		}
		if j.ShardRun != nil {
			return nil, nil, fmt.Errorf("runner: job %q sets ShardRun on a Reduce job", j.Name)
		}
		if j.CacheKey.Valid() {
			return nil, nil, fmt.Errorf("runner: job %q sets CacheKey on a Reduce job", j.Name)
		}
		if j.Reduce == nil || j.Run != nil {
			return nil, nil, fmt.Errorf("runner: job %q has Needs and must set Reduce (and not Run)", j.Name)
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
