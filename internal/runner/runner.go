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

// Output is what a job produces: a rendered table/figure plus the typed
// rows behind it. It is also the stored form of a memoized job.
type Output struct {
	Text string `json:"text"`           // rendered table or figure, as printed by cmd/anton3
	Data any    `json:"data,omitempty"` // typed result rows, serialized into the JSON artifact
}

// Job is one self-contained experiment, or one assembled from parts.
type Job struct {
	// Name identifies the job in reports and artifacts ("fig5", "tables").
	Name string
	// Seed is reported with the job's result: the seed its experiment
	// draws from, for experiments that draw at all.
	Seed uint64
	// Cost is a relative expected-runtime hint. The pool starts expensive
	// jobs first so the long pole overlaps the small jobs instead of
	// trailing them; it has no effect on output, only on wall time.
	Cost float64
	// Run executes the experiment. Exactly one of Run, ShardRun and
	// Assemble must be set.
	Run func() (Output, error)
	// ShardRun executes an experiment whose simulated machines run
	// across kernel shards: the pool calls it with the shard count
	// Options.Shards sets or grants. The job must produce byte-identical
	// output at any shard count — the guarantee the sharded simulation
	// harnesses already carry — so the count changes wall time only,
	// never a digit of output.
	ShardRun func(shards int) (Output, error)
	// Parts split the job into sub-jobs, which the pool runs like any
	// other job; once the last has completed, Assemble folds their Data,
	// in Parts order, into the job's Output. A figure whose sweep points
	// are parts load-balances across workers with output byte-identical
	// at any worker count. A part has no parts of its own.
	Parts    []Job
	Assemble func(data []any) (Output, error)
	// CacheKey, when valid and the pool runs with Options.Cache, lets
	// the job short-circuit: a stored Output under the key is returned
	// without calling Run (or ShardRun), and a computed Output is stored
	// back on success. The key must capture the job's entire
	// configuration and seed (resultstore.KeyFor); the job must be a
	// pure function of them. Neither a part nor an assembling job may
	// carry a key: a cached Data comes back as generic JSON values
	// (maps/slices), which an Assemble's type assertions would not
	// accept, and a cached assembling job would skip its parts.
	CacheKey resultstore.Key
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
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Hidden marks a part's result: recorded in the report, but its Text
	// is left out of RenderAll and caller display, since the job it
	// belongs to assembles it into one figure.
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
	Results  []Result `json:"results"`   // in submission order, parts before their job
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
// The report lists each job's parts just before the job, and the pool
// dispatches parts like jobs. A job with parts is dispatched when its
// last part completes; if a part failed, the job fails with "<part
// name>: <error>" and Assemble is not called.
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
// report order, as soon as that result and all earlier ones have
// completed. A driver printing emitted texts (skipping Hidden ones)
// produces output byte-identical to a sequential run without waiting for
// the whole pool to drain.
func Run(jobs []Job, workers int, opts Options, emit func(Result)) (Report, error) {
	// flat lists each job's parts, then the job; owner is the flat index
	// of the job a part belongs to, -1 for a top-level job.
	var flat []Job
	var owner []int
	for _, j := range jobs {
		if err := validate(j, false); err != nil {
			return Report{}, err
		}
		at := len(flat) + len(j.Parts)
		for _, p := range j.Parts {
			if err := validate(p, true); err != nil {
				return Report{}, err
			}
			flat = append(flat, p)
			owner = append(owner, at)
		}
		flat = append(flat, j)
		owner = append(owner, -1)
	}

	if workers <= 0 {
		workers = max(1, runtime.GOMAXPROCS(0)/max(1, opts.Shards))
	}
	outside := runtime.GOMAXPROCS(0) - workers - 1
	cores.Hold(outside)
	defer cores.Hold(-outside)
	if workers > len(flat) {
		workers = len(flat)
	}
	rep := Report{Jobs: len(flat), Workers: workers, Results: make([]Result, len(flat))}
	if len(flat) == 0 {
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

	start := time.Now()
	cpu0 := processCPUNs()
	type work struct{ idx, shards int }
	next := make(chan work, len(flat)) // buffered: the coordinator never blocks
	done := make(chan work, len(flat)) // buffered: workers never block here
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for wk := range next {
				job := flat[wk.idx]
				res := Result{Name: job.Name, Seed: job.Seed, Hidden: owner[wk.idx] >= 0}
				t0 := time.Now()
				var out Output
				var err error
				memo := opts.Cache != nil && job.CacheKey.Valid()
				if memo && opts.Cache.Get(job.CacheKey, &out) {
					res.Cached = true
				}
				switch {
				case res.Cached:
					// Memoized: the stored Output is what Run produced.
				case job.Assemble != nil:
					// The receive of each part's index on done ordered
					// its Results write before this job was pushed onto
					// next.
					out, err = assemble(job, rep.Results[wk.idx-len(job.Parts):wk.idx])
				case job.ShardRun != nil:
					out, err = job.ShardRun(wk.shards)
				default:
					out, err = job.Run()
				}
				if memo && !res.Cached && err == nil {
					opts.Cache.Put(job.CacheKey, out)
				}
				res.WallNs = time.Since(t0).Nanoseconds()
				if err != nil {
					res.Err = err.Error()
				} else {
					res.Text = out.Text
					res.Data = out.Data
				}
				rep.Results[wk.idx] = res
				done <- wk
			}
		}()
	}
	// Ready jobs wait in a pending queue, expensive ones first, and are
	// released to the worker channel only up to the goroutine count:
	// holding the rest back lets every dispatch see the pool's true
	// state, so shard grants are decided at each job's start rather than
	// once at startup. A dispatched job holds its cores until the
	// coordinator receives its completion, so later grants count shards,
	// not jobs.
	dispatched, inFlight := 0, 0
	var pendingQ []int
	fill := func() {
		sort.SliceStable(pendingQ, func(a, b int) bool {
			return flat[pendingQ[a]].Cost > flat[pendingQ[b]].Cost
		})
		for len(pendingQ) > 0 && inFlight < workers {
			w := work{idx: pendingQ[0], shards: 1}
			pendingQ = pendingQ[1:]
			if flat[w.idx].ShardRun != nil {
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
			if dispatched++; dispatched == len(flat) {
				close(next)
			}
		}
	}
	left := make([]int, len(flat)) // parts still running, per job
	for i, j := range flat {
		if left[i] = len(j.Parts); left[i] == 0 {
			pendingQ = append(pendingQ, i)
		}
	}
	fill()
	// Emit the contiguous completed prefix as completions arrive; the
	// receive on done orders each Results write before its read here.
	completed := make([]bool, len(flat))
	emitted := 0
	for range flat {
		wk := <-done
		inFlight--
		cores.Hold(-wk.shards)
		completed[wk.idx] = true
		if o := owner[wk.idx]; o >= 0 {
			if left[o]--; left[o] == 0 {
				pendingQ = append(pendingQ, o)
			}
		}
		fill()
		for emitted < len(flat) && completed[emitted] {
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

// validate checks a job, or a part when part is set, before any worker
// starts.
func validate(j Job, part bool) error {
	set := 0
	for _, f := range [...]bool{j.Run != nil, j.ShardRun != nil, j.Assemble != nil} {
		if f {
			set++
		}
	}
	switch {
	case set != 1:
		return fmt.Errorf("runner: job %q must set exactly one of Run, ShardRun and Assemble", j.Name)
	case (j.Assemble != nil) != (len(j.Parts) > 0):
		return fmt.Errorf("runner: job %q must set Parts exactly when it sets Assemble", j.Name)
	case part && len(j.Parts) > 0:
		return fmt.Errorf("runner: part %q has parts of its own", j.Name)
	case (part || j.Assemble != nil) && j.CacheKey.Valid():
		return fmt.Errorf("runner: job %q sets CacheKey on a part or an assembling job", j.Name)
	}
	return nil
}

// assemble calls job.Assemble with its parts' Data, unless a part failed.
func assemble(job Job, parts []Result) (Output, error) {
	data := make([]any, len(parts))
	for i, r := range parts {
		if r.Err != "" {
			return Output{}, fmt.Errorf("%s: %s", r.Name, r.Err)
		}
		data[i] = r.Data
	}
	return job.Assemble(data)
}

// RenderAll concatenates the rendered outputs in submission order, one
// blank line between jobs — exactly what a sequential driver would print.
// Hidden results (the parts a job assembles) are skipped.
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
