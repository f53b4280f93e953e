package runner

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"anton3/internal/cores"
	"anton3/internal/sim"
)

// noisyJobs builds jobs whose output depends only on their own seed, like
// every experiment in this repository: each draws from an RNG built from
// its seed and sleeps a pseudo-random amount so completion order scrambles
// under parallelism.
func noisyJobs(n int) []Job {
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		seed := uint64(1000 + i)
		jobs[i] = Job{
			Name: fmt.Sprintf("job%02d", i),
			Seed: seed,
			Cost: float64(i % 3),
			Run: func() (Output, error) {
				rng := sim.NewRand(seed)
				time.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				v := rng.Uint64()
				return Output{
					Text: fmt.Sprintf("job %d drew %d", i, v),
					Data: map[string]uint64{"draw": v},
				}, nil
			},
		}
	}
	return jobs
}

func TestParallelMatchesSequential(t *testing.T) {
	seq, err := Run(noisyJobs(16), 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(noisyJobs(16), 8, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if seq.RenderAll() != par.RenderAll() {
		t.Fatalf("parallel output differs from sequential:\n--- seq ---\n%s\n--- par ---\n%s",
			seq.RenderAll(), par.RenderAll())
	}
	for i := range seq.Results {
		if seq.Results[i].Name != par.Results[i].Name {
			t.Fatalf("result order differs at %d: %s vs %s",
				i, seq.Results[i].Name, par.Results[i].Name)
		}
	}
	if par.Workers != 8 || seq.Workers != 1 {
		t.Fatalf("workers recorded wrong: %d, %d", par.Workers, seq.Workers)
	}
}

func TestErrorPropagation(t *testing.T) {
	boom := errors.New("kernel exploded")
	jobs := noisyJobs(6)
	jobs[3].Run = func() (Output, error) { return Output{}, boom }
	rep, err := Run(jobs, 4, Options{}, nil)
	if err == nil {
		t.Fatal("job error not propagated")
	}
	if want := `runner: job "job03": kernel exploded`; err.Error() != want {
		t.Fatalf("err = %q, want %q", err, want)
	}
	// The report still carries every result, with the failure marked.
	if len(rep.Results) != 6 {
		t.Fatalf("got %d results, want 6", len(rep.Results))
	}
	if rep.Results[3].Err != "kernel exploded" {
		t.Fatalf("failed job not marked: %+v", rep.Results[3])
	}
	if rep.Results[2].Text == "" || rep.Results[4].Text == "" {
		t.Fatal("healthy jobs discarded on sibling failure")
	}
}

func TestCostHintOrdersDispatchNotOutput(t *testing.T) {
	var first atomic.Value
	jobs := make([]Job, 4)
	for i := range jobs {
		i := i
		jobs[i] = Job{Name: fmt.Sprintf("j%d", i), Cost: float64(i),
			Run: func() (Output, error) {
				first.CompareAndSwap(nil, i)
				return Output{Text: fmt.Sprintf("out%d", i)}, nil
			}}
	}
	rep, err := Run(jobs, 1, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Load().(int); got != 3 {
		t.Fatalf("most expensive job dispatched %dth, want first", got)
	}
	if rep.Results[0].Text != "out0" || rep.Results[3].Text != "out3" {
		t.Fatalf("output not in submission order: %+v", rep.Results)
	}
}

func TestEmitStreamsInSubmissionOrder(t *testing.T) {
	jobs := noisyJobs(12)
	var emitted []string
	rep, err := Run(jobs, 4, Options{}, func(r Result) {
		emitted = append(emitted, r.Name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(emitted) != len(jobs) {
		t.Fatalf("emitted %d of %d results", len(emitted), len(jobs))
	}
	for i, name := range emitted {
		if name != jobs[i].Name {
			t.Fatalf("emit order broke at %d: got %s, want %s (full order %v)",
				i, name, jobs[i].Name, emitted)
		}
	}
	if rep.Results[11].Name != "job11" {
		t.Fatalf("report results wrong: %+v", rep.Results[11])
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := Run(noisyJobs(5), 2, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_runner.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Jobs != rep.Jobs || back.Workers != rep.Workers ||
		back.WallNs != rep.WallNs || back.SerialNs != rep.SerialNs ||
		back.CPUNs != rep.CPUNs || back.Speedup != rep.Speedup {
		t.Fatalf("header fields did not round-trip:\n%+v\n%+v", rep, back)
	}
	for i := range rep.Results {
		if back.Results[i].Name != rep.Results[i].Name ||
			back.Results[i].Seed != rep.Results[i].Seed ||
			back.Results[i].Text != rep.Results[i].Text ||
			back.Results[i].WallNs != rep.Results[i].WallNs {
			t.Fatalf("result %d did not round-trip:\n%+v\n%+v",
				i, rep.Results[i], back.Results[i])
		}
	}
	if back.Results[0].Data == nil {
		t.Fatal("data payload lost in round-trip")
	}
}

func TestEmptyAndOversubscribed(t *testing.T) {
	rep, err := Run(nil, 8, Options{}, nil)
	if err != nil || rep.Jobs != 0 || rep.Speedup != 1 {
		t.Fatalf("empty run: %+v, %v", rep, err)
	}
	// More workers than jobs must clamp, not deadlock.
	rep, err = Run(noisyJobs(2), 64, Options{}, nil)
	if err != nil || rep.Workers != 2 {
		t.Fatalf("oversubscribed run: workers=%d, %v", rep.Workers, err)
	}
}

// TestAssembleSeesPartsInOrder checks that a job's parts run like jobs,
// are reported just before it and hidden, and reach Assemble in Parts
// order although the first part finishes last: part b costs more, so one
// worker runs it first, and part a sleeps, so on four workers it finishes
// after b. The assembling job costs most, so it would run as soon as it
// were dispatched.
func TestAssembleSeesPartsInOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		jobs := []Job{
			{Name: "sum", Cost: 5, Parts: []Job{
				{Name: "a", Run: func() (Output, error) {
					time.Sleep(2 * time.Millisecond)
					return Output{Text: "hidden-a", Data: 10}, nil
				}},
				{Name: "b", Cost: 1, Run: func() (Output, error) {
					return Output{Text: "hidden-b", Data: 32}, nil
				}},
			}, Assemble: func(data []any) (Output, error) {
				a, okA := data[0].(int)
				b, okB := data[1].(int)
				if !okA || !okB || a != 10 || b != 32 {
					return Output{}, fmt.Errorf("parts out of order or missing: %v", data)
				}
				return Output{Text: fmt.Sprintf("sum=%d", a+b)}, nil
			}},
			{Name: "solo", Run: func() (Output, error) { return Output{Text: "solo"}, nil }},
		}
		rep, err := Run(jobs, workers, Options{}, nil)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := "sum=42\nsolo\n"; rep.RenderAll() != want {
			t.Fatalf("workers=%d: RenderAll = %q, want %q (parts excluded)", workers, rep.RenderAll(), want)
		}
		if rep.Jobs != 4 {
			t.Fatalf("workers=%d: Report.Jobs = %d, want 4 (parts count)", workers, rep.Jobs)
		}
		for i, want := range []bool{true, true, false, false} {
			if rep.Results[i].Hidden != want {
				t.Fatalf("workers=%d: %s Hidden = %v, want %v", workers, rep.Results[i].Name, rep.Results[i].Hidden, want)
			}
		}
	}
}

// TestPartsEmitBeforeTheirJob checks that emit streams in report order
// when jobs have parts: each job's parts, then the job, then the next job,
// although the parts of a later job may be dispatched and finish first.
func TestPartsEmitBeforeTheirJob(t *testing.T) {
	part := func(v int) func() (Output, error) {
		return func() (Output, error) { return Output{Data: v}, nil }
	}
	sum := func(data []any) (Output, error) {
		total := 0
		for _, d := range data {
			total += d.(int)
		}
		return Output{Text: fmt.Sprintf("sum=%d", total)}, nil
	}
	for _, workers := range []int{1, 3} {
		jobs := []Job{
			{Name: "x", Parts: []Job{{Name: "x1", Run: part(1)}, {Name: "x2", Run: part(2)}}, Assemble: sum},
			{Name: "solo", Run: func() (Output, error) {
				time.Sleep(2 * time.Millisecond)
				return Output{Text: "solo"}, nil
			}},
			{Name: "y", Parts: []Job{{Name: "y1", Cost: 9, Run: part(4)}}, Assemble: sum},
		}
		var emitted []string
		rep, err := Run(jobs, workers, Options{}, func(r Result) { emitted = append(emitted, r.Name) })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if want := "sum=3\nsolo\nsum=4\n"; rep.RenderAll() != want {
			t.Fatalf("workers=%d: RenderAll = %q, want %q", workers, rep.RenderAll(), want)
		}
		if want := []string{"x1", "x2", "x", "solo", "y1", "y"}; !slices.Equal(emitted, want) {
			t.Fatalf("workers=%d: emit order %v, want %v", workers, emitted, want)
		}
	}
}

// TestPartErrorFailsItsJob checks that a failed part fails its job with
// the part's name and error, without calling Assemble, and that Run
// returns the part's error, the first in report order.
func TestPartErrorFailsItsJob(t *testing.T) {
	var assembled atomic.Bool
	jobs := []Job{{Name: "agg", Parts: []Job{
		{Name: "good", Run: func() (Output, error) { return Output{Data: 1}, nil }},
		{Name: "bad", Run: func() (Output, error) { return Output{}, errors.New("shard failed") }},
	}, Assemble: func([]any) (Output, error) {
		assembled.Store(true)
		return Output{Text: "assembled"}, nil
	}}}
	rep, err := Run(jobs, 2, Options{}, nil)
	if want := `runner: job "bad": shard failed`; err == nil || err.Error() != want {
		t.Fatalf("Run error %v, want %q", err, want)
	}
	if got := rep.Results[2].Err; got != "bad: shard failed" {
		t.Fatalf("assembling job Err = %q, want %q", got, "bad: shard failed")
	}
	if assembled.Load() {
		t.Fatal("Assemble called despite a failed part")
	}
}

// TestDependencyValidation checks that malformed jobs and parts are
// rejected before any worker starts, each by the rule it breaks.
func TestDependencyValidation(t *testing.T) {
	run := func() (Output, error) { return Output{}, nil }
	asm := func([]any) (Output, error) { return Output{}, nil }
	part := []Job{{Name: "p", Run: run}}
	cases := []struct {
		name string
		job  Job
		want string
	}{
		{"parts without assemble", Job{Name: "a", Run: run, Parts: part}, "Parts exactly when"},
		{"assemble without parts", Job{Name: "a", Assemble: asm}, "Parts exactly when"},
		{"run and shardrun", Job{Name: "a", Run: run, ShardRun: func(int) (Output, error) { return Output{}, nil }}, "exactly one of"},
		{"nothing set", Job{Name: "a"}, "exactly one of"},
		{"part with parts", Job{Name: "a", Assemble: asm, Parts: []Job{{Name: "p", Assemble: asm, Parts: part}}}, "parts of its own"},
	}
	for _, c := range cases {
		_, err := Run([]Job{c.job}, 2, Options{}, nil)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
	}
}

// TestAutoShardPromotesLongPole checks the shard grants: with free cores
// in the budget, the most expensive ready ShardRun job gets them as extra
// shards, and a positive Options.Shards pins every ShardRun job to it.
func TestAutoShardPromotesLongPole(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var mu sync.Mutex
	granted := map[string]int{}
	mk := func(name string, cost float64) Job {
		return Job{Name: name, Cost: cost, ShardRun: func(shards int) (Output, error) {
			mu.Lock()
			granted[name] = shards
			mu.Unlock()
			return Output{Text: name}, nil
		}}
	}

	// One shardable long pole, four workers, nothing else ready: the pole
	// should get all the spare capacity.
	rep, err := Run([]Job{mk("pole", 10)}, 4, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Text != "pole" {
		t.Fatalf("unexpected result %+v", rep.Results[0])
	}
	if granted["pole"] != 4 {
		t.Fatalf("long pole granted %d shards, want 4", granted["pole"])
	}

	// Enough ready jobs to occupy every worker: no spare, no promotion.
	granted = map[string]int{}
	jobs := []Job{mk("a", 4), mk("b", 3), mk("c", 2), mk("d", 1)}
	if _, err := Run(jobs, 4, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	for name, g := range granted {
		if g != 1 {
			t.Fatalf("job %s promoted to %d shards with a full pool", name, g)
		}
	}

	// Two shardable jobs on four workers: the spare pair of cores splits,
	// one extra shard budget to each (2 + 2 = the core budget).
	granted = map[string]int{}
	if _, err := Run([]Job{mk("a", 2), mk("b", 1)}, 4, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if granted["a"] != 2 || granted["b"] != 2 {
		t.Fatalf("2 jobs on 4 workers granted a=%d b=%d shards, want 2 and 2", granted["a"], granted["b"])
	}

	// Parts are dispatched like jobs: two ShardRun parts split the spare
	// pair of cores the same way.
	granted = map[string]int{}
	whole := Job{Name: "whole", Parts: []Job{mk("a", 2), mk("b", 1)},
		Assemble: func([]any) (Output, error) { return Output{}, nil }}
	if _, err := Run([]Job{whole}, 4, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if granted["a"] != 2 || granted["b"] != 2 {
		t.Fatalf("2 parts on 4 workers granted a=%d b=%d shards, want 2 and 2", granted["a"], granted["b"])
	}

	// Options.Shards 1 pins one shard, even with idle workers.
	granted = map[string]int{}
	if _, err := Run([]Job{mk("pole", 10)}, 4, Options{Shards: 1}, nil); err != nil {
		t.Fatal(err)
	}
	if granted["pole"] != 1 {
		t.Fatalf("Options.Shards 1 granted %d shards", granted["pole"])
	}

	// Promotion accounts cores, not jobs: three shardable jobs on an
	// 8-core budget dispatch together, and the granted shard counts must
	// sum to at most the budget (the first promotion holds 4 cores, so
	// later dispatches see less spare — not 4+4+4=12 goroutines).
	granted = map[string]int{}
	jobs = []Job{mk("a", 3), mk("b", 2), mk("c", 1)}
	if _, err := Run(jobs, 8, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if total := granted["a"] + granted["b"] + granted["c"]; total > 8 {
		t.Fatalf("3 jobs on 8 cores granted %d total shards (a=%d b=%d c=%d), budget 8",
			total, granted["a"], granted["b"], granted["c"])
	}
	if granted["a"] != 4 {
		t.Fatalf("most expensive job granted %d shards, want 4", granted["a"])
	}
}

// barrier holds each of n jobs until all n have arrived.
type barrier struct{ in, out sync.WaitGroup }

func newBarrier(n int) *barrier {
	b := &barrier{}
	b.in.Add(n)
	b.out.Add(n)
	return b
}

// laneJob is a ShardRun job that records its shard grant and whether a
// cores.Lane started inside it. With a barrier b, it tries the Lane once
// every job of b is running, and returns once every job has tried.
func laneJob(name string, b *barrier, shards *atomic.Int32, laned *atomic.Bool) Job {
	return Job{Name: name, ShardRun: func(n int) (Output, error) {
		shards.Store(int32(n))
		if b != nil {
			b.in.Done()
			b.in.Wait()
			defer b.out.Wait()
			defer b.out.Done()
		}
		var l cores.Lane
		if l.Start(func() {}) {
			l.Wait()
			laned.Store(true)
		}
		return Output{Text: name}, nil
	}}
}

// TestBudgetLeavesNoCoreToLanes checks that the running jobs hold the
// run's whole budget: at GOMAXPROCS 2 with two workers, once both jobs
// are in flight, a Lane in either must not start; and with one worker,
// even on four cores, a job neither gets extra shards nor starts a Lane.
func TestBudgetLeavesNoCoreToLanes(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	b := newBarrier(2)
	var shards atomic.Int32
	var laned atomic.Bool
	jobs := []Job{laneJob("a", b, &shards, &laned), laneJob("b", b, &shards, &laned)}
	if _, err := Run(jobs, 2, Options{}, nil); err != nil {
		t.Fatal(err)
	}
	if laned.Load() {
		t.Error("a Lane started while two jobs held both cores of a 2-worker run")
	}

	runtime.GOMAXPROCS(4)
	jobs = []Job{laneJob("a", nil, &shards, &laned), laneJob("b", nil, &shards, &laned)}
	for i := range jobs {
		if _, err := Run(jobs[i:i+1], 1, Options{}, nil); err != nil {
			t.Fatal(err)
		}
		if laned.Load() || shards.Load() != 1 {
			t.Fatalf("one worker on 4 cores: job %s ran on %d shards and started a Lane %v, want 1 and false",
				jobs[i].Name, shards.Load(), laned.Load())
		}
	}
	// Outside Run nothing is held, so the same Lane starts.
	var l cores.Lane
	if !l.Start(func() {}) {
		t.Fatal("a Lane did not start on 4 cores outside Run")
	}
	l.Wait()
}

// TestRunReturnsItsCores checks that Run frees every core it held, after
// a clean run, a promoted one, one whose job fails, and one rejected
// before any worker starts.
func TestRunReturnsItsCores(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	free := cores.Free()
	failing := noisyJobs(3)
	failing[1].Run = func() (Output, error) { return Output{}, errors.New("boom") }
	runs := []struct {
		name    string
		jobs    []Job
		workers int
		opts    Options
	}{
		{"clean", noisyJobs(5), 2, Options{}},
		{"promoted", []Job{{Name: "pole", ShardRun: func(int) (Output, error) { return Output{}, nil }}}, 4, Options{}},
		{"pinned", []Job{{Name: "pole", ShardRun: func(int) (Output, error) { return Output{}, nil }}}, 0, Options{Shards: 2}},
		{"failing job", failing, 8, Options{}},
		{"invalid jobs", []Job{{Name: "a"}}, 2, Options{}},
	}
	for _, r := range runs {
		Run(r.jobs, r.workers, r.opts, nil)
		if got := cores.Free(); got != free {
			t.Errorf("%s run: cores.Free() = %d after Run, want %d as before", r.name, got, free)
		}
	}
}
