package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// testExchanger is a minimal cross-partition conduit: integers sent
// from any partition are delivered to a destination partition's
// scheduler after a fixed delay, merged by (at, source, send order)
// like the real netem lanes.
type testExchanger struct {
	group *ShardGroup
	delay time.Duration
	bufs  [][]testMsg
	heads []int
	// recv[i] records the values partition i received, in delivery
	// order (appended by the destination scheduler's events).
	recv [][]int
}

type testMsg struct {
	at   Time
	dest int
	val  int
}

func newTestExchanger(g *ShardGroup, delay time.Duration) *testExchanger {
	e := &testExchanger{
		group: g,
		delay: delay,
		bufs:  make([][]testMsg, len(g.shards)),
		heads: make([]int, len(g.shards)),
		recv:  make([][]int, len(g.shards)),
	}
	g.AddExchanger(e)
	return e
}

func (e *testExchanger) send(src, dest, val int) {
	at := e.group.Shard(src).Sched.Now() + Time(e.delay)
	e.bufs[src] = append(e.bufs[src], testMsg{at: at, dest: dest, val: val})
}

func (e *testExchanger) MinDelay() time.Duration { return e.delay }

func (e *testExchanger) Flush(limit Time) {
	for {
		best := -1
		var bestAt Time
		for src := range e.bufs {
			h := e.heads[src]
			if h >= len(e.bufs[src]) {
				continue
			}
			if best < 0 || e.bufs[src][h].at < bestAt {
				best, bestAt = src, e.bufs[src][h].at
			}
		}
		if best < 0 {
			break
		}
		m := e.bufs[best][e.heads[best]]
		e.heads[best]++
		if m.at <= limit {
			panic("testExchanger: barrier violation")
		}
		dest := m.dest
		val := m.val
		e.group.Shard(dest).Sched.At(m.at, func() {
			e.recv[dest] = append(e.recv[dest], val)
		})
	}
	for src := range e.bufs {
		e.bufs[src] = e.bufs[src][:0]
		e.heads[src] = 0
	}
}

// buildPingRing wires n partitions where each partition ticks on its
// own scheduler, mixes its RNG into a running hash, and periodically
// sends values to the next partition over the exchanger. It returns
// per-partition trace hashes updated by a TraceHook.
func buildPingRing(n int, lookahead time.Duration, seed int64) (*ShardGroup, *testExchanger, []uint64) {
	g := NewShardGroup(n, lookahead)
	ex := newTestExchanger(g, lookahead)
	traces := make([]uint64, n)
	for i := 0; i < n; i++ {
		i := i
		sh := g.Shard(i)
		rng := NewRNG(SeedForCell(seed, i))
		traces[i] = 14695981039346656037
		sh.Sched.TraceHook = func(at Time, seq uint64) {
			h := traces[i]
			for _, v := range [2]uint64{uint64(at), seq} {
				for b := 0; b < 8; b++ {
					h ^= v & 0xff
					h *= 1099511628211
					v >>= 8
				}
			}
			traces[i] = h
		}
		var tick func()
		ticks := 0
		tick = func() {
			ticks++
			if ticks%3 == 0 {
				ex.send(i, (i+1)%n, i*1000+ticks)
			}
			sh.Sched.AfterPooled(time.Duration(1+rng.Intn(5))*time.Millisecond, tick)
		}
		sh.Sched.AfterPooled(time.Duration(1+rng.Intn(5))*time.Millisecond, tick)
	}
	return g, ex, traces
}

// TestShardParityRingAcrossWorkerCounts runs the same ping ring at
// every worker count from sequential to one-per-partition and asserts
// the fired-event traces, event counts and received message streams
// are identical — the tentpole determinism invariant at sim level.
func TestShardParityRingAcrossWorkerCounts(t *testing.T) {
	const n = 4
	lookahead := 10 * time.Millisecond
	run := func(workers int) ([]uint64, []uint64, [][]int) {
		g, ex, traces := buildPingRing(n, lookahead, 42)
		if _, err := g.RunUntil(Time(300*time.Millisecond), workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		fired := make([]uint64, n)
		for i := 0; i < n; i++ {
			fired[i] = g.Shard(i).Sched.Fired()
		}
		return traces, fired, ex.recv
	}
	baseTraces, baseFired, baseRecv := run(0)
	for _, w := range []int{1, 2, 3, 4} {
		traces, fired, recv := run(w)
		for i := 0; i < n; i++ {
			if traces[i] != baseTraces[i] {
				t.Errorf("workers=%d: partition %d trace %#x != sequential %#x", w, i, traces[i], baseTraces[i])
			}
			if fired[i] != baseFired[i] {
				t.Errorf("workers=%d: partition %d fired %d != sequential %d", w, i, fired[i], baseFired[i])
			}
			if fmt.Sprint(recv[i]) != fmt.Sprint(baseRecv[i]) {
				t.Errorf("workers=%d: partition %d recv %v != sequential %v", w, i, recv[i], baseRecv[i])
			}
		}
	}
}

// TestShardGroupRejectsTooManyWorkers pins the no-silent-clamp rule:
// more workers than partitions is an error naming both counts, and a
// negative count is an error too.
func TestShardGroupRejectsTooManyWorkers(t *testing.T) {
	g := NewShardGroup(2, time.Millisecond)
	if _, err := g.RunUntil(Time(time.Second), 3); err == nil {
		t.Fatal("3 workers on 2 partitions: want error, got nil")
	} else if !strings.Contains(err.Error(), "3 shard workers exceed 2 partitions") {
		t.Fatalf("error %q does not name the counts", err)
	}
	if _, err := g.RunUntil(Time(time.Second), -1); err == nil {
		t.Fatal("negative workers: want error, got nil")
	}
}

// TestShardGroupRejectsFastExchanger pins the lookahead safety check:
// an exchanger that can deliver inside the execution window would
// break the conservative barrier, so AddExchanger must refuse it.
func TestShardGroupRejectsFastExchanger(t *testing.T) {
	g := NewShardGroup(2, 10*time.Millisecond)
	defer func() {
		if recover() == nil {
			t.Fatal("AddExchanger accepted an exchanger faster than the lookahead")
		}
	}()
	newTestExchanger(g, 5*time.Millisecond)
}

// stableGoroutines samples the goroutine count until it settles,
// tolerating runtime background goroutines that are mid-exit.
func stableGoroutines(t *testing.T) int {
	t.Helper()
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(2 * time.Millisecond) //tlcvet:allow simtime — counting real goroutines parking; wall clock is the only clock they run on
		m := runtime.NumGoroutine()
		if m == n {
			return n
		}
		n = m
	}
	return n
}

// TestShardGroupPanicIsDeterministicAndLeakFree makes two partitions
// panic in the same window and asserts (a) the re-raised panic names
// the lowest-numbered partition regardless of worker scheduling, and
// (b) every worker goroutine has parked by the time RunUntil unwinds.
func TestShardGroupPanicIsDeterministicAndLeakFree(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		before := stableGoroutines(t)
		g := NewShardGroup(4, 10*time.Millisecond)
		for _, i := range []int{1, 3} {
			i := i
			g.Shard(i).Sched.At(Time(25*time.Millisecond), func() {
				panic(fmt.Sprintf("boom-%d", i))
			})
		}
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: no panic propagated", workers)
				}
				msg := fmt.Sprint(r)
				if !strings.Contains(msg, "partition 1") || !strings.Contains(msg, "boom-1") {
					t.Fatalf("workers=%d: panic %q should name partition 1's boom-1", workers, msg)
				}
			}()
			_, _ = g.RunUntil(Time(time.Second), workers)
		}()
		after := stableGoroutines(t)
		if after > before {
			t.Fatalf("workers=%d: %d goroutines before, %d after panic unwind", workers, before, after)
		}
	}
}

// TestShardGroupRunReturnsWithoutLeaks runs a group to its deadline
// and asserts every partition's events fired, the clock reached the
// deadline and no worker goroutine is left behind.
func TestShardGroupRunReturnsWithoutLeaks(t *testing.T) {
	for _, workers := range []int{0, 2} {
		before := stableGoroutines(t)
		g := NewShardGroup(3, 10*time.Millisecond)
		g.Shard(1).Sched.At(Time(15*time.Millisecond), func() {})
		late := false
		g.Shard(2).Sched.At(Time(500*time.Millisecond), func() { late = true })
		stats, err := g.RunUntil(Time(time.Second), workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !late {
			t.Fatalf("workers=%d: the 500ms event never fired", workers)
		}
		total := uint64(0)
		for _, st := range stats {
			total += st.EventsFired
		}
		if total != 2 {
			t.Fatalf("workers=%d: fired %d events, want 2", workers, total)
		}
		for i := range g.shards {
			if now := g.Shard(i).Sched.Now(); now != Time(time.Second) {
				t.Fatalf("workers=%d: partition %d stopped at %v, want 1s", workers, i, now)
			}
		}
		if after := stableGoroutines(t); after > before {
			t.Fatalf("workers=%d: %d goroutines before, %d after the run", workers, before, after)
		}
	}
}

// TestShardGroupSequentialZeroAllocWindows extends the PR 3 zero-alloc
// guard to the sharded golden path: once the schedulers are warm, a
// whole window cycle — partition loops plus exchanger flush — must
// allocate nothing beyond RunUntil's one stats slice.
func TestShardGroupSequentialZeroAllocWindows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	g := NewShardGroup(2, time.Millisecond)
	for i := 0; i < 2; i++ {
		sh := g.Shard(i)
		var tick func()
		tick = func() { sh.Sched.AfterPooled(100*time.Microsecond, tick) }
		sh.Sched.AfterPooled(100*time.Microsecond, tick)
	}
	deadline := Time(10 * time.Millisecond)
	if _, err := g.RunUntil(deadline, 0); err != nil { // warm free lists and heaps
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		deadline += Time(time.Millisecond)
		if _, err := g.RunUntil(deadline, 0); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation per call: the []WorkerStat RunUntil returns.
	if avg > 1 {
		t.Fatalf("sequential shard window allocates %v per run, want <= 1 (the stats slice)", avg)
	}
}

// TestShardGroupParallelZeroAllocSteadyWindows guards the multi-shard hot
// path: the per-call cost of a parallel run is worker setup (fixed),
// not per-event or per-window allocation, so tripling the simulated
// time must not move the allocation count.
func TestShardGroupParallelZeroAllocSteadyWindows(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are perturbed by -race instrumentation")
	}
	build := func() *ShardGroup {
		g := NewShardGroup(2, time.Millisecond)
		for i := 0; i < 2; i++ {
			sh := g.Shard(i)
			var tick func()
			tick = func() { sh.Sched.AfterPooled(50*time.Microsecond, tick) }
			sh.Sched.AfterPooled(50*time.Microsecond, tick)
		}
		// Warm sequentially so the measured runs reuse free lists.
		if _, err := g.RunUntil(Time(5*time.Millisecond), 0); err != nil {
			t.Fatal(err)
		}
		return g
	}
	measure := func(extra Time) float64 {
		g := build()
		deadline := Time(5 * time.Millisecond)
		return testing.AllocsPerRun(20, func() {
			deadline += extra
			if _, err := g.RunUntil(deadline, 2); err != nil {
				t.Fatal(err)
			}
		})
	}
	short := measure(Time(2 * time.Millisecond)) // 2 windows per call
	long := measure(Time(20 * time.Millisecond)) // 20 windows per call
	// 10x the windows (and events) may not add allocations: headroom
	// of a few covers AllocsPerRun noise, nothing more.
	if long > short+3 {
		t.Fatalf("parallel shard path allocates per window: %v allocs at 2 windows, %v at 20", short, long)
	}
}
