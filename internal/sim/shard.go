// Sharded execution of one simulation across cores.
//
// A ShardGroup partitions a single simulation into independent
// partitions ("shards"), each with its own Scheduler — its own 4-ary
// heap and event sequence — and runs them under a conservative
// time-windowed barrier. The only communication between partitions is
// through Exchangers (time-windowed lanes, see internal/netem's
// Lane/Inbox), whose messages carry a delivery time at least one
// lookahead in the future. That makes every window
// [kL, (k+1)L] causally closed: no event executed inside a window can
// schedule work for another partition inside the same window, so
// partitions advance a window in parallel with no locks and no
// rollback, and the barrier between windows flushes the lanes
// single-threaded in registration order.
//
// Determinism: a partition's event stream is a pure function of its
// own initial state plus the merged lane traffic it receives, and the
// lane merge is ordered by the (at, seq) key — arrival time, then the
// source-fixed tiebreak each Exchanger documents — never by goroutine
// timing. How partitions are assigned to worker goroutines therefore
// cannot change any partition's (at, seq) event order, so a run is
// byte-identical at any worker count: 0 workers is the plain
// sequential engine (the golden path, no goroutines at all), and any
// W >= 1 statically assigns partitions round-robin to W workers.
package sim

import (
	"fmt"
	"sync"
	"time"
)

// Exchanger moves messages between partitions at window barriers.
// Flush is called once per window, single-threaded, after every
// partition has executed the window ending at limit; every message it
// delivers must be scheduled strictly after limit (one lookahead of
// slack guarantees this — see ShardGroup.AddExchanger). Exchangers
// are flushed in registration order, which is part of the
// deterministic merge key for equal-time deliveries.
type Exchanger interface {
	// MinDelay is the smallest latency the exchanger ever adds to a
	// message; AddExchanger rejects exchangers faster than the
	// group's lookahead.
	MinDelay() time.Duration
	// Flush delivers everything buffered during the window that ended
	// at limit into the destination partitions' schedulers.
	Flush(limit Time)
}

// Shard is one partition of a sharded simulation.
type Shard struct {
	// ID is the partition index, fixed at construction.
	ID int
	// Sched is the partition's private scheduler. Everything the
	// partition simulates must run on it; cross-partition effects go
	// through an Exchanger.
	Sched *Scheduler
}

// WorkerStat reports one shard worker's share of a run: the events
// its partitions fired and the wall-clock time it spent stalled at
// window barriers waiting for slower workers (zero unless the group
// has a Stopwatch). The sequential path reports a single worker with
// zero stall.
type WorkerStat struct {
	Worker      int
	Partitions  int
	EventsFired uint64
	Stall       time.Duration
}

// ShardGroup owns the partitions and the barrier that runs them.
type ShardGroup struct {
	lookahead  time.Duration
	shards     []*Shard
	exchangers []Exchanger

	// Stopwatch, when non-nil, supplies the wall-clock probe used for
	// per-worker stall accounting (one instance per worker). It is
	// injected rather than read from time.Now so simulation packages
	// stay wall-clock-free and tests stay deterministic; stall times
	// are diagnostics and never feed back into simulated state.
	Stopwatch func() func() time.Duration
}

// NewShardGroup returns a group of n partitions with the given
// lookahead (the barrier window length). Lookahead must be positive
// and no larger than the smallest cross-partition latency; every
// Exchanger added later is checked against it.
func NewShardGroup(n int, lookahead time.Duration) *ShardGroup {
	if n <= 0 {
		panic(fmt.Sprintf("sim: shard group needs at least one partition, got %d", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: non-positive shard lookahead %v", lookahead))
	}
	g := &ShardGroup{lookahead: lookahead}
	g.shards = make([]*Shard, n)
	for i := range g.shards {
		g.shards[i] = &Shard{ID: i, Sched: NewScheduler()}
	}
	return g
}

// Shard returns partition i.
func (g *ShardGroup) Shard(i int) *Shard { return g.shards[i] }

// AddExchanger registers a cross-partition message conduit, flushed
// at every barrier in registration order. It panics if the exchanger
// can deliver faster than the group's lookahead, which would let a
// message land inside the window being executed.
func (g *ShardGroup) AddExchanger(e Exchanger) {
	if d := e.MinDelay(); d < g.lookahead {
		panic(fmt.Sprintf("sim: exchanger min delay %v below shard lookahead %v", d, g.lookahead))
	}
	g.exchangers = append(g.exchangers, e)
}

// RunUntil executes every partition up to deadline under the windowed
// barrier, using the given number of worker goroutines: 0 runs
// sequentially on the caller's goroutine (the golden path), W >= 1
// statically assigns partitions round-robin to W persistent workers.
// It returns per-worker statistics ordered by worker index.
//
// Requesting more workers than partitions is an error, not a clamp: a
// silent clamp would report speedups for shard counts that were never
// actually run. A panic inside any partition is re-raised on the
// caller's goroutine after all workers have parked — the panic of the
// lowest-numbered panicking partition, so even failures are
// deterministic — and no worker goroutine outlives the call.
func (g *ShardGroup) RunUntil(deadline Time, workers int) ([]WorkerStat, error) {
	if workers < 0 {
		return nil, fmt.Errorf("sim: negative shard worker count %d", workers)
	}
	if workers > len(g.shards) {
		return nil, fmt.Errorf("sim: %d shard workers exceed %d partitions", workers, len(g.shards))
	}
	if workers == 0 {
		g.runSequential(deadline)
		total := uint64(0)
		for _, sh := range g.shards {
			total += sh.Sched.Fired()
		}
		return []WorkerStat{{Worker: 0, Partitions: len(g.shards), EventsFired: total}}, nil
	}
	return g.runParallel(deadline, workers), nil
}

// runSequential is the golden path: the same window/flush schedule as
// the parallel runner, executed inline with no goroutines. Panics
// propagate naturally and the loop allocates nothing.
//
//tlcvet:hotpath the sequential shard inner loop; one iteration per window per partition
func (g *ShardGroup) runSequential(deadline Time) {
	for end := g.firstWindow(deadline); ; {
		for _, sh := range g.shards {
			sh.Sched.RunUntil(end)
		}
		for _, e := range g.exchangers {
			e.Flush(end)
		}
		if end >= deadline {
			return
		}
		end = g.nextWindow(end, deadline)
	}
}

func (g *ShardGroup) firstWindow(deadline Time) Time {
	end := Time(g.lookahead)
	if end > deadline {
		end = deadline
	}
	return end
}

func (g *ShardGroup) nextWindow(end, deadline Time) Time {
	end += Time(g.lookahead)
	if end > deadline {
		end = deadline
	}
	return end
}

// runParallel drives W persistent workers through the window/barrier
// schedule. Workers never touch each other's partitions; the
// coordinator (the calling goroutine) owns the barrier and the
// exchanger flushes.
func (g *ShardGroup) runParallel(deadline Time, workers int) []WorkerStat {
	type shardWorker struct {
		work  chan Time
		mine  []*Shard
		stall time.Duration
	}
	ws := make([]*shardWorker, workers)
	for w := range ws {
		ws[w] = &shardWorker{work: make(chan Time, 1)}
	}
	for i, sh := range g.shards {
		w := ws[i%workers]
		w.mine = append(w.mine, sh)
	}

	// panics[i] records the panic raised inside partition i's window,
	// if any; workers write only their own partitions' slots and the
	// coordinator reads them after the barrier, so the WaitGroup
	// provides the ordering.
	panics := make([]any, len(g.shards))
	var window sync.WaitGroup
	var lives sync.WaitGroup

	for w, sw := range ws {
		lives.Add(1)
		// Start the stopwatch here, on the coordinator, not inside the
		// worker: Stopwatch implementations may keep unsynchronized
		// state across starts (the deterministic test fake does), so
		// starts are serialized in worker-index order. Each returned
		// elapsed func is then used by exactly one goroutine.
		var elapsed func() time.Duration
		if g.Stopwatch != nil {
			elapsed = g.Stopwatch()
		}
		go func(w int, sw *shardWorker, elapsed func() time.Duration) {
			defer lives.Done()
			var idleSince time.Duration
			idle := false
			for end := range sw.work {
				if elapsed != nil && idle {
					sw.stall += elapsed() - idleSince
				}
				g.runWorkerWindow(sw.mine, end, panics)
				if elapsed != nil {
					idleSince = elapsed()
					idle = true
				}
				window.Done()
			}
		}(w, sw, elapsed)
	}

	failed := false
	for end := g.firstWindow(deadline); ; {
		window.Add(workers)
		for _, sw := range ws {
			sw.work <- end
		}
		window.Wait()
		for _, p := range panics {
			if p != nil {
				failed = true
			}
		}
		if failed {
			break
		}
		for _, e := range g.exchangers {
			e.Flush(end)
		}
		if end >= deadline {
			break
		}
		end = g.nextWindow(end, deadline)
	}
	for _, sw := range ws {
		close(sw.work)
	}
	lives.Wait()

	for i, p := range panics {
		if p != nil {
			panic(fmt.Sprintf("sim: shard partition %d panicked: %v", i, p))
		}
	}
	stats := make([]WorkerStat, workers)
	for w, sw := range ws {
		st := WorkerStat{Worker: w, Partitions: len(sw.mine), Stall: sw.stall}
		for _, sh := range sw.mine {
			st.EventsFired += sh.Sched.Fired()
		}
		stats[w] = st
	}
	return stats
}

// runWorkerWindow advances one worker's partitions through a window,
// containing any partition panic so the group can drain its workers
// and re-raise deterministically.
//
//tlcvet:hotpath the parallel shard inner loop; one iteration per window per worker
func (g *ShardGroup) runWorkerWindow(mine []*Shard, end Time, panics []any) {
	cur := -1
	//tlcvet:allow hotalloc — one recover frame per worker window, not per event; panic containment is what makes shard failures deterministic
	defer func() {
		if r := recover(); r != nil && cur >= 0 {
			panics[cur] = r
		}
	}()
	for _, sh := range mine {
		cur = sh.ID
		sh.Sched.RunUntil(end)
	}
	cur = -1
}
