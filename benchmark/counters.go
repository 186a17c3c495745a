package main

import (
	"piper"
	"piper/internal/arena"
)

// counters is the pair of public snapshots the benchmark differences to
// count what a layer did during a window.
type counters struct {
	core  piper.Stats
	arena arena.Counters
}

func snapshot(eng *piper.Engine) counters {
	return counters{core: eng.Stats(), arena: eng.Arena().Stats()}
}

func share(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

// counterMetrics turns the difference of two snapshots into the
// per-layer counts, per run (or per request) and per thousand
// iterations.
func counterMetrics(m metrics, a, b counters, runs float64) {
	d := func(f func(piper.Stats) int64) int64 { return f(b.core) - f(a.core) }
	iters := d(func(s piper.Stats) int64 { return s.Iterations })
	perRun := func(name string, v int64) { m.set(name, float64(v)/runs, int(runs)) }
	perKiter := func(name string, v int64) { m.set(name, 1000*share(v, iters), int(runs)) }

	steals := d(func(s piper.Stats) int64 { return s.Steals })
	failed := d(func(s piper.Stats) int64 { return s.FailedSteals })
	folds := d(func(s piper.Stats) int64 { return s.FoldHits })
	checks := d(func(s piper.Stats) int64 { return s.CrossChecks })
	batched := d(func(s piper.Stats) int64 { return s.BatchedIterations })
	splits := d(func(s piper.Stats) int64 { return s.BatchSplits })
	hits := d(func(s piper.Stats) int64 { return s.FramePoolHits })
	misses := d(func(s piper.Stats) int64 { return s.FramePoolMisses })

	perRun("core.iterations_per_run", iters)
	perKiter("core.steals_per_kiter", steals)
	m.set("core.failed_steal_share", share(failed, failed+steals), int(runs))
	perRun("core.parks_per_run", d(func(s piper.Stats) int64 { return s.Parks }))
	perRun("core.wakes_per_run", d(func(s piper.Stats) int64 { return s.Wakes }))
	perKiter("core.promotions_per_kiter", d(func(s piper.Stats) int64 { return s.Promotions }))
	perKiter("core.cross_suspends_per_kiter", d(func(s piper.Stats) int64 { return s.CrossSuspends }))
	perKiter("core.scope_suspends_per_kiter", d(func(s piper.Stats) int64 { return s.ScopeSuspends }))
	m.set("core.batched_share", share(batched, iters), int(runs))
	// A batch of G iterations counts G-1 batched slots, so batches are
	// at most the batched slots; splits per batched slot is the lower
	// bound on the share of batches cut short.
	m.set("core.batch_split_share", share(splits, batched+splits), int(runs))
	m.set("core.fold_hit_share", share(folds, folds+checks), int(runs))
	perRun("core.throttle_parks_per_run", d(func(s piper.Stats) int64 { return s.ThrottleParks }))
	perRun("core.plans_compiled_per_run", d(func(s piper.Stats) int64 { return s.PlansCompiled }))
	perRun("core.plan_deopts_per_run", d(func(s piper.Stats) int64 { return s.PlanDeopts }))
	m.set("core.frame_pool_miss_share", share(misses, hits+misses), int(runs))
	perRun("core.inject_overflows_per_run", d(func(s piper.Stats) int64 { return s.InjectOverflows }))

	gets := b.arena.Gets - a.arena.Gets
	m.set("arena.gets_per_run", float64(gets)/runs, int(runs))
	m.set("arena.miss_share", share(b.arena.Misses-a.arena.Misses, gets), int(runs))
	m.set("arena.recycled_mb_per_run", float64(b.arena.RecycledBytes-a.arena.RecycledBytes)/(1<<20)/runs, int(runs))
}
