package main

import (
	"time"

	flownet "flownet"
)

// layerMetrics derives the per-layer metrics of a traced run. Times come
// from spans of the traced rounds: client and handler spans, and the
// library replay's spans. Counters come from /stats deltas over the pass
// and from runtime/metrics over the untraced rounds.
func layerMetrics(e *env, t *tracer, rp *replica, p pass, st0, st1 flownet.StatsResult) map[string]metric {
	a := t.aggregate()
	ratio := func(x, y uint64) float64 {
		if x+y == 0 {
			return 0
		}
		return float64(x) / float64(x+y)
	}
	per := func(x int, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return float64(x) / float64(calls)
	}
	hits, misses := st1.Cache.Hits-st0.Cache.Hits, st1.Cache.Misses-st0.Cache.Misses
	retained := st1.Derived.CacheRetained - st0.Derived.CacheRetained
	purged := st1.Derived.CachePurged - st0.Derived.CachePurged
	walPerIA := 0.0
	if rp.walItems > 0 {
		walPerIA = rp.walBytes / float64(rp.walItems)
	}

	// Client time of the traced ops, the runtime counters of the untraced
	// rounds, and the per-op wall time of each kind of round.
	var client time.Duration
	var traced, untraced int
	var rt runtimeSample
	var perOpT, perOpU []float64
	for _, rd := range p.rounds {
		n := rd.end - rd.first
		perOp := rd.wall.Seconds() / float64(n)
		if rd.traced {
			traced += n
			perOpT = append(perOpT, perOp)
			for i := rd.first; i < rd.end; i++ {
				client += p.results[i].lat
			}
			continue
		}
		untraced += n
		perOpU = append(perOpU, perOp)
		rt.allocBytes += rd.rt1.allocBytes - rd.rt0.allocBytes
		rt.gcCycles += rd.rt1.gcCycles - rd.rt0.gcCycles
		rt.gcCPU += rd.rt1.gcCPU - rd.rt0.gcCPU
	}
	var transport time.Duration
	if c := a["client"]; c != nil {
		transport = c.self
	}
	overhead := 100 * (median(perOpT) - median(perOpU)) / median(perOpU)
	coverage := float64(transport+replayTotal(a)) / float64(client)

	m := map[string]metric{
		"transport.us_per_req": {us(transport) / float64(traced), "us"},
		"server.flow_us":       {a["server/flow"].meanUS(), "us"},
		"server.patterns_us":   {a["server/patterns"].meanUS(), "us"},
		"server.ingest_us":     {a["server/ingest"].meanUS(), "us"},
		"server.encode_us":     {a["server.encode"].meanUS(), "us"},

		"cache.hit_ratio":      {ratio(hits, misses), "ratio"},
		"cache.retained_ratio": {ratio(retained, purged), "ratio"},

		"store.read_lock_wait_us":         {a["store.acquire"].meanUS(), "us"},
		"store.append_ms":                 {a["store.append"].meanMS(), "ms"},
		"store.wal_bytes_per_interaction": {walPerIA, "B"},
		"store.snapshots":                 {float64(st1.Store.Snapshots - st0.Store.Snapshots), "count"},
		"tin.extract_us":                  {a["tin.extract"].meanUS(), "us"},
		"tin.extract_interactions":        {per(rp.extractIA, a["tin.extract"].count()), "count"},
		"tin.footprint_vertices":          {per(rp.footprint, a["tin.extract"].count()), "count"},
		"core.greedy_us":                  {a["core.greedy"].meanUS(), "us"},
		"core.preprocess_us":              {a["core.preprocess"].meanUS(), "us"},
		"core.simplify_us":                {a["core.simplify"].meanUS(), "us"},
		"core.class_a":                    {float64(rp.classes[0]), "count"},
		"core.class_b":                    {float64(rp.classes[1]), "count"},
		"core.class_c":                    {float64(rp.classes[2]), "count"},
		"lp.solve_ms":                     {a["lp.solve"].meanMS(), "ms"},
		"lp.variables":                    {per(rp.lpVars, a["lp.solve"].count()), "count"},
		"lp.calls":                        {float64(a["lp.solve"].count()), "count"},
		"teg.build_us":                    {a["teg.build"].meanUS(), "us"},
		"teg.arcs":                        {per(rp.arcs, a["teg.build"].count()), "count"},
		"maxflow.dinic_us":                {a["maxflow.dinic"].meanUS(), "us"},
		"teg.calls":                       {float64(a["teg.build"].count()), "count"},
		"pattern.search_pb_us":            {a["pattern.search_pb"].meanUS(), "us"},
		"pattern.tables_update_ms":        {a["pattern.update"].meanMS(), "ms"},
		"pattern.table_updates":           {float64(st1.Derived.TableUpdates - st0.Derived.TableUpdates), "count"},
		"pattern.table_rebuilds":          {float64(st1.Derived.TableRebuilds - st0.Derived.TableRebuilds), "count"},
		"pattern.precompute_ms":           {ms(e.preTime), "ms"},
		"runtime.alloc_bytes_per_op":      {float64(rt.allocBytes) / float64(untraced), "B"},
		"runtime.gc_cycles":               {float64(rt.gcCycles), "count"},
		"runtime.gc_cpu_ms":               {1e3 * rt.gcCPU, "ms"},
		"datagen.generate_s":              {e.genTime.Seconds(), "s"},
		"trace.overhead_pct":              {overhead, "%"},
		"trace.path_coverage":             {coverage, "ratio"},
	}
	return m
}
