package main

// Metric computation: the ten end-to-end values from an untraced pass,
// and the per-layer values from that pass's counters plus a traced pass
// and its replay.

// endToEndValues computes every end-to-end metric of one run. The
// wall-clock metrics are net of stolen time (see unstolen).
func endToEndValues(setups []float64, p *pass) map[string]float64 {
	n := float64(p.actions)
	return map[string]float64{
		"setup_s":                median(setups),
		"actions_per_s":          p.rate,
		"mle_p50_ms":             median(p.lat[opMLE]),
		"expand_p50_ms":          median(p.lat[opExpand]),
		"sim_s_per_action":       ratio(p.traffic.TotalSec(), n),
		"round_trips_per_action": ratio(float64(p.traffic.RoundTrips), n),
		"wire_kib_per_action":    ratio(p.traffic.VolumeBytes()/1024, n),
		"allocs_per_action":      ratio(float64(p.mallocs), n),
		"alloc_kib_per_action":   ratio(float64(p.allocBytes)/1024, n),
		"heap_live_mib":          float64(p.heapLive) / (1 << 20),
	}
}

// spanSums totals the traced pass's spans by name. Only spans inside an
// action count towards the per-action shares; site pulls run between
// actions and are reported by topology.* instead.
type spanSums struct {
	actionNs, roundtripInActionNs, handleInActionNs int64
	actions                                         int
	roundtripNs, transportNs, handleNs              int64
	roundtrips                                      int
}

func sumSpans(spans []span) spanSums {
	var s spanSums
	for _, sp := range spans {
		switch sp.Name {
		case "action":
			s.actionNs += sp.dur()
			s.actions++
		case "roundtrip":
			s.roundtripNs += sp.dur()
			s.roundtrips++
			if sp.Action >= 0 {
				s.roundtripInActionNs += sp.dur()
			}
		case "transport":
			s.transportNs += sp.dur()
		case "handle":
			s.handleNs += sp.dur()
			if sp.Action >= 0 {
				s.handleInActionNs += sp.dur()
			}
		}
	}
	return s
}

// layerInputs is everything the per-layer metrics are computed from.
type layerInputs struct {
	untraced *pass // the full op list, no tracer: counters, kinds, tails, runtime
	traced   *pass // the traced prefix
	spans    []span
	replay   *replayStats
	fidelity []fidelityRow
	objects  int
	loadSec  float64
}

// perLayerValues computes every per-layer metric. One that does not
// apply to the workload comes out 0.
func perLayerValues(in layerInputs) map[string]float64 {
	u, m := in.untraced, in.untraced.traffic
	n := float64(u.actions)
	s := sumSpans(in.spans)
	rp := in.replay
	ta := float64(s.actions)
	actionNs := float64(s.actionNs)
	v := map[string]float64{}

	v["core.client_self_ms_per_action"] = ratio(float64(s.actionNs-s.roundtripInActionNs)/1e6, ta)
	v["core.client_share"] = ratio(float64(s.actionNs-s.roundtripInActionNs), actionNs)
	v["core.assemble_us_per_node"] = ratio(float64(rp.assemble.ns)/1e3, float64(rp.assemble.calls))
	v["core.statements_per_action"] = ratio(float64(m.Statements), n)
	v["core.useful_row_ratio"] = ratio(float64(u.visible), float64(u.rows))

	rt := float64(s.roundtrips)
	v["wire.roundtrip_us"] = ratio(float64(s.roundtripNs)/1e3, rt)
	v["wire.transport_us_per_roundtrip"] = ratio(float64(s.transportNs-s.handleNs)/1e3, rt)
	v["wire.decode_request_ns_per_stmt"] = ratio(float64(rp.decodeRequest.ns), float64(rp.decodeRequest.calls))
	v["wire.encode_response_us_per_frame"] = ratio(float64(rp.encode.ns)/1e3, float64(rp.encode.calls))
	v["wire.encode_response_mb_per_s"] = ratio(float64(rp.encode.bytes)/1e6, float64(rp.encode.ns)/1e9)
	v["wire.decode_response_us_per_frame"] = ratio(float64(rp.decodeResponse.ns)/1e3, float64(rp.decodeResponse.calls))
	v["wire.codec_share"] = ratio(float64(rp.decodeRequest.ns+rp.encode.ns+rp.compress.ns+rp.decodeResponse.ns), actionNs)
	v["wire.compress_us_per_frame"] = ratio(float64(rp.compress.ns)/1e3, float64(rp.compress.calls))
	v["wire.compress_ratio"] = ratio(float64(rp.compressedOrig), float64(rp.compressedLen))
	v["wire.compressed_frame_ratio"] = ratio(float64(m.CompressedFrames), float64(m.RoundTrips))
	v["wire.request_bytes_per_action"] = ratio(m.RequestBytes, n)
	v["wire.response_bytes_per_action"] = ratio(m.ResponseBytes, n)
	v["wire.saved_request_bytes_per_action"] = ratio(m.SavedRequestBytes, n)

	v["minisql.handle_ms_per_action"] = ratio(float64(s.handleInActionNs)/1e6, ta)
	v["minisql.server_share"] = ratio(float64(s.handleInActionNs), actionNs)
	v["minisql.parse_us_per_stmt"] = ratio(float64(rp.parse.ns)/1e3, float64(rp.parse.calls))
	v["minisql.plan_hit_ratio"] = ratio(float64(rp.planHits), float64(rp.planHits+rp.planMisses))
	v["minisql.parser_cold_us_per_stmt"] = ratio(float64(rp.coldParse.ns)/1e3, float64(rp.coldParse.calls))
	v["minisql.tokenize_mb_per_s"] = ratio(float64(rp.tokenize.bytes)/1e6, float64(rp.tokenize.ns)/1e9)
	v["minisql.exec_us_per_stmt"] = ratio(float64(rp.exec.ns)/1e3, float64(rp.exec.calls))
	v["minisql.exec_us_per_row"] = ratio(float64(rp.exec.ns)/1e3, float64(rp.exec.rows))
	v["minisql.rows_per_stmt"] = ratio(float64(rp.exec.rows), float64(rp.exec.calls))
	v["minisql.write_us_per_stmt"] = ratio(float64(rp.writes.ns)/1e3, float64(rp.writes.calls))
	v["minisql.lock_wait_ms_per_action"] = ratio(float64(m.LockWaitNanos)/1e6, n)
	v["minisql.snapshots_per_action"] = ratio(float64(m.SnapshotsStarted), n)
	v["minisql.write_conflicts"] = float64(m.WriteConflicts)
	v["minisql.load_objects_per_s"] = ratio(float64(in.objects), in.loadSec)

	v["cache.hit_ratio"] = ratio(float64(m.CacheHits), float64(m.CacheHits+m.CacheMisses))
	v["cache.validate_roundtrips_per_action"] = ratio(float64(m.ValidateRoundTrips), n)
	v["cache.saved_roundtrips_per_action"] = 0
	if u.cacheCap > 0 {
		// Batching saves round trips too; only a cached session's count
		// is the cache's.
		v["cache.saved_roundtrips_per_action"] = ratio(float64(m.SavedRoundTrips), n)
	}
	v["cache.entries"] = float64(u.cacheLen)
	v["cache.capacity"] = float64(u.cacheCap)

	v["netsim.latency_share"] = ratio(m.LatencySec, m.TotalSec())
	v["netsim.account_ns_per_roundtrip"] = ratio(float64(s.roundtripNs-s.transportNs), rt)

	var syncMs, syncKiB, syncRows, lags []float64
	for _, sy := range u.syncs {
		syncMs = append(syncMs, sy.ms)
		syncKiB = append(syncKiB, sy.kib)
		syncRows = append(syncRows, float64(sy.rows))
		lags = append(lags, float64(sy.lagEpochs))
	}
	mean := func(x []float64) float64 {
		t := 0.0
		for _, e := range x {
			t += e
		}
		return ratio(t, float64(len(x)))
	}
	v["topology.sync_ms_per_pull"] = mean(syncMs)
	v["topology.sync_kib_per_pull"] = mean(syncKiB)
	v["topology.sync_rows_per_pull"] = mean(syncRows)
	v["topology.lag_epochs_p50"] = median(lags)
	var extractNs int64
	extracts := 0
	for _, sp := range in.spans {
		if sp.Name == "replay.extract_encode" {
			extractNs += sp.dur()
			extracts++
		}
	}
	v["topology.extract_encode_ms_per_pull"] = ratio(float64(extractNs)/1e6, float64(extracts))
	st := u.siteTraffic
	v["subscribe.coverage"] = ratio(float64(st.SubscribedRows), float64(st.SubscribedRows+st.SkippedRows))
	v["subscribe.fallthrough_roundtrips_per_action"] = ratio(float64(m.FallThroughRoundTrips), n)

	for _, f := range in.fidelity {
		v["costmodel."+f.action+"_err_pct"] = f.errPct()
	}

	v["runtime.cpu_ms_per_action"] = ratio(u.cpuSec*1e3, n)
	v["runtime.gc_cycles"] = float64(u.gcCycles)
	v["runtime.gc_pause_ms_total"] = float64(u.gcPauseNs) / 1e6
	v["runtime.gc_cpu_share"] = u.gcCPUShare
	v["runtime.peak_rss_mib"] = float64(u.peakRSSKiB) / 1024

	for k, name := range map[opKind]string{opQuery: "query", opWhereUsed: "whereused", opReport: "report",
		opPair: "checkout_pair", opUpdate: "update", opECO: "eco"} {
		v["kind."+name+"_p50_ms"] = median(u.lat[k])
		v["kind."+name+"_n"] = float64(len(u.lat[k]))
	}
	v["kind.mle_hit_p50_ms"], v["kind.mle_hit_n"] = median(u.mleHit), float64(len(u.mleHit))
	v["kind.mle_miss_p50_ms"], v["kind.mle_miss_n"] = median(u.mleMiss), float64(len(u.mleMiss))
	var writes []float64
	for k := opKind(0); k < numKinds; k++ {
		if k.isWrite() {
			writes = append(writes, u.lat[k]...)
		}
	}
	v["tail.mle_p99_ms"], v["tail.mle_pct"] = tail(u.lat[opMLE], 99)
	v["tail.mle_n"] = float64(len(u.lat[opMLE]))
	v["tail.expand_p99_ms"], v["tail.expand_pct"] = tail(u.lat[opExpand], 99)
	v["tail.expand_n"] = float64(len(u.lat[opExpand]))
	v["tail.write_p95_ms"], v["tail.write_pct"] = tail(writes, 95)
	v["tail.write_n"] = float64(len(writes))

	v["trace.overhead_pct"] = 0
	if base := median(u.lat[opMLE]); base > 0 {
		v["trace.overhead_pct"] = 100 * (median(in.traced.lat[opMLE])/base - 1)
	}
	v["trace.replay_coverage"] = ratio(float64(rp.serverNs), float64(rp.handleNs))
	v["trace.spans"] = float64(len(in.spans))
	return v
}
