package main

// The benchmark's fixed vocabulary: metric names, units, directions and
// regression bounds (the workloads are in workloads.go). BENCHMARK.json at the repository
// root repeats these for the driver; TestSpecMatchesBenchmarkJSON keeps
// the two from drifting.

// metricDef describes one metric. Bound is the share of the parent's
// median by which an end-to-end metric may worsen (0 for per-layer
// metrics, which are reported but never gated).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	// Reads names the exported function, counter or span the value is
	// taken from (the README glossary prints it).
	Reads string
}

// endToEnd are the metrics a PDM user (or operator) sees, the same ten
// on every workload. failed_ratio of the issue is carried by the
// result's attempted/failed counts instead: it is 0 on a healthy run and
// a metric that is 0 has no relative bound.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median time of the run's set-ups, net of stolen time: NewCluster, LoadProduct, Subscribe+SyncSite, Open/OpenAt"},
	{"actions_per_s", "1/s", "higher", 0.25, "actions / loop time net of stolen time, summed over the clients"},
	{"mle_p50_ms", "ms", "lower", 0.25, "median time of Session.MultiLevelExpand, net of stolen time"},
	{"expand_p50_ms", "ms", "lower", 0.25, "median time of Session.Expand, net of stolen time"},
	{"sim_s_per_action", "s", "lower", 0.10, "netsim Metrics.TotalSec (latency x round trips + volume / rate) / actions"},
	{"round_trips_per_action", "count", "lower", 0.10, "netsim Metrics.RoundTrips / actions"},
	{"wire_kib_per_action", "KiB", "lower", 0.10, "netsim Metrics.VolumeBytes (charged, after compression) / 1024 / actions"},
	{"allocs_per_action", "count", "lower", 0.05, "runtime.MemStats.Mallocs delta / actions"},
	{"alloc_kib_per_action", "KiB", "lower", 0.05, "runtime.MemStats.TotalAlloc delta / 1024 / actions"},
	{"heap_live_mib", "MiB", "lower", 0.05, "runtime.MemStats.HeapAlloc after the run and a forced GC"},
}

// perLayer are the single-layer metrics of the traced run. Every metric
// is printed on every workload; one that does not apply (cache.* without
// a cache, topology.* without a replica, ...) reads 0.
var perLayer = []metricDef{
	// core
	{"core.client_self_ms_per_action", "ms", "lower", 0, "action span minus its roundtrip child spans"},
	{"core.client_share", "ratio", "lower", 0, "client self time / action time"},
	{"core.assemble_us_per_node", "us", "lower", 0, "core.AssembleRecursive on captured recursive result rows"},
	{"core.statements_per_action", "count", "lower", 0, "netsim Metrics.Statements / actions"},
	{"core.useful_row_ratio", "ratio", "higher", 0, "ActionResult.Visible / ActionResult.RowsReceived over read actions"},
	// wire
	{"wire.roundtrip_us", "us", "lower", 0, "mean roundtrip span (outside the metering wrapper)"},
	{"wire.transport_us_per_roundtrip", "us", "lower", 0, "transport span minus handle span: frame I/O and syscalls on TCP"},
	{"wire.decode_request_ns_per_stmt", "ns", "lower", 0, "wire.DecodeRequest / DecodeBatch / DecodeExecPrepared on captured request frames"},
	{"wire.encode_response_us_per_frame", "us", "lower", 0, "wire.EncodeResponseWith / EncodeBatchResponseWith on replayed results"},
	{"wire.encode_response_mb_per_s", "MB/s", "higher", 0, "encoded response bytes / encode time"},
	{"wire.decode_response_us_per_frame", "us", "lower", 0, "wire.MaybeDecompress + DecodeResponse / DecodeBatchResponse on captured response frames"},
	{"wire.codec_share", "ratio", "lower", 0, "replayed decode + encode + compress time / action time"},
	{"wire.compress_us_per_frame", "us", "lower", 0, "wire.CompressBody on replayed response bodies"},
	{"wire.compress_ratio", "ratio", "higher", 0, "original / compressed bytes over compressed frames (wire.CompressedOriginalSize)"},
	{"wire.compressed_frame_ratio", "ratio", "higher", 0, "netsim Metrics.CompressedFrames / RoundTrips"},
	{"wire.request_bytes_per_action", "B", "lower", 0, "netsim Metrics.RequestBytes / actions"},
	{"wire.response_bytes_per_action", "B", "lower", 0, "netsim Metrics.ResponseBytes / actions"},
	{"wire.saved_request_bytes_per_action", "B", "higher", 0, "netsim Metrics.SavedRequestBytes / actions"},
	// minisql
	{"minisql.handle_ms_per_action", "ms", "lower", 0, "handle spans (around ServerConn.Handle) per action"},
	{"minisql.server_share", "ratio", "lower", 0, "handle time / action time"},
	{"minisql.parse_us_per_stmt", "us", "lower", 0, "minisql.Session.Parse on captured SQL, in order, through the plan cache"},
	{"minisql.plan_hit_ratio", "ratio", "higher", 0, "Session.TakeContention PlanHits / (PlanHits + PlanMisses) of the replay"},
	{"minisql.parser_cold_us_per_stmt", "us", "lower", 0, "parser.Parse on captured SQL (no plan cache)"},
	{"minisql.tokenize_mb_per_s", "MB/s", "higher", 0, "token.Tokenize on captured SQL"},
	{"minisql.exec_us_per_stmt", "us", "lower", 0, "minisql.Session.ExecStmt on captured read-only statements"},
	{"minisql.exec_us_per_row", "us", "lower", 0, "replayed exec time / rows returned"},
	{"minisql.rows_per_stmt", "count", "lower", 0, "rows returned per replayed read-only statement"},
	{"minisql.write_us_per_stmt", "us", "lower", 0, "handle span of exchanges carrying writes / their statements"},
	{"minisql.lock_wait_ms_per_action", "ms", "lower", 0, "netsim Metrics.LockWaitNanos / actions"},
	{"minisql.snapshots_per_action", "count", "lower", 0, "netsim Metrics.SnapshotsStarted / actions"},
	{"minisql.write_conflicts", "count", "lower", 0, "netsim Metrics.WriteConflicts"},
	{"minisql.load_objects_per_s", "1/s", "higher", 0, "generated objects / System.LoadProduct wall time"},
	// cache
	{"cache.hit_ratio", "ratio", "higher", 0, "netsim Metrics.CacheHits / (CacheHits + CacheMisses)"},
	{"cache.validate_roundtrips_per_action", "count", "lower", 0, "netsim Metrics.ValidateRoundTrips / actions"},
	{"cache.saved_roundtrips_per_action", "count", "higher", 0, "netsim Metrics.SavedRoundTrips / actions"},
	{"cache.entries", "count", "lower", 0, "Session.Cache().Len() after the run"},
	{"cache.capacity", "count", "lower", 0, "Session.Cache().Cap()"},
	// netsim
	{"netsim.latency_share", "ratio", "lower", 0, "netsim Metrics.LatencySec / TotalSec"},
	{"netsim.account_ns_per_roundtrip", "ns", "lower", 0, "roundtrip span minus transport span: the metering wrapper"},
	// topology / subscribe
	{"topology.sync_ms_per_pull", "ms", "lower", 0, "wall time of Cluster.SyncSite"},
	{"topology.sync_kib_per_pull", "KiB", "lower", 0, "site meter VolumeBytes delta per pull"},
	{"topology.sync_rows_per_pull", "count", "lower", 0, "SyncStats.Rows per pull"},
	{"topology.lag_epochs_p50", "count", "lower", 0, "primary DB.Epoch minus Site.Epoch before each pull"},
	{"topology.extract_encode_ms_per_pull", "ms", "lower", 0, "DB.ExtractDelta + wire.EncodeSyncResp + DecodeSyncResp for each pull's interval"},
	{"subscribe.coverage", "ratio", "higher", 0, "site Metrics.SubscribedRows / (SubscribedRows + SkippedRows)"},
	{"subscribe.fallthrough_roundtrips_per_action", "count", "lower", 0, "netsim Metrics.FallThroughRoundTrips / actions"},
	// costmodel
	{"costmodel.mle_err_pct", "%", "lower", 0, "|costmodel prediction - netsim charge| / charge, full-root MLE"},
	{"costmodel.expand_err_pct", "%", "lower", 0, "same for the root Expand"},
	{"costmodel.query_err_pct", "%", "lower", 0, "same for Query"},
	// runtime
	{"runtime.cpu_ms_per_action", "ms", "lower", 0, "getrusage user+system delta / actions"},
	{"runtime.gc_cycles", "count", "lower", 0, "runtime.MemStats.NumGC delta"},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0, "runtime.MemStats.PauseTotalNs delta"},
	{"runtime.gc_cpu_share", "ratio", "lower", 0, "runtime/metrics /cpu/classes/gc/total over /cpu/classes/total deltas"},
	{"runtime.peak_rss_mib", "MiB", "lower", 0, "getrusage Maxrss"},
	// per-kind medians and tails, each with its sample count
	{"kind.query_p50_ms", "ms", "lower", 0, "median wall time of Session.Query"},
	{"kind.query_n", "count", "higher", 0, "samples"},
	{"kind.whereused_p50_ms", "ms", "lower", 0, "median wall time of Session.WhereUsed"},
	{"kind.whereused_n", "count", "higher", 0, "samples"},
	{"kind.report_p50_ms", "ms", "lower", 0, "median wall time of Session.Report"},
	{"kind.report_n", "count", "higher", 0, "samples"},
	{"kind.checkout_pair_p50_ms", "ms", "lower", 0, "median wall time of CheckOut followed by CheckIn"},
	{"kind.checkout_pair_n", "count", "higher", 0, "samples"},
	{"kind.update_p50_ms", "ms", "lower", 0, "median wall time of a single-row UPDATE via Session.Exec"},
	{"kind.update_n", "count", "higher", 0, "samples"},
	{"kind.eco_p50_ms", "ms", "lower", 0, "median wall time of Session.ECOPropagate"},
	{"kind.eco_n", "count", "higher", 0, "samples"},
	{"kind.mle_hit_p50_ms", "ms", "lower", 0, "median MLE served without a cache miss"},
	{"kind.mle_hit_n", "count", "higher", 0, "samples"},
	{"kind.mle_miss_p50_ms", "ms", "lower", 0, "median MLE with at least one cache miss (every MLE without a cache)"},
	{"kind.mle_miss_n", "count", "higher", 0, "samples"},
	{"tail.mle_p99_ms", "ms", "lower", 0, "MLE wall time at tail.mle_pct"},
	{"tail.mle_pct", "%", "higher", 0, "percentile used: the highest <= 99 with >= 10 samples beyond it"},
	{"tail.mle_n", "count", "higher", 0, "samples"},
	{"tail.expand_p99_ms", "ms", "lower", 0, "Expand wall time at tail.expand_pct"},
	{"tail.expand_pct", "%", "higher", 0, "percentile used"},
	{"tail.expand_n", "count", "higher", 0, "samples"},
	{"tail.write_p95_ms", "ms", "lower", 0, "write action (pair, UPDATE, ECO) wall time at tail.write_pct"},
	{"tail.write_pct", "%", "higher", 0, "percentile used: the highest <= 95 with >= 10 samples beyond it"},
	{"tail.write_n", "count", "higher", 0, "samples"},
	// trace
	{"trace.overhead_pct", "%", "lower", 0, "traced vs untraced mle_p50_ms"},
	{"trace.replay_coverage", "ratio", "higher", 0, "replayed server stage time / handle time"},
	{"trace.spans", "count", "lower", 0, "spans recorded"},
}
