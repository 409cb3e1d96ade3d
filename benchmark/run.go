package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"pdmtune"
	"pdmtune/internal/minisql/types"
	"pdmtune/internal/wire"
)

// warmupShare is the length of the untimed warm-up relative to the
// measured list.
const warmupShare = 0.05

// script is one client's ops: an untimed warm-up, then the measured
// list. Both are drawn from the same mix, separately, so the measured
// list keeps exactly the mix's quotas whatever the seed. An action's
// index counts through the warm-up into the measured list.
type script struct{ warm, measured []op }

func (s script) all() []op { return append(append([]op(nil), s.warm...), s.measured...) }

// recorder collects what one client observed during the measured phase.
// Each client goroutine owns one; they are merged afterwards.
type recorder struct {
	lat             [numKinds][]float64 // ms per action, net of stolen time
	mleHit, mleMiss []float64
	// busySec is the time the client's loop took, net of stolen time.
	busySec float64
	// rate is actions / busySec, summed over the clients when merged: each
	// client is a closed loop of its own.
	rate            float64
	actions, failed int
	denied          int // check-outs the rule refused, as scripted
	conflicts       int // first-wins races lost: an outcome, never scripted
	visible, rows   int // read actions: objects shown / rows received
	firstErr        error
	syncs           []syncSample
}

// Stolen time. The sandbox is a virtual machine on a shared host, and
// the hypervisor takes its CPUs away for anything between 1% and 40% of
// a run, minutes apart. That is no property of the program, and it was
// the larger part of the run-to-run spread of every wall-clock metric.
// The kernel reports it (/proc/stat, steal), so every wall-clock reading
// is multiplied by the share of the interval the machine really had its
// CPUs: 1 - stolen / (CPUs x wall). The counter is read about every
// stealInterval, so a burst is charged to the actions it hit. Where the
// kernel reports no steal the factor is 1 and the metrics are plain
// wall-clock time.
func unstolen(wallSec, stolenSec float64) float64 {
	if wallSec <= 0 {
		return 1
	}
	f := 1 - stolenSec/(float64(runtime.NumCPU())*wallSec)
	if f < 0.1 {
		f = 0.1 // a reading this extreme is a counter glitch, not a measurement
	}
	return f
}

// syncSample is one replication pull by client 0.
type syncSample struct {
	ms, kib   float64
	rows      int
	lagEpochs uint64
}

func (r *recorder) merge(o *recorder) {
	for k := range r.lat {
		r.lat[k] = append(r.lat[k], o.lat[k]...)
	}
	r.mleHit = append(r.mleHit, o.mleHit...)
	r.mleMiss = append(r.mleMiss, o.mleMiss...)
	r.rate += ratio(float64(o.actions), o.busySec)
	r.actions += o.actions
	r.failed += o.failed
	r.denied += o.denied
	r.conflicts += o.conflicts
	r.visible += o.visible
	r.rows += o.rows
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.syncs = append(r.syncs, o.syncs...)
}

// pass is the outcome of executing the op lists once on one instance.
type pass struct {
	recorder
	traffic     pdmtune.Metrics // sessions plus site pulls, measured phase only
	siteTraffic pdmtune.Metrics
	mallocs     uint64
	allocBytes  uint64
	gcCycles    uint32
	gcPauseNs   uint64
	cpuSec      float64 // process user+system
	gcCPUShare  float64
	heapLive    uint64
	peakRSSKiB  int64
	cacheLen    int
	cacheCap    int
}

// want is the shape of every correctness check.
func want(what string, got, expected int) error {
	if got != expected {
		return fmt.Errorf("%s = %d, ground truth says %d", what, got, expected)
	}
	return nil
}

// do executes one op through the session's public actions and checks the
// answer against the generator's ground truth. A non-nil error is a
// failed action.
func (inst *instance) do(ctx context.Context, c *client, o op, rec *recorder) (hit bool, err error) {
	t := inst.truth
	// read books a read action's yield and checks its size.
	read := func(what string, res *pdmtune.ActionResult, expected int) error {
		rec.visible, rec.rows = rec.visible+res.Visible, rec.rows+res.RowsReceived
		return want(what, res.Visible, expected)
	}
	switch o.Kind {
	case opMLE:
		res, err := c.sess.MultiLevelExpand(ctx, o.Target)
		if err != nil {
			return false, err
		}
		return res.Metrics.CacheHits > 0 && res.Metrics.CacheMisses == 0, read("MLE visible", res, t.visSub[o.Target])
	case opExpand:
		res, err := c.sess.Expand(ctx, o.Target)
		if err != nil {
			return false, err
		}
		return false, read("Expand visible", res, t.visKids[o.Target])
	case opQuery:
		res, err := c.sess.Query(ctx, o.Target)
		if err != nil {
			return false, err
		}
		return false, read("Query visible", res, t.visibleTotal())
	case opWhereUsed:
		res, err := c.sess.WhereUsed(ctx, o.Target)
		if err != nil {
			return false, err
		}
		return false, read("WhereUsed ancestors", res, t.level(o.Target))
	case opReport:
		res, err := c.sess.Report(ctx, o.Target)
		if err != nil {
			return false, err
		}
		if err := want("Report assemblies", res.Assemblies, t.assemblies); err != nil {
			return false, err
		}
		return false, want("Report components", res.Components, t.components)
	case opPair:
		return false, inst.doPair(ctx, c, o, rec)
	case opUpdate:
		table := "comp"
		if t.level(o.Target) < t.depth() {
			table = "assy"
		}
		resp, err := c.sess.Exec(ctx, "UPDATE "+table+" SET weight = ? WHERE obid = ?",
			types.NewFloat(o.Weight), types.NewInt(o.Target))
		if err != nil {
			return false, err
		}
		return false, want("UPDATE rows affected", resp.RowsAffected, 1)
	case opECO:
		res, err := c.sess.ECOPropagate(ctx, o.Target, o.State)
		if err != nil {
			return false, err
		}
		if err := want("ECO affected assemblies", len(res.Affected), t.level(o.Target)); err != nil {
			return false, err
		}
		if err := want("ECO conflicts", res.Conflicts, 0); err != nil {
			return false, err
		}
		return false, want("ECO updated", res.Updated, 1+t.level(o.Target))
	}
	return false, fmt.Errorf("unknown op kind %d", o.Kind)
}

// doPair checks a subtree out and straight back in. A scripted denial
// and a lost first-wins race are outcomes; anything else that deviates
// from the ground truth is a failure.
func (inst *instance) doPair(ctx context.Context, c *client, o op, rec *recorder) error {
	co, err := c.sess.CheckOut(ctx, o.Target)
	var conflict *pdmtune.ConflictError
	if errors.As(err, &conflict) {
		rec.conflicts++
		return nil
	}
	if err != nil {
		return err
	}
	if o.Deny {
		if co.Granted {
			return fmt.Errorf("check-out of held subtree %d was granted", o.Target)
		}
		rec.denied++
		return nil
	}
	if !co.Granted {
		return fmt.Errorf("check-out of free subtree %d was denied", o.Target)
	}
	nodes := 1 + inst.truth.visSub[o.Target]
	if err := want("check-out updated", co.Updated, nodes); err != nil {
		return err
	}
	ci, err := c.sess.CheckIn(ctx, o.Target)
	if err != nil {
		return err
	}
	return want("check-in updated", ci.Updated, nodes)
}

// fail counts one failed action or check.
func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// stealInterval is how often a client re-reads the steal counter. The
// counter ticks in 1/100 s, so shorter segments would only add rounding.
const stealInterval = 500 * time.Millisecond

// runClient executes ops in a closed loop: the next action starts when
// the previous one has returned. base is the index of ops[0] in the
// client's script. The samples of every stealInterval are corrected for
// the time stolen during it.
func (inst *instance) runClient(ctx context.Context, ci int, ops []op, base int, rec *recorder) {
	c := inst.clients[ci]
	type sample struct {
		kind opKind
		hit  bool
		ms   float64
	}
	var segment []sample
	segStart, stolenStart := time.Now(), stolenSeconds()
	for k, o := range ops {
		i := base + k
		id := c.cur.beginAction(i)
		start := time.Now()
		hit, err := inst.do(ctx, c, o, rec)
		segment = append(segment, sample{o.Kind, hit, float64(time.Since(start).Nanoseconds()) / 1e6})
		c.cur.endAction(id)
		rec.actions++
		if err != nil {
			rec.fail(fmt.Errorf("client %d op %d (%s %d): %w", ci, i, o.Kind, o.Target, err))
		}
		if every := inst.syncEvery(); ci == 0 && every > 0 && (i+1)%every == 0 {
			if err := inst.pull(ctx, c, rec); err != nil {
				rec.fail(err)
			}
		}
		now := time.Now()
		if now.Sub(segStart) < stealInterval && k < len(ops)-1 {
			continue
		}
		stolen := stolenSeconds()
		wall := now.Sub(segStart).Seconds()
		f := unstolen(wall, stolen-stolenStart)
		rec.busySec += wall * f
		for _, s := range segment {
			rec.lat[s.kind] = append(rec.lat[s.kind], s.ms*f)
			if s.kind == opMLE && s.hit {
				rec.mleHit = append(rec.mleHit, s.ms*f)
			} else if s.kind == opMLE {
				rec.mleMiss = append(rec.mleMiss, s.ms*f)
			}
		}
		segment, segStart, stolenStart = segment[:0], now, stolen
	}
}

// pull syncs the replica site, as client 0 does every SyncEvery actions.
// Traced, it also replays the pull's server side through the exported
// extraction and codec functions while the interval is still current.
func (inst *instance) pull(ctx context.Context, c *client, rec *recorder) error {
	lag := inst.sys.DB.Epoch() - inst.site.Epoch()
	before := inst.site.Metrics().VolumeBytes()
	id := c.cur.push("sync")
	start := time.Now()
	stats, err := inst.cluster.SyncSite(ctx, replicaSite)
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	c.cur.pop(id)
	if err != nil {
		return fmt.Errorf("sync of %s: %w", replicaSite, err)
	}
	rec.syncs = append(rec.syncs, syncSample{
		ms: ms, kib: (inst.site.Metrics().VolumeBytes() - before) / 1024,
		rows: stats.Rows, lagEpochs: lag,
	})
	if id >= 0 {
		rid := c.cur.push("replay.extract_encode")
		body := wire.EncodeSyncResp(inst.sys.DB.ExtractDelta(stats.Since))
		_, err = wire.DecodeSyncResp(body)
		c.cur.pop(rid)
		if err != nil {
			return fmt.Errorf("replayed sync response does not decode: %w", err)
		}
	}
	return nil
}

// phase runs every client over the warm-up or the measured part of its
// script and waits for all of them. One client runs on the caller's
// goroutine.
func (inst *instance) phase(ctx context.Context, scripts []script, warm bool, recs []*recorder) {
	part := func(ci int) ([]op, int) {
		if warm {
			return scripts[ci].warm, 0
		}
		return scripts[ci].measured, len(scripts[ci].warm)
	}
	if len(scripts) == 1 {
		ops, base := part(0)
		inst.runClient(ctx, 0, ops, base, recs[0])
		return
	}
	var wg sync.WaitGroup
	for ci := range scripts {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			ops, base := part(ci)
			inst.runClient(ctx, ci, ops, base, recs[ci])
		}(ci)
	}
	wg.Wait()
}

// traffic sums the sessions' meters and the replica site's pull meter.
func (inst *instance) traffic() (total, site pdmtune.Metrics) {
	for _, c := range inst.clients {
		total = total.Add(c.sess.Metrics())
	}
	if inst.site != nil {
		site = inst.site.Metrics()
		total = total.Add(site)
	}
	return total, site
}

func cpuSeconds() (sec float64, maxRSSKiB int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), int64(ru.Maxrss)
}

// stolenSeconds reads the CPU time the hypervisor has taken from this
// machine so far, summed over its CPUs (the steal column of /proc/stat,
// in 1/100 s). It is 0 where the kernel does not report it.
func stolenSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseFloat(f[8], 64)
	if err != nil {
		return 0
	}
	return ticks / 100
}

func gcCPU() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 || s[1].Value.Kind() != metrics.KindFloat64 {
		return 0, 0
	}
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// runPass executes the scripts once: the warm-up untimed, then the
// measured lists. When the instance is traced, spans are recorded for
// the measured part only.
func (inst *instance) runPass(ctx context.Context, scripts []script) *pass {
	lists := allOps(scripts)
	recs := make([]*recorder, len(lists))
	for i := range recs {
		recs[i] = &recorder{}
	}
	before, err := inst.rowsBefore(lists)
	if err != nil {
		recs[0].fail(fmt.Errorf("dump of the primary before the run: %w", err))
	}
	inst.phase(ctx, scripts, true, recs)
	for i, r := range recs {
		// A failure during warm-up still fails the run; nothing else of
		// the warm-up is kept.
		recs[i] = &recorder{failed: r.failed, firstErr: r.firstErr}
	}
	// Collect the garbage of set-up and warm-up now, so that every run
	// enters the measured phase at the same point of the collector's cycle.
	runtime.GC()
	var m0, m1 runtime.MemStats
	traffic0, site0 := inst.traffic()
	gc0, total0 := gcCPU()
	cpu0, _ := cpuSeconds()
	runtime.ReadMemStats(&m0)
	if inst.tr != nil {
		inst.tr.record(true)
	}
	inst.phase(ctx, scripts, false, recs)
	if inst.tr != nil {
		inst.tr.record(false)
	}
	runtime.ReadMemStats(&m1)
	cpu1, rss := cpuSeconds()
	gc1, total1 := gcCPU()
	traffic1, site1 := inst.traffic()

	p := &pass{
		traffic:     traffic1.Sub(traffic0),
		siteTraffic: site1.Sub(site0),
		mallocs:     m1.Mallocs - m0.Mallocs,
		allocBytes:  m1.TotalAlloc - m0.TotalAlloc,
		gcCycles:    m1.NumGC - m0.NumGC,
		gcPauseNs:   m1.PauseTotalNs - m0.PauseTotalNs,
		cpuSec:      cpu1 - cpu0,
		peakRSSKiB:  rss,
	}
	if total1 > total0 {
		p.gcCPUShare = (gc1 - gc0) / (total1 - total0)
	}
	for _, r := range recs {
		p.merge(r)
	}
	if c := inst.clients[0].sess.Cache(); c != nil {
		p.cacheLen, p.cacheCap = c.Len(), c.Cap()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.heapLive = m1.HeapAlloc

	for _, err := range inst.checkEndState(ctx, lists, before) {
		p.fail(err)
	}
	return p
}
