package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"time"

	"pdmtune"
	"pdmtune/internal/costmodel"
	"pdmtune/internal/minisql"
)

// Correctness checks that look at the database as a whole, beside the
// per-action checks in run.go. All expectations come from the generator's
// ground truth and the op lists, never from the system under test.

// hasWrites reports whether any client's list modifies the database.
func hasWrites(lists [][]op) bool {
	for _, ops := range lists {
		for _, o := range ops {
			if o.Kind.isWrite() {
				return true
			}
		}
	}
	return false
}

// objectRow is the mutable part of one assy/comp row.
type objectRow struct {
	state      string
	weight     float64
	checkedOut bool
	by         string
}

// dump reads the mutable columns of every object row straight from a
// database, bypassing the wire.
func dump(db *minisql.DB) (map[int64]objectRow, error) {
	rows := map[int64]objectRow{}
	s := db.NewSession()
	for _, table := range []string{"assy", "comp"} {
		res, err := s.Query("SELECT obid, state, weight, checkedout, checkedout_by FROM " + table)
		if err != nil {
			return nil, err
		}
		for _, r := range res.Rows {
			w, _ := r[2].AsFloat()
			by := ""
			if !r[4].IsNull() {
				by = r[4].Text()
			}
			rows[r[0].Int()] = objectRow{state: r[1].Text(), weight: w, checkedOut: r[3].Bool(), by: by}
		}
	}
	return rows, nil
}

// rowsBefore snapshots the primary's rows before a pass that writes, so
// the end-state check knows every row's starting point. Read-only op
// lists skip it (and the end-state check) altogether.
func (inst *instance) rowsBefore(lists [][]op) (map[int64]objectRow, error) {
	if !hasWrites(lists) {
		return nil, nil
	}
	return dump(inst.sys.DB)
}

// checkEndState verifies the database after a pass that wrote: the
// primary equals a serial replay of the scripted writes applied to the
// starting rows (every row has one writer, so either client order gives
// the same result), no object is left checked out, and the replica
// equals the primary on every row it holds after a final sync.
func (inst *instance) checkEndState(ctx context.Context, lists [][]op, before map[int64]objectRow) []error {
	if before == nil {
		return nil
	}
	var errs []error
	if inst.holder != nil {
		if _, err := inst.holder.CheckIn(ctx, inst.held); err != nil {
			errs = append(errs, fmt.Errorf("final check-in of the held subtree: %w", err))
		}
	}
	// The model replay.
	expected := before
	for _, ops := range lists {
		for _, o := range ops {
			switch o.Kind {
			case opUpdate:
				r := expected[o.Target]
				r.weight = o.Weight
				expected[o.Target] = r
			case opECO:
				for id := o.Target; id != 0; id = inst.truth.prod.Nodes[id].Parent {
					r := expected[id]
					r.state = o.State
					expected[id] = r
				}
			}
		}
	}
	for id, r := range expected {
		// Whatever was checked out at the start (the held subtree) has
		// been checked in by now.
		r.checkedOut, r.by = false, ""
		expected[id] = r
	}
	got, err := dump(inst.sys.DB)
	if err != nil {
		return append(errs, fmt.Errorf("dump of the primary: %w", err))
	}
	errs = append(errs, diffRows("primary vs serial replay", got, expected, true)...)
	if inst.site != nil {
		if _, err := inst.cluster.SyncSite(ctx, replicaSite); err != nil {
			return append(errs, fmt.Errorf("final sync: %w", err))
		}
		held, err := dump(inst.site.DB())
		if err != nil {
			return append(errs, fmt.Errorf("dump of the replica: %w", err))
		}
		if len(held) == 0 {
			errs = append(errs, fmt.Errorf("replica %s holds no rows", replicaSite))
		}
		errs = append(errs, diffRows("replica vs primary", held, got, false)...)
	}
	return errs
}

// diffRows reports the first few rows of got that differ from want;
// with both set, rows of want missing from got count too.
func diffRows(what string, got, want map[int64]objectRow, both bool) []error {
	var ids []int64
	for id, g := range got {
		if w, ok := want[id]; !ok || g != w {
			ids = append(ids, id)
		}
	}
	if both {
		for id := range want {
			if _, ok := got[id]; !ok {
				ids = append(ids, id)
			}
		}
	}
	if len(ids) == 0 {
		return nil
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	id := ids[0]
	return []error{fmt.Errorf("%s: %d rows differ, first obid %d: got %+v, want %+v", what, len(ids), id, got[id], want[id])}
}

// treeDigest fingerprints a reassembled tree: every node with its parent,
// in id order.
func treeDigest(t *pdmtune.Tree) string {
	var ids []int64
	for id := range t.Index {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	h := sha256.New()
	for _, id := range ids {
		n := t.Index[id]
		if n == t.Root {
			// The root is "already at the client": the navigational
			// strategies look up its type and fetch nothing else of it.
			fmt.Fprintf(h, "%d %s;", n.ObID, n.Type)
			continue
		}
		fmt.Fprintf(h, "%d<%d %s %s;", n.ObID, n.Parent, n.Type, n.Name)
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// crossCheck expands a sample of roots under the session configurations
// of all four workloads, in-process, and requires identical trees of the
// size the ground truth predicts: the paper's claim is that the
// configurations differ only in what the tree costs. It runs once per
// instance, at set-up, untimed.
func (inst *instance) crossCheck(ctx context.Context) error {
	t := inst.truth
	var roots []int64
	for _, l := range []int{2, 4, t.depth() - 1} {
		if ids := t.visibleAssemblies(l, l, nil); len(ids) > 0 {
			roots = append(roots, ids[0][len(ids[0])/2])
		}
	}
	digests := make([]string, len(roots))
	for _, w := range workloads {
		sess, err := inst.sys.Open(inst.sessionOptions(w)...)
		if err != nil {
			return fmt.Errorf("cross-check: open as %s: %w", w.Name, err)
		}
		for i, root := range roots {
			res, err := sess.MultiLevelExpand(ctx, root)
			if err != nil {
				return fmt.Errorf("cross-check: MLE %d as %s: %w", root, w.Name, err)
			}
			if err := want("cross-check as "+w.Name+": visible", res.Visible, t.visSub[root]); err != nil {
				return err
			}
			d := treeDigest(res.Tree)
			if digests[i] == "" {
				digests[i] = d
			} else if digests[i] != d {
				return fmt.Errorf("cross-check: tree of %d configured as %s has digest %s, as %s it was %s",
					root, w.Name, d, workloads[0].Name, digests[i])
			}
		}
		if err := sess.Close(); err != nil {
			return fmt.Errorf("cross-check: close: %w", err)
		}
	}
	return nil
}

// fidelityRow is ROADMAP's three-column row for one action: what
// costmodel predicted, what netsim charged, and the wall time measured.
type fidelityRow struct {
	action               string
	predicted, simulated float64 // seconds
	wallMs               float64
}

func (f fidelityRow) errPct() float64 {
	if f.simulated == 0 {
		return 0
	}
	return 100 * math.Abs(f.predicted-f.simulated) / f.simulated
}

// fidelity runs the full-root MLE, the root Expand and Query under the
// workload's configuration and sets the model's prediction beside the
// simulator's charge. On replica-write the "root" is the subscribed
// subtree's, which is the largest tree the replica can serve locally.
func (inst *instance) fidelity(ctx context.Context) ([]fidelityRow, error) {
	cfg := inst.truth.prod.Config
	tree := costmodel.Tree{Depth: cfg.Depth, Branch: cfg.Branch, Sigma: cfg.Sigma}
	root := inst.truth.prod.RootID
	var sess *pdmtune.Session
	var err error
	if inst.site != nil {
		tree.Depth--
		root, _, _, _ = replicaSubtrees(inst.truth)
		sess, err = inst.cluster.OpenAt(ctx, replicaSite, inst.sessionOptions(inst.w)...)
	} else {
		sess, err = inst.sys.Open(inst.sessionOptions(inst.w)...)
	}
	if err != nil {
		return nil, fmt.Errorf("fidelity: open: %w", err)
	}
	defer sess.Close()
	model := costmodel.Model{Tree: tree,
		Net: costmodel.Network{Name: "intercontinental", PacketBytes: 4096, LatencySec: 0.15, RateKbps: 256}}
	var rows []fidelityRow
	for _, a := range []struct {
		name   string
		action costmodel.Action
		target int64
	}{{"mle", costmodel.MLE, root}, {"expand", costmodel.Expand, root}, {"query", costmodel.Query, cfg.ProdID}} {
		start := time.Now()
		res, err := sess.Run(ctx, a.action, a.target)
		if err != nil {
			return nil, fmt.Errorf("fidelity: %s: %w", a.name, err)
		}
		rows = append(rows, fidelityRow{
			action:    a.name,
			predicted: inst.w.Predict(model, a.action).TotalSec,
			simulated: res.Metrics.TotalSec(),
			wallMs:    float64(time.Since(start).Nanoseconds()) / 1e6,
		})
	}
	return rows, nil
}
