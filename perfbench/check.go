package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"incbubbles/internal/approx"
	"incbubbles/internal/bubble"
	"incbubbles/internal/core"
	"incbubbles/internal/dataset"
	"incbubbles/internal/optics"
	"incbubbles/internal/telemetry"
	"incbubbles/internal/vecmath"
	"incbubbles/internal/wal"
)

// finalReads is the quiescent read state captured after the window, for
// comparison with the library oracle.
type finalReads struct {
	plot   plotReply
	ranges []float64
}

// checkOrdinals verifies that the acknowledged batches cover ordinals
// 0..n-1 exactly once, and returns them in ordinal order.
func checkOrdinals(sent []sentBatch) ([]sentBatch, error) {
	out := append([]sentBatch(nil), sent...)
	sort.Slice(out, func(i, j int) bool { return out[i].ordinal < out[j].ordinal })
	for i, b := range out {
		if b.ordinal != i {
			return nil, fmt.Errorf("acknowledged ordinals are not 0..%d: position %d holds %d", len(out)-1, i, b.ordinal)
		}
	}
	return out, nil
}

func coreOptions(w Workload, tenantSeed int64) core.Options {
	return core.Options{NumBubbles: w.Bubbles, UseTriangleInequality: true, Seed: tenantSeed}
}

func bootstrapDB(dim int, pts []vecmath.Point) (*dataset.DB, error) {
	db, err := dataset.New(dim)
	if err != nil {
		return nil, err
	}
	for _, p := range pts {
		if _, err := db.Insert(p, 0); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// oracleBatches regenerates the acknowledged batches, in ordinal order,
// from the seed and the recorded delete IDs, and hands each to fn.
func oracleBatches(seed int64, w Workload, ordered []sentBatch, fn func(sentBatch, dataset.Batch) error) error {
	streams := make([]*insertStream, w.streams())
	for i := range streams {
		streams[i] = newInsertStream(seed, w, i)
	}
	for _, b := range ordered {
		s := streams[b.stream]
		if s.batch > b.index {
			return fmt.Errorf("stream %d replayed out of order: batch %d after %d", b.stream, b.index, s.batch-1)
		}
		for s.batch < b.index {
			s.next()
		}
		if err := fn(b, batchOf(b.dels, s.next())); err != nil {
			return fmt.Errorf("ordinal %d: %w", b.ordinal, err)
		}
	}
	return nil
}

// oracleCheck proves the drained tenant bit-identical to a plain library
// summarizer fed the same batches in the server's ordinal order, and
// the final read replies identical to the library's answers.
func oracleCheck(seed int64, w Workload, tenantSeed int64, boot []vecmath.Point, ordered []sentBatch,
	walDir string, boxes [][2]vecmath.Point, fin finalReads,
) error {
	st, err := wal.Resume(coreOptions(w, tenantSeed), wal.Options{Dir: walDir})
	if err != nil {
		return fmt.Errorf("resume served WAL: %w", err)
	}
	served, err := wal.Fingerprint(st.Summarizer)
	_ = st.Log.Close()
	if err != nil {
		return err
	}
	db, err := bootstrapDB(w.Dim, boot)
	if err != nil {
		return err
	}
	// A depth-0 pipeline gives the plain summarizer the same per-batch
	// reseeding a WAL-backed one uses, and nothing else.
	opts := coreOptions(w, tenantSeed)
	opts.Pipeline = &core.PipelineOptions{}
	sum, err := core.New(db, opts)
	if err != nil {
		return err
	}
	err = oracleBatches(seed, w, ordered, func(b sentBatch, batch dataset.Batch) error {
		applied, err := batch.Apply(db)
		if err != nil {
			return err
		}
		if first := uint64(applied[len(b.dels)].ID); first != b.firstID {
			return fmt.Errorf("server first_id %d, oracle %d", b.firstID, first)
		}
		_, err = sum.ApplyBatch(applied)
		return err
	})
	if err != nil {
		return err
	}
	want, err := wal.Fingerprint(sum)
	if err != nil {
		return err
	}
	if !bytes.Equal(served, want) {
		_ = os.WriteFile(walDir+".served.fp", served, 0o644)
		_ = os.WriteFile(walDir+".oracle.fp", want, 0o644)
		return fmt.Errorf("fingerprint mismatch: served tenant (%d bytes, %d batches) differs from the oracle (%d bytes, %d batches)",
			len(served), st.Batches, len(want), sum.Batches())
	}
	return compareReads(sum.Set(), tenantSeed, boxes, fin)
}

// compareReads checks the final /plot and range-count replies against
// the library run over the oracle's bubble set.
func compareReads(set *bubble.Set, tenantSeed int64, boxes [][2]vecmath.Point, fin finalReads) error {
	space, err := optics.NewBubbleSpace(set)
	if err != nil {
		return err
	}
	res, err := optics.Run(space, optics.Params{Eps: math.Inf(1), MinPts: plotMinPts})
	if err != nil {
		return err
	}
	if len(res.Order) != len(fin.plot.Order) {
		return fmt.Errorf("plot has %d entries, oracle %d", len(fin.plot.Order), len(res.Order))
	}
	for i, e := range res.Order {
		got := fin.plot.Order[i]
		want := plotEntry{Obj: e.Obj, ID: e.ID, Reach: finiteOrNeg1(e.Reach), Core: finiteOrNeg1(e.Core), Weight: e.Weight}
		if got != want {
			return fmt.Errorf("plot entry %d is %+v, oracle %+v", i, got, want)
		}
	}
	for i, b := range boxes[:len(fin.ranges)] {
		est, err := approx.RangeCount(set, approx.Box{Lo: b[0], Hi: b[1]}, rangeSamples, tenantSeed)
		if err != nil {
			return err
		}
		if fin.ranges[i] != est {
			return fmt.Errorf("range count %d is %v, oracle %v", i, fin.ranges[i], est)
		}
	}
	return nil
}

// rangeSamples is bubbled's default per-bubble sampling effort, which the
// benchmark's range-count requests leave unset.
const rangeSamples = 1024

func finiteOrNeg1(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return -1
	}
	return v
}

func tenantWALDir(root string) string { return filepath.Join(root, tenantName, "wal") }

// promHistogram rebuilds one tenant-labelled histogram from a scrape.
func promHistogram(fams map[string]*telemetry.PromFamily, name string) (telemetry.HistogramSnapshot, error) {
	f := fams[telemetry.PromName(name)]
	if f == nil {
		return telemetry.HistogramSnapshot{}, fmt.Errorf("scrape has no %s", name)
	}
	var h telemetry.HistogramSnapshot
	var prev float64
	for _, p := range f.Points {
		if p.Labels["tenant"] != tenantName {
			continue
		}
		switch p.Suffix {
		case "_bucket":
			if p.Labels["le"] != "+Inf" {
				le, err := strconv.ParseFloat(p.Labels["le"], 64)
				if err != nil {
					return h, err
				}
				h.Bounds = append(h.Bounds, le)
			}
			h.Counts = append(h.Counts, uint64(p.Value-prev))
			prev = p.Value
		case "_count":
			h.Count = uint64(p.Value)
		case "_sum":
			h.Sum = p.Value
		}
	}
	if len(h.Counts) != len(h.Bounds)+1 {
		return h, fmt.Errorf("scrape histogram %s is malformed", name)
	}
	return h, nil
}
