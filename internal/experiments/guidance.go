// M1: the paper's math as a calculator. For every Table 2 drive, the design
// guidance the affine cost model derives — the half-bandwidth point
// (Corollary 6), the B-tree node-size optimum (Corollary 7), the optimized
// Bε-tree geometry (Corollary 12) — and per-operation costs and write
// amplification at one configuration; then the multi-queue prediction gap
// (E23) as closed-form arithmetic, with no simulation.

package experiments

import (
	"fmt"

	"iomodels/internal/core"
	"iomodels/internal/hdd"
)

// The configuration M1's cost columns are evaluated at.
const (
	guideEntry  = 124     // key-value pair bytes
	guidePivot  = 28      // pivot bytes
	guideNode   = 1 << 20 // node bytes
	guideFanout = 16
	guideItems  = 1e8        // N
	guideCache  = 4096 << 20 // M
)

// guideMQ is the multi-queue reference geometry of M1's prediction table.
var guideMQ = core.MQ{Queues: 4, PerQueueP: 8, QueueDepth: 4, Beta: 0.125, BlockBytes: 4096, StepSeconds: 0.001}

// RenderGuidance renders M1: the per-drive guidance and cost tables and the
// multi-queue prediction table.
func RenderGuidance() string {
	a := affineOf
	optB := func(p hdd.Profile) float64 { return core.OptimalBTreeNodeBytes(a(p), guideEntry) }
	bp := core.BTreeParams{NodeBytes: guideNode, EntryBytes: guideEntry, Items: guideItems, CacheBytes: guideCache}
	ep := core.BeTreeParams{
		NodeBytes: guideNode, EntryBytes: guideEntry, PivotBytes: guidePivot,
		Fanout: guideFanout, Items: guideItems, CacheBytes: guideCache, Optimized: true,
	}
	kib := func(v float64) string { return fmt0(v / 1024) }
	disk := column[hdd.Profile]{"Disk", func(p hdd.Profile) string { return fmt.Sprintf("%s (%d)", p.Name, p.Year) }}
	design := renderRows(fmt.Sprintf("M1 (Corollaries 6, 7, 12): node-size guidance per drive, %d B pairs, %d B pivots", guideEntry, guidePivot), hdd.Profiles(), []column[hdd.Profile]{
		disk,
		{"s (s)", func(p hdd.Profile) string { return f4(a(p).Setup) }},
		{"t (s/4K)", func(p hdd.Profile) string { return f6(a(p).PerByte * 4096) }},
		{"α", func(p hdd.Profile) string { return f4(a(p).Alpha(4096)) }},
		{"half-bandwidth KiB", func(p hdd.Profile) string { return kib(a(p).HalfBandwidthBytes()) }},
		{"Cor. 7 B-tree node KiB", func(p hdd.Profile) string { return kib(optB(p)) }},
		{"× below", func(p hdd.Profile) string { return fmt.Sprintf("%.1f", a(p).HalfBandwidthBytes()/optB(p)) }},
		{"Cor. 12 Bε F", func(p hdd.Profile) string {
			f, _ := core.OptimalBeTreeParams(a(p), guideEntry, guidePivot)
			return fmt0(f)
		}},
		{"Cor. 12 Bε node KiB", func(p hdd.Profile) string {
			_, b := core.OptimalBeTreeParams(a(p), guideEntry, guidePivot)
			return kib(b)
		}},
	})
	costs := renderRows(fmt.Sprintf("M1: per-op cost at %s nodes, F=%d, N=%.0g, M=%s", humanBytes(guideNode), guideFanout, guideItems, humanBytes(guideCache)), hdd.Profiles(), []column[hdd.Profile]{
		disk,
		{"B-tree op ms", func(p hdd.Profile) string { return f2(core.BTreePointCost(a(p), bp) * 1000) }},
		{"B-tree WA", func(p hdd.Profile) string { return fmt0(core.BTreeWriteAmp(bp)) }},
		{"Bε query ms", func(p hdd.Profile) string { return f2(core.BeTreePointCost(a(p), ep) * 1000) }},
		{"Bε insert ms", func(p hdd.Profile) string { return f3(core.BeTreeInsertCost(a(p), ep) * 1000) }},
		{"Bε WA", func(p hdd.Profile) string { return fmt0(core.BeTreeWriteAmp(ep)) }},
		{"insert advantage ×", func(p hdd.Profile) string {
			return fmt0(core.BTreePointCost(a(p), bp) / core.BeTreeInsertCost(a(p), ep))
		}},
	})
	return design + "\n" + costs + "\n" + renderMQPrediction(guideMQ, 256)
}

// renderMQPrediction prints the E23 prediction gap as arithmetic: for p
// threads of dependent block IOs on the multi-queue geometry, what each model
// says the round takes. The PDAM reads the raw slot count off the spec sheet
// (Queues·PerQueueP) — a scalar P has no vocabulary for depth caps or
// interference — so between the effective and raw parallelism it
// underpredicts; the DAM overpredicts everywhere past p=1.
func renderMQPrediction(mq core.MQ, ios int) string {
	pd := core.PDAM{P: mq.RawP(), BlockBytes: mq.BlockBytes, StepSeconds: mq.StepSeconds}
	var threads []int
	for p := 1; p <= 2*mq.RawP(); p *= 2 {
		threads = append(threads, p)
	}
	n := float64(ios)
	relErr := func(pred float64, p int) string { m := mq.MQReadSeconds(p, n); return f2(100 * (pred - m) / m) }
	title := fmt.Sprintf("M1 (multi-queue): predicted seconds for p threads × %d dependent block IOs — Q=%d Pq=%d D=%d β=%g step=%gs, raw P %d, effective %d",
		ios, mq.Queues, mq.PerQueueP, mq.QueueDepth, mq.Beta, mq.StepSeconds, mq.RawP(), mq.EffectiveParallelism())
	return renderRows(title, threads, []column[int]{
		{"threads", intStr},
		{"dam", func(p int) string { return f3(pd.DAMReadSeconds(p, n)) }},
		{"pdam", func(p int) string { return f3(pd.PDAMReadSeconds(p, n)) }},
		{"mq", func(p int) string { return f3(mq.MQReadSeconds(p, n)) }},
		{"pdam err%", func(p int) string { return relErr(pd.PDAMReadSeconds(p, n), p) }},
		{"dam err%", func(p int) string { return relErr(pd.DAMReadSeconds(p, n), p) }},
	})
}
