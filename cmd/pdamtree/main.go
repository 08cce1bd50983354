// Command pdamtree reproduces the paper's §8 experiment (Lemma 13): the
// query throughput of three static search-tree designs on the abstract PDAM
// device as the number of concurrent clients k varies from 1 to P. One-block
// nodes waste parallelism at small k; whole PB-node fetches waste bandwidth
// at large k; PB-nodes in a van Emde Boas layout track the best design at
// every k.
//
// It then re-runs the experiment with DYNAMIC dictionaries — the repo's
// real B-tree and Bε-tree querying through the storage engine's shared
// pager, each client a simulated process with its own timeline — showing
// the same Lemma 13 throughput shape on structures that also support
// inserts, and reporting the buffer pool's hit ratios per round.
//
// With -serving it also runs E20: the same effect through the full network
// stack — real TCP clients against internal/server's read scheduler,
// P-slot vs the DAM-style one-slot scheduler, plus the group-commit table.
//
// With -mvcc it runs E22: snapshot point-read latency under saturating
// write pressure, pinned LSN snapshots vs the shared-world-view read path.
//
// With -mqserving it runs E23: the multi-queue device — the queue-count /
// depth calibration sweep, the DAM vs PDAM-global vs topology-global vs
// queue-aware-lanes serving comparison, the live four-model residual table,
// and the write-queue isolation round.
//
// Usage:
//
//	pdamtree [-items N] [-p P] [-queries Q] [-dynitems N] [-cache BYTES]
//	         [-serving] [-mvcc] [-mqserving]
package main

import (
	"flag"
	"fmt"

	"iomodels/internal/experiments"
	"iomodels/internal/obs"
)

func main() {
	items := flag.Int("items", 1<<20, "keys in the static trees")
	p := flag.Int("p", 16, "PDAM device parallelism")
	queries := flag.Int("queries", 200, "queries per client")
	dynItems := flag.Int64("dynitems", 120_000, "keys in the dynamic trees")
	cache := flag.Int64("cache", 1<<20, "engine cache budget for the dynamic trees")
	serving := flag.Bool("serving", false, "also run E20 (Lemma 13 through the TCP server)")
	mvcc := flag.Bool("mvcc", false, "also run E22 (snapshot reads under write pressure)")
	mqserving := flag.Bool("mqserving", false, "also run E23 (the multi-queue device and queue-aware lanes)")
	flag.Parse()

	clients := func(p int) []int {
		var ks []int
		for k := 1; k <= p; k *= 2 {
			ks = append(ks, k)
		}
		return ks
	}

	cfg := experiments.DefaultLemma13Config()
	cfg.Items = *items
	cfg.P = *p
	cfg.QueriesPerClient = *queries
	cfg.Clients = clients(cfg.P)
	fmt.Println(experiments.RenderLemma13(experiments.Lemma13(cfg)))

	dcfg := experiments.DefaultLemma13DynamicConfig()
	dcfg.Items = *dynItems
	dcfg.P = *p
	dcfg.CacheBytes = *cache
	dcfg.QueriesPerClient = *queries
	dcfg.Clients = clients(dcfg.P)
	fmt.Println(experiments.RenderLemma13Dynamic(experiments.Lemma13Dynamic(dcfg)))

	if *serving {
		scfg := experiments.DefaultServingConfig()
		scfg.P = *p
		scfg.Clients = clients(scfg.P)
		rows, commits, err := experiments.Serving(scfg)
		if err != nil {
			panic(err)
		}
		fmt.Println(experiments.RenderServing(rows))
		fmt.Println(experiments.RenderServingCommit(commits))
	}

	if *mvcc {
		mcfg := experiments.DefaultMVCCServeConfig()
		mcfg.P = *p
		rows, err := experiments.MVCCServe(mcfg)
		if err != nil {
			panic(err)
		}
		fmt.Println(experiments.RenderMVCCServe(rows))
	}

	if *mqserving {
		qcfg := experiments.DefaultMQServingConfig()
		fmt.Println(experiments.RenderMQCalibration(experiments.MQCalibration(qcfg)))
		rows, err := experiments.MQServing(qcfg)
		if err != nil {
			panic(err)
		}
		fmt.Println(experiments.RenderMQServing(rows))
		sum, err := experiments.MQResiduals(qcfg)
		if err != nil {
			panic(err)
		}
		fmt.Print(obs.RenderResiduals(sum))
		fmt.Println()
		fmt.Println(experiments.RenderMQIsolation(experiments.MQWriteIsolation(qcfg)))
	}
}
