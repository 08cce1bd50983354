// KVStore bakeoff: the four dictionary families the paper discusses —
// B-tree (BerkeleyDB-style), Bε-tree (TokuDB-style, Theorem 9 organization),
// cache-oblivious B-tree, and leveled LSM-tree (LevelDB-style) — run the
// same mixed workload on identical simulated hardware, all driven through
// the one engine.Tree interface. Reported: virtual time per operation
// by phase, write amplification, and the buffer pool's hit ratio.
//
// The outcome mirrors §3/§5/§6: the write-optimized structures ingest orders
// of magnitude faster, the B-tree's queries are good but its write
// amplification is Θ(node size), and the Bε-tree holds queries near the
// B-tree's while keeping inserts near the LSM's.
package main

import (
	"fmt"

	"iomodels"
	"iomodels/internal/workload"
)

type candidate struct {
	name string
	make func(eng *iomodels.Engine) iomodels.Tree
}

func main() {
	spec := workload.DefaultSpec()
	const items = 150_000
	const cacheBytes = 4 << 20

	candidates := []candidate{
		{
			name: "B-tree (64KiB nodes)",
			make: func(eng *iomodels.Engine) iomodels.Tree {
				t, err := iomodels.NewBTree(iomodels.BTreeConfig{
					NodeBytes: 64 << 10, MaxKeyBytes: spec.KeyBytes,
					MaxValueBytes: spec.ValueBytes,
				}, eng)
				must(err)
				return t
			},
		},
		{
			name: "Bε-tree (1MiB nodes, F=16)",
			make: func(eng *iomodels.Engine) iomodels.Tree {
				t, err := iomodels.NewBeTree(iomodels.BeTreeConfig{
					NodeBytes: 1 << 20, MaxFanout: 16, MaxKeyBytes: spec.KeyBytes,
					MaxValueBytes: spec.ValueBytes,
				}.Optimized(), eng)
				must(err)
				return t
			},
		},
		{
			name: "cache-oblivious B-tree",
			make: func(eng *iomodels.Engine) iomodels.Tree {
				t, err := iomodels.NewCOBTree(iomodels.COBTreeConfig{
					MaxKeyBytes: spec.KeyBytes, MaxValueBytes: spec.ValueBytes,
					BlockBytes: 4 << 10,
				}, eng)
				must(err)
				return t
			},
		},
		{
			name: "LSM-tree (2MiB SSTables)",
			make: func(eng *iomodels.Engine) iomodels.Tree {
				t, err := iomodels.NewLSMTree(iomodels.LSMConfig{
					MemtableBytes: cacheBytes / 4, SSTableBytes: 2 << 20,
					GrowthFactor: 10, Level0Runs: 4, BlockBytes: 4 << 10,
				}, eng)
				must(err)
				return t
			},
		},
	}

	fmt.Printf("Workload: load %d pairs, then 300 point queries, then 20 scans of 500\n", items)
	fmt.Printf("%-28s %12s %12s %12s %10s %8s\n",
		"store", "load ms/op", "query ms/op", "scan ms/op", "write amp", "hit%")
	for _, c := range candidates {
		clk := iomodels.NewClock()
		prof := iomodels.HDDProfiles()[2]
		disk := iomodels.NewHDD(prof, 99, clk)
		eng := iomodels.NewEngine(iomodels.EngineConfig{CacheBytes: cacheBytes}, disk)
		d := c.make(eng)

		start := clk.Now()
		workload.Load(d, spec, items)
		d.Flush()
		loadMs := (clk.Now() - start).Milliseconds() / float64(items)

		start = clk.Now()
		const queries = 300
		for i := 0; i < queries; i++ {
			id := uint64(i*2654435761) % items
			if _, ok := d.Get(spec.Key(id)); !ok {
				panic("lost a key: " + c.name)
			}
		}
		queryMs := (clk.Now() - start).Milliseconds() / queries

		start = clk.Now()
		const scans, scanLen = 20, 500
		for i := 0; i < scans; i++ {
			id := uint64(i*7919) % items
			count := 0
			d.Scan(spec.Key(id), nil, func(k, v []byte) bool {
				count++
				return count < scanLen
			})
		}
		scanMs := (clk.Now() - start).Milliseconds() / scans

		st := d.Stats()
		fmt.Printf("%-28s %12.3f %12.2f %12.2f %9.1fx %7.1f\n",
			c.name, loadMs, queryMs, scanMs,
			float64(st.IO.BytesWritten)/float64(st.LogicalBytes),
			100*st.Pager.HitRatio())
	}
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
