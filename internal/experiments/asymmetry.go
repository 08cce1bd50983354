// E17 (§3 read/write asymmetry): "with some storage technologies (e.g.,
// NVMe) writes are more expensive than reads, and this has algorithmic
// consequences" — the motivation the paper gives for tracking write
// amplification separately. This experiment repeats the Figure 1
// methodology with writes and derives the write-side PDAM parameters: flash
// programs are slower than reads, so the write saturation bandwidth ∝PB_w
// sits well below the read side's while the parallelism structure stays.

package experiments

import (
	"iomodels/internal/ssd"
	"iomodels/internal/storage"
)

// AsymmetryRow contrasts one device's read and write PDAM parameters.
type AsymmetryRow struct {
	Device       string
	ReadSatMBps  float64
	WriteSatMBps float64
	Ratio        float64 // read/write saturation
	ReadP        float64
	WriteP       float64
}

// Asymmetry runs the thread-scaling experiment in both directions.
func Asymmetry(cfg PDAMConfig) ([]AsymmetryRow, error) {
	readSeries := Figure1(cfg)
	readRows, err := Table1(readSeries, cfg)
	if err != nil {
		return nil, err
	}
	var out []AsymmetryRow
	for i, prof := range ssd.Profiles() {
		ws := threadSeries(prof, cfg, storage.Write, 7777777)
		wrow, err := Table1([]Figure1Series{ws}, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AsymmetryRow{
			Device:       prof.Name,
			ReadSatMBps:  readRows[i].SatMBps,
			WriteSatMBps: wrow[0].SatMBps,
			Ratio:        readRows[i].SatMBps / wrow[0].SatMBps,
			ReadP:        readRows[i].P,
			WriteP:       wrow[0].P,
		})
	}
	return out, nil
}

// RenderAsymmetry formats E17.
func RenderAsymmetry(rows []AsymmetryRow) string {
	return renderRows("E17 (§3 asymmetry): flash programs are slower than reads; PB_write ≪ PB_read", rows, []column[AsymmetryRow]{
		{"Device", func(r AsymmetryRow) string { return r.Device }},
		{"read ∝PB (MB/s)", func(r AsymmetryRow) string { return fmt0(r.ReadSatMBps) }},
		{"write ∝PB (MB/s)", func(r AsymmetryRow) string { return fmt0(r.WriteSatMBps) }},
		{"ratio", func(r AsymmetryRow) string { return f2(r.Ratio) }},
		{"read P", func(r AsymmetryRow) string { return f2(r.ReadP) }},
		{"write P", func(r AsymmetryRow) string { return f2(r.WriteP) }},
	})
}
