package dse

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/report"
)

// BenchmarkStudyRecord measures what the study log costs per trial: each
// iteration records n synthetic trials into a fresh study directory, and
// the result is reported as ns/trial. Every record is on disk before the
// next one starts, so the figure is bound by the disk's fsync latency; it
// should not grow with n.
func BenchmarkStudyRecord(b *testing.B) {
	sp, err := LoadFile(filepath.Join("testdata", "smoke-space.json"))
	if err != nil {
		b.Fatal(err)
	}
	point := Point{0.45, 800}
	params := sp.ParamsFor(point)
	sum := report.Summary{MeanLatency: 31.5, EnergyJ: 2.5e-6, Delivered: 1200, DeliveredFlits: 6000}
	for _, n := range []int{24, 240} {
		b.Run(fmt.Sprintf("trials=%d", n), func(b *testing.B) {
			root := b.TempDir()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(root, strconv.Itoa(i))
				st, err := Open(sp, "grid", Options{}, dir)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for id := 0; id < n; id++ {
					st.recordTrial(Pending{ID: id, Point: point, Scale: 1, Params: params}, sum, nil)
				}
				b.StopTimer()
				if st.persistErr != nil {
					b.Fatal(st.persistErr)
				}
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/trial")
		})
	}
}
