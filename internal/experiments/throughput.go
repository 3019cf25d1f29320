package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/report"
)

// ThroughputResult is one system's saturation throughput under the paper's
// definition: the injection rate at which average latency exceeds twice
// the zero-load latency (Section 4.1).
type ThroughputResult struct {
	Config          string
	ZeroLoadLatency float64
	// SaturationRate is the highest swept injection rate whose measured
	// latency stays below 2× zero-load, refined by bisection to Resolution.
	SaturationRate float64
}

// throughputResolution is the bisection stopping width in packets/cycle.
const throughputResolution = 0.125

// Throughput measures the formal saturation throughput of the four Fig. 5g
// systems by bisecting the injection-rate axis against the 2× zero-load
// criterion.
func Throughput(s Scale) ([]ThroughputResult, error) {
	if err := s.checkPolicy(); err != nil {
		return nil, err
	}
	configs := Fig5GConfigs()
	out := make([]ThroughputResult, len(configs))
	errs := make([]error, len(configs))
	forEach(len(configs), func(i int) {
		out[i], errs[i] = throughputOf(s, configs[i])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

func throughputOf(s Scale, c Fig5GConfig) (ThroughputResult, error) {
	cfg := c.Make(s)
	zero, err := core.ZeroLoadLatency(cfg, s.PacketFlits)
	if err != nil {
		return ThroughputResult{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	limit := 2 * zero
	below := func(rate float64) (bool, error) {
		r, err := core.Run(cfg, s.uniformAt(cfg, rate), s.Warmup, s.Measure)
		if err != nil {
			return false, err
		}
		if r.Packets == 0 {
			return false, nil
		}
		return r.MeanLatencyCycles < limit, nil
	}
	lo, hi := 0.25, 8.0
	ok, err := below(lo)
	if err != nil {
		return ThroughputResult{}, err
	}
	if !ok {
		return ThroughputResult{Config: c.Name, ZeroLoadLatency: zero, SaturationRate: 0}, nil
	}
	for hi-lo > throughputResolution {
		mid := (lo + hi) / 2
		ok, err := below(mid)
		if err != nil {
			return ThroughputResult{}, err
		}
		if ok {
			lo = mid
		} else {
			hi = mid
		}
	}
	return ThroughputResult{Config: c.Name, ZeroLoadLatency: zero, SaturationRate: lo}, nil
}

// ThroughputReport renders the saturation table.
func ThroughputReport(rs []ThroughputResult) *report.Table {
	t := report.NewTable("Saturation throughput (latency > 2x zero-load; Section 4.1 definition)",
		"config", "zero-load latency (cyc)", "throughput (pkt/cyc)")
	for _, r := range rs {
		t.AddRowf(r.Config, r.ZeroLoadLatency, r.SaturationRate)
	}
	return t
}
