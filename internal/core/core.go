// Package core assembles the paper's contribution into a runnable system:
// a power-aware opto-electronic clustered network (internal/network) driven
// by a workload, with the measurement protocol used throughout the paper's
// evaluation — warm-up exclusion, measured-window latency, and link energy
// normalised against the equivalent non-power-aware network.
package core

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/router"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
)

// Result summarises one simulation run.
type Result struct {
	// MeanLatencyCycles is the mean packet latency (creation of first flit
	// to ejection of last flit, source queueing included) over the
	// measured window.
	MeanLatencyCycles float64
	// MeanHeadLatencyCycles is the mean latency to the ejection of the
	// packet's head flit (excludes body serialisation). The paper defines
	// latency to the tail, but reporting both localises any accounting
	// discrepancy; see EXPERIMENTS.md.
	MeanHeadLatencyCycles float64
	// MaxLatencyCycles is the worst measured packet latency.
	MaxLatencyCycles sim.Cycle
	// P50/P95/P99LatencyCycles are tail quantiles of the measured packet
	// latency (log-bucket estimates, ~9 % resolution).
	P50LatencyCycles float64
	P95LatencyCycles float64
	P99LatencyCycles float64
	// Packets is the number of measured packets.
	Packets int64
	// InjectedPackets / DeliveredPackets are whole-run totals.
	InjectedPackets  int64
	DeliveredPackets int64
	// EnergyJ is the link energy consumed during the measured window.
	EnergyJ float64
	// NormPower is EnergyJ divided by the energy a non-power-aware network
	// (every link at full rate) would burn over the same window.
	NormPower float64
	// FabricNormPower is the same ratio restricted to the router-to-router
	// links — the relevant number when node links are pinned at full rate
	// (network.Config.NodeLinksPowerAware = false).
	FabricNormPower float64
	// Duration is the measured window length.
	Duration sim.Cycle
	// AvgThroughputPktsPerCycle is delivered measured packets per cycle.
	AvgThroughputPktsPerCycle float64
}

// System wraps a network with the measurement protocol.
type System struct {
	Net *network.Network
	cfg network.Config
	st  MeterState
}

// NewSystem builds a system from cfg and gen.
func NewSystem(cfg network.Config, gen traffic.Generator) (*System, error) {
	n, err := network.New(cfg, gen)
	if err != nil {
		return nil, err
	}
	return &System{Net: n, cfg: cfg}, nil
}

// MustNewSystem is NewSystem but panics on error.
func MustNewSystem(cfg network.Config, gen traffic.Generator) *System {
	s, err := NewSystem(cfg, gen)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the system configuration.
func (s *System) Config() network.Config { return s.cfg }

// Warmup runs the network for w cycles and then starts measurement:
// latency statistics are restricted to packets created afterwards, and the
// energy meter is zeroed.
func (s *System) Warmup(w sim.Cycle) {
	s.RunTo(w)
	s.debugAudit()
	s.StartMeasure()
}

// StartMeasure begins the measured window at the current cycle, equivalent
// to the tail of Warmup without re-running: it restricts latency statistics
// to later packets and zeroes the energy meter.
func (s *System) StartMeasure() {
	now := s.Net.Now()
	s.Net.SetMeasureFrom(now)
	s.st = MeterState{WarmupEnergy: s.Net.LinkEnergyJ(), WarmupFabricEnergy: s.Net.FabricEnergyJ()}
}

// Measure runs for m further cycles and returns the result.
func (s *System) Measure(m sim.Cycle) Result {
	end := s.Net.MeasureFrom() + m
	s.Net.RunTo(end)
	s.debugAudit()
	return s.resultAt(end)
}

func (s *System) resultAt(end sim.Cycle) Result {
	dur := end - s.Net.MeasureFrom()
	energy := s.Net.LinkEnergyJ() - s.st.WarmupEnergy
	baseline := s.cfg.BaselinePowerW() * dur.Seconds()
	r := Result{
		MeanLatencyCycles:     s.Net.MeanLatency(),
		MeanHeadLatencyCycles: s.Net.MeanHeadLatency(),
		MaxLatencyCycles:      s.Net.MaxLatency(),
		P50LatencyCycles:      s.Net.LatencyQuantile(0.50),
		P95LatencyCycles:      s.Net.LatencyQuantile(0.95),
		P99LatencyCycles:      s.Net.LatencyQuantile(0.99),
		Packets:               s.Net.MeasuredPackets(),
		InjectedPackets:       s.Net.InjectedPackets(),
		DeliveredPackets:      s.Net.DeliveredPackets(),
		EnergyJ:               energy,
		Duration:              dur,
	}
	if baseline > 0 {
		r.NormPower = energy / baseline
	}
	if links := s.cfg.InterRouterLinks(); links > 0 && dur > 0 {
		fabricBaseline := s.cfg.BaselinePowerW() / float64(s.cfg.TotalLinks()) * float64(links) * dur.Seconds()
		r.FabricNormPower = (s.Net.FabricEnergyJ() - s.st.WarmupFabricEnergy) / fabricBaseline
	}
	if dur > 0 {
		r.AvgThroughputPktsPerCycle = float64(r.Packets) / float64(dur)
	}
	return r
}

// Run executes the standard protocol: warm up, then measure.
func Run(cfg network.Config, gen traffic.Generator, warmup, measure sim.Cycle) (Result, error) {
	s, err := NewSystem(cfg, gen)
	if err != nil {
		return Result{}, err
	}
	defer s.Net.Close()
	s.Warmup(warmup)
	return s.Measure(measure), nil
}

// MustRun is Run but panics on error.
func MustRun(cfg network.Config, gen traffic.Generator, warmup, measure sim.Cycle) Result {
	r, err := Run(cfg, gen, warmup, measure)
	if err != nil {
		panic(err)
	}
	return r
}

// TimeSeries holds bucketed traces of a run: what Figs. 6 and 7 plot.
type TimeSeries struct {
	Bucket sim.Cycle
	// InjectionRate is packets/cycle injected network-wide per bucket.
	InjectionRate stats.Series
	// MeanLatency is the mean latency (cycles) of packets *delivered*
	// within each bucket (NaN for empty buckets).
	MeanLatency stats.Series
	// NormPower is the average link power per bucket relative to the
	// non-power-aware baseline.
	NormPower stats.Series
}

// RunSeries runs for total cycles collecting bucketed time series along
// with the aggregate result (measured from cycle 0: time-series runs have
// no warm-up since the transient is part of what Figs. 6-7 show).
func RunSeries(cfg network.Config, gen traffic.Generator, total, bucket sim.Cycle) (Result, TimeSeries, error) {
	if bucket <= 0 || total <= 0 || total%bucket != 0 {
		return Result{}, TimeSeries{}, fmt.Errorf("core: total %d must be a positive multiple of bucket %d", total, bucket)
	}
	s, err := NewSystem(cfg, gen)
	if err != nil {
		return Result{}, TimeSeries{}, err
	}
	defer s.Net.Close()
	lat := stats.NewBucketed(bucket)
	s.Net.OnDeliver = func(now sim.Cycle, p *router.Packet, l sim.Cycle) {
		lat.Add(now, float64(l))
	}
	ts := TimeSeries{Bucket: bucket}
	baselineW := cfg.BaselinePowerW()

	var prevInjected int64
	var prevEnergy float64
	for t := sim.Cycle(0); t < total; t += bucket {
		s.Net.RunTo(t + bucket)
		inj := s.Net.InjectedPackets()
		ts.InjectionRate = append(ts.InjectionRate, stats.Point{
			T: t, V: float64(inj-prevInjected) / float64(bucket),
		})
		prevInjected = inj
		e := s.Net.LinkEnergyJ()
		avgW := (e - prevEnergy) / bucket.Seconds()
		ts.NormPower = append(ts.NormPower, stats.Point{T: t, V: avgW / baselineW})
		prevEnergy = e
	}
	for i := 0; i < lat.Buckets(); i++ {
		ts.MeanLatency = append(ts.MeanLatency, stats.Point{
			T: sim.Cycle(i) * bucket, V: lat.Mean(i),
		})
	}
	return s.resultAt(total), ts, nil
}

// ZeroLoadLatency estimates the network's zero-load latency by running a
// trickle of traffic (the paper's throughput metric is the injection rate
// at which latency exceeds twice this value).
func ZeroLoadLatency(cfg network.Config, size int) (float64, error) {
	gen := traffic.NewUniform(cfg.Nodes(), 0.05, size)
	r, err := Run(cfg, gen, 2_000, 30_000)
	if err != nil {
		return 0, err
	}
	if r.Packets == 0 {
		return 0, fmt.Errorf("core: zero-load probe delivered no packets")
	}
	return r.MeanLatencyCycles, nil
}
