// Package scenario loads user-authored JSON descriptions of a system and
// workload, turning them into runnable simulations — the front door for
// users who want to explore configurations beyond the paper's experiments
// without writing Go.
//
// A scenario file has three sections:
//
//	{
//	  "system": {
//	    "meshW": 8, "meshH": 8, "nodesPerRack": 8,
//	    "scheme": "vcsel",
//	    "minRateGbps": 5, "maxRateGbps": 10, "levels": 6,
//	    "powerAware": true,
//	    "window": 1000, "slidingN": 4, "avgThreshold": 0.5
//	  },
//	  "workload": { "type": "uniform", "rate": 2.0, "packetFlits": 5 },
//	  "run": { "warmup": 10000, "measure": 100000 }
//	}
//
// Every field has a sensible default (the paper's configuration); an empty
// scenario {} runs the paper's system under light uniform traffic.
package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/linkmodel"
	"repro/internal/network"
	"repro/internal/policy"
	"repro/internal/powerlink"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// System is the JSON-facing system description.
type System struct {
	MeshW        int     `json:"meshW"`
	MeshH        int     `json:"meshH"`
	NodesPerRack int     `json:"nodesPerRack"`
	VCs          int     `json:"vcs"`
	BufDepth     int     `json:"bufDepth"`
	Routing      string  `json:"routing"` // "xy" (default), "yx" or "westfirst"
	Scheme       string  `json:"scheme"`  // "vcsel" (default) or "modulator"
	MinRateGbps  float64 `json:"minRateGbps"`
	MaxRateGbps  float64 `json:"maxRateGbps"`
	Levels       int     `json:"levels"`
	TbrCycles    int64   `json:"tbr"`
	TvCycles     int64   `json:"tv"`
	// PowerAware defaults to true; use a pointer so `false` is expressible.
	PowerAware *bool `json:"powerAware"`
	// NodeLinksPowerAware defaults to true.
	NodeLinksPowerAware *bool `json:"nodeLinksPowerAware"`
	// OpticalLevels enables the paper's three optical power levels
	// (modulator scheme only).
	OpticalLevels bool `json:"opticalLevels"`

	Window       int64   `json:"window"`
	SlidingN     int     `json:"slidingN"`
	AvgThreshold float64 `json:"avgThreshold"` // 0 = Table 1 defaults
	Predictor    string  `json:"predictor"`    // "sliding" (default) or "ewma"
	EWMAAlpha    float64 `json:"ewmaAlpha"`

	// Shards is the parallel-simulation shard count (0/1 = sequential;
	// otherwise must divide MeshW). Output is byte-identical either way.
	Shards int `json:"shards"`

	Seed uint64 `json:"seed"`
}

// Fault is the JSON-facing fault-injection description. The zero value
// injects nothing; enabling any class also wires the link-level
// retransmission protocol (at its defaults).
type Fault struct {
	// BERScale multiplies each link's margin-derived bit error rate.
	BERScale float64 `json:"berScale"`
	// BERFloor is a minimum per-bit error rate on every link.
	BERFloor float64 `json:"berFloor"`
	// RelockFailProb is the CDR relock failure probability on rate switches.
	RelockFailProb float64 `json:"relockFailProb"`
	// ExtraPathLossDB erodes every link's optical margin so the
	// margin-derived BER becomes rate-dependent (higher levels visibly
	// lossier) instead of vanishing under the default ~23 dB of slack.
	// Meaningful together with BERScale.
	ExtraPathLossDB float64 `json:"extraPathLossDB"`
	// LinkFailures schedules hard failure/repair windows.
	LinkFailures []LinkFailure `json:"linkFailures"`
	// Recovery enables fault-aware routing, the escape network, and the
	// stall watchdog (at their defaults).
	Recovery bool `json:"recovery"`
}

// LinkFailure is one scheduled hard link failure window.
type LinkFailure struct {
	Link     int   `json:"link"`
	At       int64 `json:"at"`
	RepairAt int64 `json:"repairAt"`
}

// Workload is the JSON-facing workload description.
type Workload struct {
	// Type: "uniform" (default), "hotspot", "splash", or "trace".
	Type string `json:"type"`
	// Rate is the network-wide injection rate in packets/cycle (uniform).
	Rate        float64 `json:"rate"`
	PacketFlits int     `json:"packetFlits"`

	// Hotspot fields.
	Phases    []Phase `json:"phases"`
	HotNode   int     `json:"hotNode"`
	HotWeight float64 `json:"hotWeight"`

	// Splash fields.
	Bench string `json:"bench"` // fft, lu, radix

	// Trace playback.
	TraceFile string `json:"traceFile"`
}

// Phase is one hotspot schedule segment.
type Phase struct {
	Until int64   `json:"until"`
	Rate  float64 `json:"rate"`
}

// Run controls the measurement protocol.
type Run struct {
	Warmup  int64 `json:"warmup"`
	Measure int64 `json:"measure"`
	// Series switches to time-series mode with the given bucket.
	Series bool  `json:"series"`
	Bucket int64 `json:"bucket"`
}

// Window resolves the warmup and measure windows. Zero warmup is
// meaningful (time-series runs keep the transient), so only the measure
// window has a default, 100 000 cycles.
func (r Run) Window() (warmup, measure sim.Cycle) {
	return sim.Cycle(r.Warmup), sim.Cycle(defaulted(r.Measure, 100_000))
}

// Policy is the JSON-facing adaptive-policy description. The zero value
// keeps the history-window DVS controller with the system section's
// window/threshold knobs, exactly as before the section existed.
type Policy struct {
	// Kind: "dvs" (default), "rules", or "pid". The oracle-replay kind
	// needs a recorded schedule and is only reachable programmatically.
	Kind string `json:"kind"`
	// MaxBER enables the reliability guard (and the rule engine's
	// projected-BER rule) when positive.
	MaxBER float64 `json:"maxBER"`

	// Rule-engine knobs (kind "rules"); zero values take the defaults.
	LossHigh       float64 `json:"lossHigh"`
	LossLow        float64 `json:"lossLow"`
	StormRelocks   int64   `json:"stormRelocks"`
	SafeLevel      int     `json:"safeLevel"`
	HoldCycles     int64   `json:"holdCycles"`
	RecoverWindows int     `json:"recoverWindows"`

	// PID knobs (kind "pid"); zero values take the defaults.
	Setpoint      float64 `json:"setpoint"`
	Kp            float64 `json:"kp"`
	Ki            float64 `json:"ki"`
	Kd            float64 `json:"kd"`
	IntegralClamp float64 `json:"integralClamp"`
	StepThreshold float64 `json:"stepThreshold"`
}

// Scenario is a complete scenario file.
type Scenario struct {
	System   System   `json:"system"`
	Workload Workload `json:"workload"`
	Fault    Fault    `json:"fault"`
	Policy   Policy   `json:"policy"`
	Run      Run      `json:"run"`
}

// Load parses a scenario from JSON, rejecting unknown fields so typos
// surface instead of silently running the defaults.
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Scenario
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return &s, nil
}

// LoadFile loads a scenario from a file path.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func defaulted[T comparable](v, def T) T {
	var zero T
	if v == zero {
		return def
	}
	return v
}

// NetworkConfig resolves the system section to a network.Config.
func (s *Scenario) NetworkConfig() (network.Config, error) {
	cfg := network.DefaultConfig()
	sys := s.System
	cfg.MeshW = defaulted(sys.MeshW, cfg.MeshW)
	cfg.MeshH = defaulted(sys.MeshH, cfg.MeshH)
	cfg.NodesPerRack = defaulted(sys.NodesPerRack, cfg.NodesPerRack)
	cfg.VCs = defaulted(sys.VCs, cfg.VCs)
	cfg.BufDepth = defaulted(sys.BufDepth, cfg.BufDepth)
	cfg.Seed = defaulted(sys.Seed, cfg.Seed)

	switch sys.Routing {
	case "", "xy":
		cfg.Routing = network.RoutingXY
	case "yx":
		cfg.Routing = network.RoutingYX
	case "westfirst":
		cfg.Routing = network.RoutingWestFirst
	default:
		return cfg, fmt.Errorf("scenario: unknown routing %q", sys.Routing)
	}

	switch sys.Scheme {
	case "", "vcsel":
		cfg.Link.Scheme = linkmodel.SchemeVCSEL
	case "modulator":
		cfg.Link.Scheme = linkmodel.SchemeModulator
	default:
		return cfg, fmt.Errorf("scenario: unknown scheme %q", sys.Scheme)
	}

	min := defaulted(sys.MinRateGbps, 5.0)
	max := defaulted(sys.MaxRateGbps, 10.0)
	levels := defaulted(sys.Levels, 6)
	if levels == 1 {
		cfg.Link.LevelRates = []float64{max}
	} else {
		if min >= max {
			return cfg, fmt.Errorf("scenario: minRateGbps %g must be below maxRateGbps %g", min, max)
		}
		cfg.Link.LevelRates = powerlink.Levels(min, max, levels)
	}
	cfg.Link.Tbr = sim.Cycle(defaulted(sys.TbrCycles, 20))
	cfg.Link.Tv = sim.Cycle(defaulted(sys.TvCycles, 100))

	if sys.PowerAware != nil {
		cfg.PowerAware = *sys.PowerAware
	}
	if sys.NodeLinksPowerAware != nil {
		cfg.NodeLinksPowerAware = *sys.NodeLinksPowerAware
	}
	if sys.OpticalLevels {
		if cfg.Link.Scheme != linkmodel.SchemeModulator {
			return cfg, fmt.Errorf("scenario: opticalLevels requires the modulator scheme")
		}
		opt := powerlink.PaperOpticalLevels(cfg.Link.Params.ModInputOpticalW)
		cfg.Link.Optical = &opt
		cfg.Policy.LaserEpoch = sim.CyclesFromMicros(200)
	}

	cfg.Policy.Window = sim.Cycle(defaulted(sys.Window, 1000))
	cfg.Policy.SlidingN = defaulted(sys.SlidingN, cfg.Policy.SlidingN)
	if sys.AvgThreshold != 0 {
		cfg.Policy.Thresholds = policy.ThresholdsAround(sys.AvgThreshold)
	}
	switch sys.Predictor {
	case "", "sliding":
		cfg.Policy.Predictor = policy.PredictSlidingAvg
	case "ewma":
		cfg.Policy.Predictor = policy.PredictEWMA
		cfg.Policy.EWMAAlpha = defaulted(sys.EWMAAlpha, 0.5)
	default:
		return cfg, fmt.Errorf("scenario: unknown predictor %q", sys.Predictor)
	}

	pol := s.Policy
	kind, err := policy.ParseKind(pol.Kind)
	if err != nil {
		return cfg, err
	}
	cfg.Policy.Kind = kind
	cfg.Policy.MaxBER = pol.MaxBER
	if kind == policy.KindRules {
		rc := policy.DefaultRulesConfig()
		rc.LossHigh = defaulted(pol.LossHigh, rc.LossHigh)
		rc.LossLow = defaulted(pol.LossLow, rc.LossLow)
		rc.StormRelocks = defaulted(pol.StormRelocks, rc.StormRelocks)
		rc.SafeLevel = defaulted(pol.SafeLevel, rc.SafeLevel)
		rc.HoldCycles = sim.Cycle(defaulted(pol.HoldCycles, int64(rc.HoldCycles)))
		rc.RecoverWindows = defaulted(pol.RecoverWindows, rc.RecoverWindows)
		cfg.Policy.Rules = rc
	}
	if kind == policy.KindPID {
		pc := policy.DefaultPIDConfig()
		pc.Setpoint = defaulted(pol.Setpoint, pc.Setpoint)
		pc.Kp = defaulted(pol.Kp, pc.Kp)
		pc.Ki = defaulted(pol.Ki, pc.Ki)
		pc.Kd = defaulted(pol.Kd, pc.Kd)
		pc.IntegralClamp = defaulted(pol.IntegralClamp, pc.IntegralClamp)
		pc.StepThreshold = defaulted(pol.StepThreshold, pc.StepThreshold)
		cfg.Policy.PID = pc
	}

	cfg.Shards = sys.Shards
	ft := s.Fault
	if ft.ExtraPathLossDB < 0 {
		return cfg, fmt.Errorf("scenario: negative extraPathLossDB %g", ft.ExtraPathLossDB)
	}
	cfg.Link.PathLossDB += ft.ExtraPathLossDB
	cfg.Fault.BERScale = ft.BERScale
	cfg.Fault.BERFloor = ft.BERFloor
	cfg.Fault.RelockFailProb = ft.RelockFailProb
	for _, lf := range ft.LinkFailures {
		cfg.Fault.LinkFailures = append(cfg.Fault.LinkFailures, fault.LinkFailure{
			Link: lf.Link, At: sim.Cycle(lf.At), RepairAt: sim.Cycle(lf.RepairAt),
		})
	}
	if ft.Recovery {
		cfg.Recovery = network.RecoveryConfig{Enabled: true}
	}
	return cfg, cfg.Validate()
}

// Validate resolves every section of the scenario — system, workload,
// fault, policy, run — without building a network, so a malformed file
// fails upfront (before a supervisor or search fleet spawns any worker
// subprocess) instead of surfacing from inside a crashed worker.
func (s *Scenario) Validate() error {
	cfg, err := s.NetworkConfig()
	if err != nil {
		return err
	}
	if _, err := s.Generator(cfg); err != nil {
		return err
	}
	if s.Run.Warmup < 0 || s.Run.Measure < 0 {
		return fmt.Errorf("scenario: negative run window (warmup %d, measure %d)", s.Run.Warmup, s.Run.Measure)
	}
	if s.Run.Series && s.Run.Bucket < 0 {
		return fmt.Errorf("scenario: negative series bucket %d", s.Run.Bucket)
	}
	return nil
}

// NewSystem resolves the scenario into a runnable system plus its warmup
// and measure windows — the building blocks Execute assembles, exposed so a
// checkpointing supervisor can drive the run in resumable slices.
func (s *Scenario) NewSystem() (*core.System, sim.Cycle, sim.Cycle, error) {
	cfg, err := s.NetworkConfig()
	if err != nil {
		return nil, 0, 0, err
	}
	gen, err := s.Generator(cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	sys, err := core.NewSystem(cfg, gen)
	if err != nil {
		return nil, 0, 0, err
	}
	warmup, measure := s.Run.Window()
	return sys, warmup, measure, nil
}

// Generator resolves the workload section against the system config.
func (s *Scenario) Generator(cfg network.Config) (traffic.Generator, error) {
	w := s.Workload
	size := defaulted(w.PacketFlits, 5)
	switch w.Type {
	case "", "uniform":
		rate := w.Rate
		if rate == 0 {
			rate = 0.004 * float64(cfg.Nodes()) // light default (~2 pkt/cyc at 512 nodes)
		}
		return traffic.NewUniform(cfg.Nodes(), rate, size), nil
	case "hotspot":
		if len(w.Phases) == 0 {
			return nil, fmt.Errorf("scenario: hotspot workload needs phases")
		}
		sched := make(traffic.Schedule, len(w.Phases))
		for i, p := range w.Phases {
			sched[i] = traffic.Phase{Until: sim.Cycle(p.Until), NetworkRate: p.Rate}
		}
		if err := sched.Validate(); err != nil {
			return nil, err
		}
		return &traffic.Hotspot{
			Nodes:     cfg.Nodes(),
			Phases:    sched,
			HotNode:   w.HotNode,
			HotWeight: defaulted(w.HotWeight, 4),
			Size:      size,
		}, nil
	case "splash":
		for _, b := range trace.Benchmarks() {
			if b.String() == w.Bench {
				warmup, measure := s.Run.Window()
				return trace.Generator(b, cfg.Nodes(), warmup+measure), nil
			}
		}
		return nil, fmt.Errorf("scenario: unknown splash bench %q", w.Bench)
	case "trace":
		f, err := os.Open(w.TraceFile)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		recs, err := trace.Read(f)
		if err != nil {
			return nil, err
		}
		return trace.NewPlayback(recs, cfg.Nodes())
	default:
		return nil, fmt.Errorf("scenario: unknown workload type %q", w.Type)
	}
}

// Execute runs the scenario and returns the result (plus a time series in
// series mode).
func (s *Scenario) Execute() (core.Result, *core.TimeSeries, error) {
	cfg, err := s.NetworkConfig()
	if err != nil {
		return core.Result{}, nil, err
	}
	gen, err := s.Generator(cfg)
	if err != nil {
		return core.Result{}, nil, err
	}
	if s.Run.Series {
		total, bucket, err := s.Run.seriesSpan()
		if err != nil {
			return core.Result{}, nil, err
		}
		r, ts, err := core.RunSeries(cfg, gen, total, bucket)
		return r, &ts, err
	}
	warmup, measure := s.Run.Window()
	r, err := core.Run(cfg, gen, warmup, measure)
	return r, nil, err
}
