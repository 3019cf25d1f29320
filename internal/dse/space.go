// Package dse is the design-space-exploration subsystem: the automated,
// multi-objective version of the paper's hand swept Tw/N/TH/TL/ladder
// exploration. A Space declares search dimensions over scenario knobs; a
// Sampler (grid, seeded random, successive halving, TPE-style model) turns
// the space into a deterministic stream of trial proposals; a Study
// materializes each proposal as a concrete scenario, has an Evaluator run
// it to a report.Summary, logs every completed trial to a resumable
// append-only JSONL file, and extracts the Pareto frontier over (mean
// packet latency, link energy, delivered-loss fraction).
//
// dse is a sim-core package for optolint purposes: sampler randomness must
// flow through sim.NewStream (StreamDSE), no map iteration may order any
// output, and the whole search is a deterministic function of (space,
// sampler, seed) — the property that makes study files resumable and CI
// frontier goldens diffable.
package dse

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/report"
	"repro/internal/scenario"
)

// Dim is one search dimension over a scenario knob. Numeric dims span
// [Min, Max] (Step > 0 defines the grid lattice; Log samples in log space;
// Int rounds to integers). Categorical dims enumerate Choices and leave
// the numeric fields zero; a point stores the choice's index.
type Dim struct {
	Name    string   `json:"name"`
	Min     float64  `json:"min,omitempty"`
	Max     float64  `json:"max,omitempty"`
	Step    float64  `json:"step,omitempty"`
	Log     bool     `json:"log,omitempty"`
	Int     bool     `json:"int,omitempty"`
	Choices []string `json:"choices,omitempty"`
}

// Categorical reports whether the dim enumerates labels.
func (d Dim) Categorical() bool { return len(d.Choices) > 0 }

// Space is a search space: a base scenario every trial starts from, the
// study seed feeding the sampler stream, and the dimensions to search.
type Space struct {
	Base scenario.Scenario `json:"base"`
	Seed uint64            `json:"seed"`
	Dims []Dim             `json:"dims"`
}

// Point is one concrete assignment, aligned with Space.Dims: numeric dims
// hold the knob value, categorical dims hold the choice index.
type Point []float64

// Load parses a space from JSON, rejecting unknown fields so a typo in a
// dim name or knob fails loudly.
func Load(r io.Reader) (*Space, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sp Space
	if err := dec.Decode(&sp); err != nil {
		return nil, fmt.Errorf("dse: %w", err)
	}
	return &sp, nil
}

// LoadFile loads a space from a file path.
func LoadFile(path string) (*Space, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// knob binds a dim name to the scenario field it drives. Numeric knobs get
// apply; categorical knobs get applyLabel. The registry is a sorted slice,
// looked up by binary search, so no map order can leak anywhere.
type knob struct {
	name        string
	categorical bool
	apply       func(*scenario.Scenario, float64)
	applyLabel  func(*scenario.Scenario, string)
}

// knobs is the registry of searchable scenario knobs, sorted by name.
// Zero is never a meaningful search value for the numeric knobs here (the
// scenario layer treats zero as "use the default"), so dims must keep
// Min > 0.
var knobs = func() []knob {
	ks := []knob{
		// The paper's Section 4 space.
		{name: "window", apply: func(s *scenario.Scenario, v float64) { s.System.Window = int64(v) }},
		{name: "sliding_n", apply: func(s *scenario.Scenario, v float64) { s.System.SlidingN = int(v) }},
		{name: "avg_threshold", apply: func(s *scenario.Scenario, v float64) { s.System.AvgThreshold = v }},
		{name: "min_rate_gbps", apply: func(s *scenario.Scenario, v float64) { s.System.MinRateGbps = v }},
		{name: "max_rate_gbps", apply: func(s *scenario.Scenario, v float64) { s.System.MaxRateGbps = v }},
		{name: "levels", apply: func(s *scenario.Scenario, v float64) { s.System.Levels = int(v) }},
		{name: "tbr", apply: func(s *scenario.Scenario, v float64) { s.System.TbrCycles = int64(v) }},
		{name: "tv", apply: func(s *scenario.Scenario, v float64) { s.System.TvCycles = int64(v) }},
		// Workload intensity.
		{name: "rate", apply: func(s *scenario.Scenario, v float64) { s.Workload.Rate = v }},
		// Adaptive-policy family knobs (PR 8's hand-tuned defaults).
		{name: "max_ber", apply: func(s *scenario.Scenario, v float64) { s.Policy.MaxBER = v }},
		{name: "loss_high", apply: func(s *scenario.Scenario, v float64) { s.Policy.LossHigh = v }},
		{name: "loss_low", apply: func(s *scenario.Scenario, v float64) { s.Policy.LossLow = v }},
		{name: "storm_relocks", apply: func(s *scenario.Scenario, v float64) { s.Policy.StormRelocks = int64(v) }},
		{name: "safe_level", apply: func(s *scenario.Scenario, v float64) { s.Policy.SafeLevel = int(v) }},
		{name: "hold_cycles", apply: func(s *scenario.Scenario, v float64) { s.Policy.HoldCycles = int64(v) }},
		{name: "recover_windows", apply: func(s *scenario.Scenario, v float64) { s.Policy.RecoverWindows = int(v) }},
		{name: "setpoint", apply: func(s *scenario.Scenario, v float64) { s.Policy.Setpoint = v }},
		{name: "kp", apply: func(s *scenario.Scenario, v float64) { s.Policy.Kp = v }},
		{name: "ki", apply: func(s *scenario.Scenario, v float64) { s.Policy.Ki = v }},
		{name: "kd", apply: func(s *scenario.Scenario, v float64) { s.Policy.Kd = v }},
		{name: "integral_clamp", apply: func(s *scenario.Scenario, v float64) { s.Policy.IntegralClamp = v }},
		{name: "step_threshold", apply: func(s *scenario.Scenario, v float64) { s.Policy.StepThreshold = v }},
		// Fault intensity.
		{name: "ber_scale", apply: func(s *scenario.Scenario, v float64) { s.Fault.BERScale = v }},
		{name: "ber_floor", apply: func(s *scenario.Scenario, v float64) { s.Fault.BERFloor = v }},
		{name: "relock_fail_prob", apply: func(s *scenario.Scenario, v float64) { s.Fault.RelockFailProb = v }},
		{name: "extra_path_loss_db", apply: func(s *scenario.Scenario, v float64) { s.Fault.ExtraPathLossDB = v }},
		// Categorical knobs.
		{name: "policy_kind", categorical: true, applyLabel: func(s *scenario.Scenario, l string) { s.Policy.Kind = l }},
		{name: "routing", categorical: true, applyLabel: func(s *scenario.Scenario, l string) { s.System.Routing = l }},
		{name: "predictor", categorical: true, applyLabel: func(s *scenario.Scenario, l string) { s.System.Predictor = l }},
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i].name < ks[j].name })
	return ks
}()

// knobByName resolves a dim name against the registry.
func knobByName(name string) (knob, bool) {
	i := sort.Search(len(knobs), func(i int) bool { return knobs[i].name >= name })
	if i < len(knobs) && knobs[i].name == name {
		return knobs[i], true
	}
	return knob{}, false
}

// KnobNames lists every searchable knob, sorted — for error messages and
// the CLI help text.
func KnobNames() []string {
	names := make([]string, len(knobs))
	for i, k := range knobs {
		names[i] = k.name
	}
	return names
}

// Validate checks the space upfront — base scenario, dim registry
// membership, bounds — and materializes every dim extreme (and every
// categorical choice) against the base, so a malformed space fails before
// any trial subprocess spawns.
func (sp *Space) Validate() error {
	if err := sp.Base.Validate(); err != nil {
		return fmt.Errorf("dse: base scenario: %w", err)
	}
	if len(sp.Dims) == 0 {
		return fmt.Errorf("dse: space has no dims")
	}
	seen := make(map[string]bool, len(sp.Dims))
	probe := make(Point, len(sp.Dims))
	for _, d := range sp.Dims {
		k, ok := knobByName(d.Name)
		if !ok {
			return fmt.Errorf("dse: dim %q is not a searchable knob (known: %s)",
				d.Name, strings.Join(KnobNames(), ", "))
		}
		if seen[d.Name] {
			return fmt.Errorf("dse: dim %q declared twice", d.Name)
		}
		seen[d.Name] = true
		if k.categorical != d.Categorical() {
			if k.categorical {
				return fmt.Errorf("dse: dim %q is categorical; declare choices, not min/max", d.Name)
			}
			return fmt.Errorf("dse: dim %q is numeric; declare min/max, not choices", d.Name)
		}
		if d.Categorical() {
			if d.Min != 0 || d.Max != 0 || d.Step != 0 || d.Log || d.Int {
				return fmt.Errorf("dse: categorical dim %q mixes numeric fields", d.Name)
			}
			continue
		}
		if !(d.Min < d.Max) {
			return fmt.Errorf("dse: dim %q needs min < max (got %g, %g)", d.Name, d.Min, d.Max)
		}
		if d.Min <= 0 {
			// Zero means "scenario default", so it can never be a trial value.
			return fmt.Errorf("dse: dim %q needs min > 0 (zero selects the scenario default)", d.Name)
		}
		if d.Step < 0 {
			return fmt.Errorf("dse: dim %q has negative step", d.Name)
		}
		if d.Step > 0 && d.Step > d.Max-d.Min {
			return fmt.Errorf("dse: dim %q step %g exceeds its range", d.Name, d.Step)
		}
	}
	// Probe each dim's extremes (and each choice) one at a time against
	// the base: cheap, and catches e.g. a ladder min above the base max.
	for i := range probe {
		probe[i] = sp.dimDefault(i)
	}
	for i, d := range sp.Dims {
		extremes := []float64{d.Min, d.Max}
		if d.Categorical() {
			extremes = extremes[:0]
			for c := range d.Choices {
				extremes = append(extremes, float64(c))
			}
		}
		for _, v := range extremes {
			p := append(Point(nil), probe...)
			p[i] = v
			if _, err := sp.Materialize(p, 1); err != nil {
				return fmt.Errorf("dse: dim %q value %g does not materialize: %w", d.Name, v, err)
			}
		}
	}
	return nil
}

// dimDefault is the probe value used for the other dims while validating
// one dim's extremes: the grid's first lattice point (or first choice).
func (sp *Space) dimDefault(i int) float64 {
	d := sp.Dims[i]
	if d.Categorical() {
		return 0
	}
	return d.Min
}

// Clamp snaps v into dim i's domain: numeric values clamp to [Min, Max]
// (integers round first), categorical indices clamp to the choice range.
func (sp *Space) Clamp(i int, v float64) float64 {
	d := sp.Dims[i]
	if d.Categorical() {
		v = math.Round(v)
		return math.Min(math.Max(v, 0), float64(len(d.Choices)-1))
	}
	if d.Int {
		v = math.Round(v)
	}
	return math.Min(math.Max(v, d.Min), d.Max)
}

// GridValues enumerates dim i's lattice: Min, Min+Step, ... ≤ Max for
// numeric dims (endpoints only when Step is 0), every index for
// categorical dims.
func (sp *Space) GridValues(i int) []float64 {
	d := sp.Dims[i]
	if d.Categorical() {
		vs := make([]float64, len(d.Choices))
		for c := range d.Choices {
			vs[c] = float64(c)
		}
		return vs
	}
	if d.Step <= 0 {
		return []float64{d.Min, d.Max}
	}
	var vs []float64
	// The half-step epsilon absorbs float accumulation so Max itself is
	// always on the lattice when (Max-Min) is a multiple of Step.
	for k := 0; ; k++ {
		v := d.Min + float64(k)*d.Step
		if math.Abs(v-d.Max) <= d.Step*1e-9 {
			v = d.Max // snap an accumulated near-miss onto the endpoint
		}
		if v > d.Max+d.Step/2 {
			break
		}
		vs = append(vs, math.Min(v, d.Max))
	}
	return vs
}

// GridSize is the exhaustive-grid trial count.
func (sp *Space) GridSize() int {
	n := 1
	for i := range sp.Dims {
		n *= len(sp.GridValues(i))
	}
	return n
}

// Materialize turns a point into a runnable scenario: a deep copy of the
// base with every dim's knob applied and the measure window scaled by
// scale (successive halving's short-run rungs use scale < 1). The result
// is validated, so a malformed combination surfaces as an error, not a
// crashed worker.
func (sp *Space) Materialize(p Point, scale float64) (*scenario.Scenario, error) {
	if len(p) != len(sp.Dims) {
		return nil, fmt.Errorf("dse: point has %d coords for %d dims", len(p), len(sp.Dims))
	}
	// Deep copy via JSON: the scenario holds slices and pointers, and a
	// trial must never mutate the shared base.
	raw, err := json.Marshal(sp.Base)
	if err != nil {
		return nil, err
	}
	var sc scenario.Scenario
	if err := json.Unmarshal(raw, &sc); err != nil {
		return nil, err
	}
	for i, d := range sp.Dims {
		k, ok := knobByName(d.Name)
		if !ok {
			return nil, fmt.Errorf("dse: unknown dim %q", d.Name)
		}
		v := sp.Clamp(i, p[i])
		if d.Categorical() {
			k.applyLabel(&sc, d.Choices[int(v)])
		} else {
			k.apply(&sc, v)
		}
	}
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("dse: trial scale %g outside (0, 1]", scale)
	}
	if scale < 1 {
		_, measure := sc.Run.Window()
		scaled := int64(math.Round(float64(measure) * scale))
		if scaled < 1 {
			scaled = 1
		}
		sc.Run.Measure = scaled
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// ParamsFor renders a point as the self-describing params echo carried by
// trial summaries and the study log.
func (sp *Space) ParamsFor(p Point) report.Params {
	var pr report.Params
	for i, d := range sp.Dims {
		v := sp.Clamp(i, p[i])
		if d.Categorical() {
			if pr.Labels == nil {
				pr.Labels = make(map[string]string, len(sp.Dims))
			}
			pr.Labels[d.Name] = d.Choices[int(v)]
			continue
		}
		if pr.Values == nil {
			pr.Values = make(map[string]float64, len(sp.Dims))
		}
		pr.Values[d.Name] = v
	}
	return pr
}

// Key is the canonical identity of a (point, scale) pair, used to match
// logged trials against replayed proposals on resume. Coordinates are
// clamped first, so two proposals that materialize identically share a key.
func (sp *Space) Key(p Point, scale float64) string {
	var b strings.Builder
	for i := range p {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.FormatFloat(sp.Clamp(i, p[i]), 'g', -1, 64))
	}
	b.WriteByte('@')
	b.WriteString(strconv.FormatFloat(scale, 'g', -1, 64))
	return b.String()
}
