package report

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Params echoes the resolved knob values a run was configured with, so a
// summary — and any design-space-exploration study log built from
// summaries — is self-describing without the scenario file that produced
// it. Numeric knobs (window, thresholds, gains, ladder rates) go in
// Values; categorical knobs (policy kind, routing) go in Labels. Both maps
// marshal with sorted keys, so the JSON form is deterministic.
type Params struct {
	Values map[string]float64 `json:"values,omitempty"`
	Labels map[string]string  `json:"labels,omitempty"`
}

// Summary is a machine-readable digest of one experiment run: the headline
// performance numbers plus, when the run exercised the fault or recovery
// layers, their counter blocks. It is what `optosim -json` emits.
//
// network.Network.Summary fills it: it renders every network-derived
// field and block, and scenario.Summarize adds the measured-window EnergyJ
// and NormPower for core.System runs. Harnesses set Params, or name a
// window's energy, on that output rather than assembling a Summary by
// hand.
type Summary struct {
	Experiment  string  `json:"experiment"`
	Seed        uint64  `json:"seed"`
	MeanLatency float64 `json:"mean_latency_cycles,omitempty"`
	NormPower   float64 `json:"norm_power,omitempty"`
	// EnergyJ is the absolute link energy over the measured window — the
	// quantity NormPower normalises, carried raw so multi-objective
	// studies can minimise it directly.
	EnergyJ   float64 `json:"energy_j,omitempty"`
	Delivered int64   `json:"delivered,omitempty"`
	Dropped   int64   `json:"dropped,omitempty"`
	// DeliveredFlits counts ejected flits — the flit-level denominator for
	// delivered-loss fractions that fold in wire-level (per-flit) losses.
	DeliveredFlits int64 `json:"delivered_flits,omitempty"`

	// Params echoes the resolved knob values the run was configured with
	// (nil outside parameterised runs such as DSE trials).
	Params *Params `json:"params,omitempty"`

	// LevelHistogram is the end-of-run count of links at each electrical
	// bit-rate level (index = level), and OffLinks the count switched off —
	// the machine-readable form of Network.LevelHistogram.
	LevelHistogram []int64 `json:"level_histogram,omitempty"`
	OffLinks       int     `json:"off_links,omitempty"`
	// TimeAtLevel is the fraction of link-time spent at each electrical
	// level over the whole run (sums to <= 1; the remainder is off-time).
	TimeAtLevel []float64 `json:"time_at_level,omitempty"`

	// Reliability carries the fault-injection / retransmission counters
	// (nil when the run had no fault layer).
	Reliability *stats.Reliability `json:"reliability,omitempty"`
	// Recovery carries the fault-aware routing and stall-watchdog counters
	// (nil when the run had no recovery subsystem).
	Recovery *stats.Recovery `json:"recovery,omitempty"`
	// Policy carries the adaptive-policy counters and, when a regret
	// oracle was computed, the energy bound and regret (nil when the run
	// had no policy controllers).
	Policy *stats.Policy `json:"policy,omitempty"`
	// Telemetry carries the telemetry digest (nil when telemetry was
	// disabled for the run).
	Telemetry *telemetry.Digest `json:"telemetry,omitempty"`
}

// JSON renders the summary as indented JSON.
func (s Summary) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// ParseSummary is the inverse of JSON. Unknown fields are rejected so a
// schema drift between writer and reader fails loudly instead of silently
// dropping counters.
func ParseSummary(b []byte) (Summary, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var s Summary
	if err := dec.Decode(&s); err != nil {
		return Summary{}, fmt.Errorf("report: parsing summary: %w", err)
	}
	return s, nil
}

// WriteSummaries renders a JSON array of summaries to w.
func WriteSummaries(w io.Writer, sums []Summary) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sums)
}

// ParseSummaries is the inverse of WriteSummaries.
func ParseSummaries(b []byte) ([]Summary, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var sums []Summary
	if err := dec.Decode(&sums); err != nil {
		return nil, fmt.Errorf("report: parsing summaries: %w", err)
	}
	return sums, nil
}
