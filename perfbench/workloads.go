package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
)

// The workload inputs. Each is the file a user would hand the program,
// generated from the seed; the program sees only these bytes. NOTES.md
// explains why each workload exists.

// paperUniform is Fig. 5's medium load point on the paper system: uniform
// traffic at 3.3 packets/cycle of 5-flit packets under the DVS policy. It
// is flit-bound and stationary after the warm-up.
var paperUniform = simSpec{
	name: "paper-uniform",
	input: func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{
  "system": {"seed": %d},
  "workload": {"type": "uniform", "rate": 3.3, "packetFlits": 5},
  "run": {"warmup": 20000, "measure": 5000}
}`, seed))
	},
}

// splashRadix is the SPLASH-2 Radix trace under the DVS policy: 48-flit
// packets in 12k-cycle key-exchange storms, every fourth one longer. Each
// repetition is one whole 48k-cycle super-period (after a one-storm
// warm-up), so every repetition runs the same mix of storms and quiet.
var splashRadix = simSpec{
	name: "splash-radix",
	input: func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{
  "system": {"seed": %d},
  "workload": {"type": "splash", "bench": "radix"},
  "run": {"warmup": 12000, "measure": 48000}
}`, seed))
	},
}

// faultsCkpt is the paper system at 1.75 packets/cycle under the
// sustained-BER regime (BER scaled by 1e9 over 23 dB of extra path loss),
// with CDR relock failures, one hard failure and repair of the east link of
// router (3,3) (link 93) inside each repetition, recovery on, the
// loss-aware rule engine with a BER guard, telemetry on, and a rotating
// checkpoint every 1000 simulated cycles. The load is below the 2
// packets/cycle first planned, where the regime is chaotic: over eight
// seeds a repetition's simulated work ranged from 72 to 79 flits/cycle and
// its latency from 130 to 290 cycles. At 1.75 six seeds range from 63.3 to
// 65.3 flits/cycle and still make 1 to 4 level transitions per repetition,
// so relocks fail inside the timed window; at 1.5 they make almost none.
// The 8k-cycle warm-up keeps the start-up transient out of the
// repetitions: at 2 packets/cycle with a 4k warm-up, it ran at under half
// the steady speed.
var faultsCkpt = simSpec{
	name: "faults-ckpt",
	input: func(seed uint64) []byte {
		return []byte(fmt.Sprintf(`{
  "system": {"seed": %d},
  "workload": {"type": "uniform", "rate": 1.75, "packetFlits": 5},
  "fault": {
    "berScale": 1e9, "extraPathLossDB": 23, "relockFailProb": 0.3,
    "linkFailures": [{"link": 93, "at": 9000, "repairAt": 10500}],
    "recovery": true
  },
  "policy": {"kind": "rules", "maxBER": 1e-12},
  "run": {"warmup": 8000, "measure": 4000}
}`, seed))
	},
	telemetry: true,
	ckptEvery: 1000,
}

// dseSpace is a seeded TPE study over avg_threshold x window x policy kind
// on a 4x4-mesh, 4-node-rack system; the seed drives both the trial
// simulations and the sampler. Trials are short (50 + 150 cycles at 0.2
// packets/cycle, 1 to 5 policy windows each) so that per-trial build,
// summary, sampler, study log and frontier take most of a study's time;
// traced, stepping is about 28 % of it (NOTES.md has the split).
func dseSpace(seed uint64) []byte {
	return []byte(fmt.Sprintf(`{
  "base": {
    "system": {"meshW": 4, "meshH": 4, "nodesPerRack": 4, "seed": %d},
    "workload": {"type": "uniform", "rate": 0.2, "packetFlits": 5},
    "run": {"warmup": 50, "measure": 150}
  },
  "seed": %d,
  "dims": [
    {"name": "avg_threshold", "min": 0.35, "max": 0.65},
    {"name": "window", "min": 40, "max": 160, "int": true},
    {"name": "policy_kind", "choices": ["dvs", "rules", "pid"]}
  ]
}`, seed, seed))
}

// golden holds, per workload, the SHA-256 of the summary JSON of one
// repetition at the default seed (for dse-study, of the frontier JSON).
// A simulator-speed change must leave these unchanged.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("perfbench: golden.json: %v", err))
	}
	return m
}()
