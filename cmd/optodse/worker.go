package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/atomicio"
	"repro/internal/dse"
	"repro/internal/fleet"
	"repro/internal/report"
)

// killTokenEnv names a file that arms a deterministic self-SIGKILL for the
// resume-test harness: if the file exists when the driver starts, it is
// consumed (deleted) and the driver kills itself — mid-study, with the
// trial log already holding the completed trials — after that many fresh
// trials finish. The rerun never sees the token, so it resumes clean.
const killTokenEnv = "OPTODSE_TEST_KILL_TOKEN"

type killArm struct {
	after int // fresh-trial count that triggers the kill; -1 = disarmed
}

func newKillArm() *killArm {
	k := &killArm{after: -1}
	if token := os.Getenv(killTokenEnv); token != "" {
		if b, err := os.ReadFile(token); err == nil {
			os.Remove(token)
			if n, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil {
				k.after = n
			}
		}
	}
	return k
}

func (k *killArm) maybeKill(fresh int) {
	if k.after >= 0 && fresh >= k.after {
		p, _ := os.FindProcess(os.Getpid())
		p.Kill()
		select {} // unreachable: SIGKILL is not handleable
	}
}

// pointCSV round-trips a point through the worker command line losslessly
// ('g'/-1 is the shortest representation that parses back bit-identical).
func pointCSV(p dse.Point) string {
	parts := make([]string, len(p))
	for i, v := range p {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return strings.Join(parts, ",")
}

func parsePointCSV(s string) (dse.Point, error) {
	if s == "" {
		return nil, fmt.Errorf("empty point")
	}
	parts := strings.Split(s, ",")
	p := make(dse.Point, len(parts))
	for i, part := range parts {
		v, err := strconv.ParseFloat(part, 64)
		if err != nil {
			return nil, fmt.Errorf("point coordinate %d: %w", i, err)
		}
		p[i] = v
	}
	return p, nil
}

// runTrialWorker is the -worker mode: materialize one trial from the space
// and run it to completion, publishing the summary atomically so its
// existence alone proves the trial finished.
func runTrialWorker(sp *dse.Space, id int, scale float64, pointStr, outPath string) error {
	point, err := parsePointCSV(pointStr)
	if err != nil {
		return err
	}
	sc, err := sp.Materialize(point, scale)
	if err != nil {
		return err
	}
	pend := dse.Pending{ID: id, Point: point, Scale: scale, Params: sp.ParamsFor(point), Scenario: sc}
	sum, err := dse.ExecuteTrial(&pend)
	if err != nil {
		return err
	}
	js, err := sum.JSON()
	if err != nil {
		return err
	}
	return atomicio.WriteFile(outPath, append(js, '\n'), 0o644)
}

type fleetOptions struct {
	SpacePath string
	OutDir    string
	Workers   int
	Retries   int
	Timeout   time.Duration
	Backoff   time.Duration
}

// fleetEval builds the parallel evaluator: each pending trial runs in its
// own optodse -worker subprocess under fleet.Run's bounded pool, with
// crash retries and a per-trial deadline. Results are reported through the
// serialized onDone callback, so each trial's line is appended to the study
// log and fsynced before the next is recorded, never two at once — and the
// outcome is indistinguishable from dse.Sequential.
func fleetEval(opt fleetOptions) (dse.EvalFunc, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trialDir := filepath.Join(opt.OutDir, "trials")
	if err := os.MkdirAll(trialDir, 0o755); err != nil {
		return nil, err
	}
	return func(pending []dse.Pending, record dse.RecordFunc) {
		outPath := func(p dse.Pending) string {
			return filepath.Join(trialDir, dse.TrialName(p.ID)+".summary.json")
		}
		fleet.Run(fleet.Config{
			Workers: opt.Workers,
			Retries: opt.Retries,
			Timeout: opt.Timeout,
			Backoff: opt.Backoff,
		}, len(pending), func(i, attempt int) error {
			p := pending[i]
			return fleet.Attempt(opt.Timeout, []string{self,
				"-worker",
				"-space", opt.SpacePath,
				"-id", strconv.Itoa(p.ID),
				"-scale", strconv.FormatFloat(p.Scale, 'g', -1, 64),
				"-point", pointCSV(p.Point),
				"-out-summary", outPath(p),
			}, filepath.Join(trialDir, dse.TrialName(p.ID)+".log"))
		}, func(i int, jobErr error) {
			p := pending[i]
			if jobErr != nil {
				record(p.ID, report.Summary{}, jobErr)
				return
			}
			b, err := os.ReadFile(outPath(p))
			if err != nil {
				record(p.ID, report.Summary{}, err)
				return
			}
			var sum report.Summary
			if err := json.Unmarshal(b, &sum); err != nil {
				record(p.ID, report.Summary{}, fmt.Errorf("trial %d summary is corrupt: %w", p.ID, err))
				return
			}
			record(p.ID, sum, nil)
		})
	}, nil
}
