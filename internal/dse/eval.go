package dse

import (
	"repro/internal/report"
	"repro/internal/scenario"
)

// ExecuteTrial runs one materialized trial to completion and renders its
// summary through Scenario.RunSummary, the run the optorun worker uses
// too, so an in-process trial and a subprocess trial of the same point
// produce byte-identical summaries. The trial's params echo is stamped
// into the summary so a result file is self-describing.
func ExecuteTrial(p *Pending) (report.Summary, error) {
	sum, err := p.Scenario.RunSummary(TrialName(p.ID), scenario.Checkpoints{})
	if err != nil {
		return report.Summary{}, err
	}
	params := p.Params
	sum.Params = &params
	return sum, nil
}

// Sequential is the in-process evaluator: trials run one after another on
// the calling goroutine. It is the reference EvalFunc — the parallel
// subprocess fleet in cmd/optodse must be indistinguishable from it.
func Sequential(pending []Pending, record RecordFunc) {
	for i := range pending {
		sum, err := ExecuteTrial(&pending[i])
		record(pending[i].ID, sum, err)
	}
}
