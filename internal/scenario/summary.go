package scenario

import (
	"repro/internal/core"
	"repro/internal/report"
)

// Summarize renders the full report.Summary for a finished run: the
// network's own summary (network.Network.Summary, the one place a summary
// is assembled) plus the measured-window link energy and normalised power,
// which only the system's warm-up bracket knows.
func Summarize(name string, sys *core.System, res core.Result) report.Summary {
	sum := sys.Net.Summary(name)
	sum.EnergyJ = res.EnergyJ
	sum.NormPower = res.NormPower
	return sum
}
