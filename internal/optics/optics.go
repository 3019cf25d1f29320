// Package optics models the optical distribution side of the
// modulator-based system (Section 3.1, Fig. 3): a central mode-locked
// laser whose light is split through a 1:64 rack-level splitter followed by
// 1:20 intra-rack splitters, attenuated per fibre by variable optical
// attenuators (VOAs), modulated, carried over fibre, and detected.
//
// It provides decibel arithmetic, link-budget evaluation (does enough light
// reach each receiver for the target BER at a given bit rate?), a
// Q-factor/BER conversion, and sizing checks for the external laser.
package optics

import (
	"errors"
	"fmt"
	"math"
)

// DB converts a linear power ratio to decibels.
func DB(ratio float64) float64 { return 10 * math.Log10(ratio) }

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }

// DBm converts a power in watts to dBm.
func DBm(watts float64) float64 { return 10 * math.Log10(watts/1e-3) }

// FromDBm converts dBm to watts.
func FromDBm(dbm float64) float64 { return 1e-3 * math.Pow(10, dbm/10) }

// Splitter is a static optical power splitter (e.g. a fused-fiber coupler
// tree). Ways is the fan-out; ExcessLossDB is loss beyond the ideal
// 10·log10(Ways) splitting loss. The paper quotes a maximum total insertion
// loss of 13.6 dB for 1:16 splitting (ideal 12 dB + 1.6 dB excess).
type Splitter struct {
	Ways         int
	ExcessLossDB float64
}

// LossDB returns the splitter's total insertion loss in dB: the ideal
// 1/Ways splitting loss plus excess loss.
func (s Splitter) LossDB() float64 {
	if s.Ways <= 0 {
		return math.Inf(1)
	}
	return DB(float64(s.Ways)) + s.ExcessLossDB
}

// Budget describes a complete optical path from the external laser to one
// receiver in the modulator-based system.
type Budget struct {
	// LaserPowerW is the mode-locked laser's output power (W).
	LaserPowerW float64
	// Splitters is the splitter chain (paper: 1:64 then 1:20).
	Splitters []Splitter
	// AttenuationDB is the VOA setting for this fibre (0 dB = passthrough).
	AttenuationDB float64
	// ModulatorInsertionLossDB is light lost passing the MQW modulator in
	// its "on" state.
	ModulatorInsertionLossDB float64
	// FiberLossDBPerKm and FiberKm model propagation loss (~0.2 dB/km at
	// 1550 nm; intra-machine-room runs are tens of metres).
	FiberLossDBPerKm float64
	FiberKm          float64
	// ConnectorLossDB lumps connector/coupling losses.
	ConnectorLossDB float64
}

// TotalLossDB returns the end-to-end loss of the path in dB.
func (b Budget) TotalLossDB() float64 {
	loss := b.AttenuationDB + b.ModulatorInsertionLossDB +
		b.FiberLossDBPerKm*b.FiberKm + b.ConnectorLossDB
	for _, s := range b.Splitters {
		loss += s.LossDB()
	}
	return loss
}

// ReceivedPowerW returns the optical power (W) arriving at the receiver.
func (b Budget) ReceivedPowerW() float64 {
	return b.LaserPowerW * FromDB(-b.TotalLossDB())
}

// MarginDB returns the link margin in dB against a required receiver
// sensitivity. Negative margin means the link cannot close.
func (b Budget) MarginDB(sensitivityW float64) float64 {
	return DBm(b.ReceivedPowerW()) - DBm(sensitivityW)
}

// Errors returned by Check.
var (
	// ErrBudgetNegative indicates the path delivers less light than the
	// receiver sensitivity requires.
	ErrBudgetNegative = errors.New("optics: link budget does not close")
)

// Check verifies the budget closes with at least marginDB of headroom over
// the sensitivity required at the given bit rate.
func (b Budget) Check(sensitivityW, marginDB float64) error {
	m := b.MarginDB(sensitivityW)
	if m < marginDB {
		return fmt.Errorf("%w: margin %.2f dB < required %.2f dB (received %.2f dBm, sensitivity %.2f dBm)",
			ErrBudgetNegative, m, marginDB, DBm(b.ReceivedPowerW()), DBm(sensitivityW))
	}
	return nil
}

// PaperBudget returns the distribution chain of Fig. 3(b): a central laser
// split 1:64 across racks and 1:20 within each rack, with a modulator of
// the given insertion loss. laserPowerW is the mode-locked laser output.
func PaperBudget(laserPowerW, modulatorILdB float64) Budget {
	return Budget{
		LaserPowerW: laserPowerW,
		Splitters: []Splitter{
			{Ways: 64, ExcessLossDB: 2.0},
			{Ways: 20, ExcessLossDB: 1.5},
		},
		ModulatorInsertionLossDB: modulatorILdB,
		FiberLossDBPerKm:         0.2,
		FiberKm:                  0.05, // machine-room scale
		ConnectorLossDB:          1.0,
	}
}

// QFromBER returns the Q factor needed for a given bit error rate under
// the Gaussian noise approximation BER = 0.5·erfc(Q/√2). The inter-chassis
// target BER of 1e-12 corresponds to Q ≈ 7.03.
func QFromBER(ber float64) float64 {
	// Invert numerically by bisection; BER is monotonically decreasing in Q.
	lo, hi := 0.0, 40.0
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if BERFromQ(mid) > ber {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// BERFromQ returns the bit error rate for a given Q factor:
// BER = 0.5·erfc(Q/√2).
func BERFromQ(q float64) float64 {
	return 0.5 * math.Erfc(q/math.Sqrt2)
}

// RefBER is the inter-chassis target bit error rate that receiver
// sensitivities are specified at (paper: 25 µW at 10 Gb/s for BER 1e-12).
const RefBER = 1e-12

// refQ is the Q factor at RefBER (≈ 7.03), inverted once.
var refQ = QFromBER(RefBER)

// BERAtMargin returns the expected bit error rate of a receiver operating
// marginDB above (negative: below) the sensitivity that yields RefBER, in
// the thermal-noise-limited regime where the Q factor scales linearly with
// received optical power. At zero margin the link runs exactly at RefBER;
// each dB of eroded margin multiplies Q by 10^(-1/10) and the BER grows
// super-exponentially — which is why power-aware links that shave optical
// power must watch their margin.
func BERAtMargin(marginDB float64) float64 {
	return BERFromQ(refQ * FromDB(marginDB))
}

// SensitivityW returns the receiver sensitivity (W) required for a target
// BER at a given bit rate, in the thermal-noise-limited regime where the
// required optical power scales linearly with bit rate:
//
//	P_rec = Q(BER) · (i_n/R) · BR/BR_ref
//
// with responsivity R (A/W) and input-referred noise current i_n (A) at the
// reference bit rate. Calibrate with refSensitivityW at refBitRateGbps, the
// sensitivity at RefBER.
func SensitivityW(ber, bitRateGbps, refBitRateGbps, refSensitivityW float64) float64 {
	return refSensitivityW * (QFromBER(ber) / refQ) * (bitRateGbps / refBitRateGbps)
}

// LaserCapacity reports how many links a mode-locked laser of laserPowerW
// can feed through the given per-link loss (dB) while each receiver still
// gets sensitivityW, assuming ideal splitting of the remaining power. This
// mirrors the paper's observation that a typical mode-locked laser can
// support hundreds to thousands of links.
func LaserCapacity(laserPowerW, perLinkExcessLossDB, sensitivityW float64) int {
	if sensitivityW <= 0 || laserPowerW <= 0 {
		return 0
	}
	usable := laserPowerW * FromDB(-perLinkExcessLossDB)
	n := int(usable / sensitivityW)
	if n < 0 {
		return 0
	}
	return n
}
